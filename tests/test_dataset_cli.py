"""Serialization and command-line behavior.

Most CLI tests drive ``scatjet.cli.main`` in process; the determinism test and
one exit-code check run the real process entry point through
``python -m scatjet``.
"""
import json
import math

import numpy as np
import pytest

from scatjet.boundary_jets import ComplexEnergy
from scatjet.cli import main, parse_complex
from scatjet.dataset import (
    SymbolDataset,
    canonical_json,
    decode_complex,
    decode_complex_array,
    encode_complex,
    encode_complex_array,
)
from scatjet.errors import ConfigError, IoError
from scatjet.synthetic import constant_patch, forward_dataset, make_synthetic_pair

from cli_process import run_scatjet
from oracles import t_oracle


# -- codecs and canonical form ----------------------------------------------


def test_complex_codec_round_trip():
    for z in (0j, 1.5 - 2.25j, complex(-0.0, 3.0)):
        assert decode_complex(encode_complex(z)) == z


def test_complex_array_codec_round_trip():
    arr = np.array([[1 + 2j, -3.5j], [0.25, 7 - 1j]])
    again = decode_complex_array(encode_complex_array(arr))
    np.testing.assert_array_equal(again, arr)


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n") and ": " not in a


def test_parse_complex_forms():
    assert parse_complex("2+0i") == 2.0
    assert parse_complex("1.5-2i") == 1.5 - 2j
    assert parse_complex("3j") == 3j
    with pytest.raises(ConfigError):
        parse_complex("two")


# -- dataset round trip ------------------------------------------------------


def test_dataset_save_load_identical(tmp_path):
    _, ds = make_synthetic_pair(seed=4, n=2)
    path = tmp_path / "ds.json"
    ds.save(path)
    again = SymbolDataset.load(path)
    assert canonical_json(again.to_dict()) == canonical_json(ds.to_dict())
    assert again.energies == ds.energies
    idx = (0, 0)
    assert again.symbol_pairs(idx, ds.energies[0]) == ds.symbol_pairs(idx, ds.energies[0])
    assert len(again.singularity_samples(idx)) == len(ds.singularity_samples(idx))


def test_dataset_unknown_energy_and_missing_extras():
    patch = constant_patch(1, 1.0, 0.2, np.eye(1))
    ds = forward_dataset(patch, (ComplexEnergy(4.0),))
    with pytest.raises(KeyError):
        ds.symbol_pairs((0,), 9.0)
    assert ds.singularity_samples((0,)) == ()


def test_dataset_from_dict_ignores_unknown_keys():
    _, ds = make_synthetic_pair(seed=4, n=2, with_first_order=False)
    data = ds.to_dict()
    data["future_extension"] = {"anything": 1}
    again = SymbolDataset.from_dict(data)
    assert again.n == ds.n and again.energies == ds.energies


def test_dataset_io_errors(tmp_path):
    with pytest.raises(IoError, match="not found"):
        SymbolDataset.load(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(IoError, match="valid JSON"):
        SymbolDataset.load(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": "other/9"}))
    with pytest.raises(IoError, match="schema"):
        SymbolDataset.load(wrong)


def _drop(path):
    def mutate(data):
        *parents, last = path
        block = data
        for part in parents:
            block = block[part]
        del block[last]

    return mutate


def _set_nan(data):
    data["symbols"]["1"]["0,1"]["0"][1] = [math.nan, 0.0]


def _truncate_pair(data):
    data["symbols"]["0"]["2,3"]["1"] = [[1.0, 0.0]]


@pytest.mark.parametrize(
    "mutate,message",
    [
        (_drop(["symbols", "0", "1,1"]), r"energy index 0: grid key '1,1' missing"),
        (_drop(["symbols", "1", "0,0", "0+1"]), r"energy index 1, grid key '0,0': covector '0\+1' missing"),
        (_drop(["singularity", "1,0"]), r"singularity: grid key '1,0' missing"),
        (_set_nan, r"energy index 1, grid key '0,1', covector '0': sample is not finite"),
        (_truncate_pair, r"malformed dataset: ValueError"),
    ],
    ids=["missing-grid-index", "missing-covector", "missing-singularity", "nan-sample", "malformed-pair"],
)
def test_dataset_incomplete_or_non_finite(tmp_path, mutate, message):
    _, ds = make_synthetic_pair(seed=4, n=2)
    data = ds.to_dict()
    mutate(data)
    with pytest.raises(IoError, match=message):
        SymbolDataset.from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["invert", "--data", str(path)]) == 2


# -- CLI: integrals ----------------------------------------------------------


def _read_json(path):
    return json.loads(path.read_text())


def test_cli_integrals_t2_matches_oracle(tmp_path):
    out = tmp_path / "t2.json"
    rc = main(["integrals", "--which", "T2", "--sigma", "2+0i", "--n", "1", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    got = decode_complex(payload["value"])
    assert abs(got - t_oracle(2, 2.0, 1)) <= 1e-5
    assert payload["l"] == 2 and payload["converged"] is True
    assert payload["err"] < 1e-5 and payload["evals"] > 0


def test_cli_integrals_bare_j_uses_level_flag(tmp_path):
    out = tmp_path / "j.json"
    rc = main(
        ["integrals", "--which", "J", "--l", "1", "--k", "1", "--sigma", "3+0i", "--n", "1", "--out", str(out)]
    )
    assert rc == 0
    payload = _read_json(out)
    assert payload["l"] == 1 and payload["k"] == 1
    assert decode_complex(payload["value"]).real > 0


def test_cli_integrals_green(tmp_path):
    out = tmp_path / "g.json"
    rc = main(
        ["integrals", "--which", "G", "--sigma", "2.5+0i", "--n", "2", "--s", "1.0", "--z", "0,0", "--out", str(out)]
    )
    assert rc == 0
    val = decode_complex(_read_json(out)["value"])
    assert val == pytest.approx(2.0**-2.5 / (2 * math.pi), rel=1e-12)


def test_cli_integrals_error_codes(tmp_path):
    assert main(["integrals", "--which", "Q7", "--sigma", "2+0i", "--n", "1"]) == 2
    # below the convergence gate: numeric-stage refusal, not a config problem
    assert main(["integrals", "--which", "T1", "--sigma", "0.9+0i", "--n", "1"]) == 1
    assert main(["integrals", "--which", "I", "--sigma", "2+0i", "--n", "2", "--z", "1,2,3"]) == 2


@pytest.mark.parametrize(
    "extra",
    [
        ["--which", "I1", "--n", "1", "--z", "abc"],
        ["--which", "I1", "--n", "1", "--s", "-1"],
        ["--which", "T1", "--n", "4"],
        ["--which", "T1", "--n", "1", "--rel-tol", "0"],
    ],
    ids=["z-not-a-number", "negative-s", "n-too-large", "zero-rel-tol"],
)
def test_cli_integrals_bad_arguments_exit_2(extra):
    assert main(["integrals", "--sigma", "2+0i", *extra]) == 2


# -- CLI: forward / invert ---------------------------------------------------


def _write_patch(tmp_path, name, patch):
    p = tmp_path / name
    p.write_text(json.dumps(patch.to_dict()))
    return p


def test_cli_forward_invert_flow(tmp_path):
    h0 = np.diag([2.0, 1.0])
    p1 = _write_patch(tmp_path, "p1.json", constant_patch(2, 1.1, 0.4, h0, v1=0.1))
    # L chosen so that H = h0^-1 L h0^-1 is traceless: then the truth is
    # orthogonal to the fit's structural kernel and min-norm recovery is exact
    L = np.array([[0.5, 0.2], [0.2, -0.125]])
    p2 = _write_patch(
        tmp_path, "p2.json", constant_patch(2, 1.1, 0.4, h0, v1=0.1, h1=L)
    )
    ds_path = tmp_path / "ds.json"
    rc = main(
        [
            "forward",
            "--patch", str(p1),
            "--patch2", str(p2),
            "--lam", "4.0",
            "--lam", "5.0",
            "--t1", "1+0i",
            "--t2", "1+0i",
            "--out", str(ds_path),
        ]
    )
    assert rc == 0
    payload = _read_json(ds_path)
    assert payload["schema"] == "scatjet.symbols/1"
    assert len(payload["sigma_field"]) == 2  # derived block, one entry per energy

    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "fields.csv"
    rc = main(["invert", "--data", str(ds_path), "--out", str(report_path), "--csv", str(csv_path)])
    assert rc == 0
    report = _read_json(report_path)
    assert report["status"] == "ok"
    a2 = np.asarray(report["alpha_sq"])[..., 0]
    np.testing.assert_allclose(a2, 1.1**2, atol=1e-8)
    H = decode_complex_array(report["H"])
    want_H = np.linalg.solve(h0, np.linalg.solve(h0, L.T).T)
    np.testing.assert_allclose(H[0, 0], want_H, atol=1e-8)

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,alpha_sq,v0,sigma1_re,sigma1_im"
    assert len(lines) == 1 + 4 * 4  # default 4-per-axis grid


def test_cli_forward_requires_energy(tmp_path):
    p1 = _write_patch(tmp_path, "p1.json", constant_patch(1, 1.0, 0.0, np.eye(1)))
    assert main(["forward", "--patch", str(p1)]) == 2
    assert main(["forward", "--patch", str(p1), "--lam", "4.0", "--t1", "1+0i"]) == 2


def test_cli_missing_input_file(tmp_path):
    assert main(["forward", "--patch", str(tmp_path / "absent.json"), "--lam", "4.0"]) == 2
    assert main(["invert", "--data", str(tmp_path / "absent.json")]) == 2


def test_cli_invert_zero_prefactor(tmp_path):
    _, ds = make_synthetic_pair(seed=4, n=2, with_first_order=False)
    ds_path = tmp_path / "ds.json"
    ds.save(ds_path)
    assert main(["invert", "--data", str(ds_path), "--prefactor", "0+0i"]) == 2


def test_cli_invert_refused_energy(tmp_path):
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    ds = forward_dataset(
        patch, (ComplexEnergy(1j * math.sqrt(2.0)), ComplexEnergy(4.0))
    )
    ds_path = tmp_path / "ds.json"
    ds.save(ds_path)
    out = tmp_path / "report.json"
    rc = main(["invert", "--data", str(ds_path), "--out", str(out), "--margin", "1e-3"])
    assert rc == 1
    assert _read_json(out)["status"] == "refused"


# -- CLI: sets ---------------------------------------------------------------


def test_cli_sets_admissibility(tmp_path):
    p1 = _write_patch(tmp_path, "p1.json", constant_patch(2, 1.0, 0.0, np.eye(2)))
    out = tmp_path / "sets.json"
    rc = main(
        [
            "sets",
            "--patch", str(p1),
            "--no-zero-scan",
            "--lam", "5i",
            "--lam", "1.4142135624i",
            "--margin", "0.1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    block = _read_json(out)
    assert block["interval_lambda_sq"] == [0.0, 0.0]
    ks = sorted({m["k"] for m in block["modes"]})
    assert ks == [0, 1, 2]
    ok_flags = {tuple(c["lam"]): c["ok"] for c in block["admissibility"]}
    assert ok_flags[(0.0, 5.0)] is True  # lambda^2 = -25, far from everything
    assert ok_flags[(0.0, 1.4142135624)] is False  # lambda^2 = -2 is a mode value
    assert "zeros" not in block


def test_cli_sets_zero_scan(tmp_path):
    p1 = _write_patch(tmp_path, "p1.json", constant_patch(1, 1.0, 0.0, np.eye(1)))
    out = tmp_path / "sets.json"
    rc = main(["sets", "--patch", str(p1), "--zero-step", "0.5", "--out", str(out)])
    assert rc == 0
    zeros = _read_json(out)["zeros"]
    assert "caveat" in zeros
    assert zeros["T1"] == [] and zeros["T2"] == []  # both positive on the window
    assert zeros["T1_window"][0] < zeros["T1_window"][1]


# -- CLI: verify -------------------------------------------------------------


def test_cli_verify_green(tmp_path):
    out = tmp_path / "green.json"
    rc = main(["verify", "green", "--sigma", "1.5", "--n", "1", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    assert payload["second_order"] is True
    assert 3.5 <= payload["ratio"] <= 4.5
    assert payload["fine"]["max_residual"] < payload["coarse"]["max_residual"]


def test_cli_verify_all(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--seed", "0", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert names == {"indicial-identity", "symbol-homogeneity", "green-residual-ratio"}


# -- CLI: roundtrip determinism ---------------------------------------------


def test_cli_roundtrip_deterministic(tmp_path):
    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        proc = run_scatjet("roundtrip", "--seed", "7", "--n", "2", "--out-dir", str(d))
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            {f.name: f.read_bytes() for f in sorted(d.glob("*.json"))}
        )
    assert set(outputs[0]) == {"dataset.json", "report.json", "roundtrip.json"}
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0]["roundtrip.json"])
    assert summary["ok"] is True
    assert all(v <= 1e-8 for v in summary["max_errors"].values())


def test_cli_roundtrip_missing_dir(tmp_path):
    assert main(["roundtrip", "--seed", "7", "--out-dir", str(tmp_path / "void")]) == 2


def test_cli_process_roundtrip_missing_dir(tmp_path):
    proc = run_scatjet("roundtrip", "--seed", "7", "--out-dir", str(tmp_path / "void"))
    assert proc.returncode == 2, proc.stderr
