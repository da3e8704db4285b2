"""Serialization and command-line behavior.

Most CLI tests drive ``scatjet.cli.main`` in process; the determinism test and
the exit-code checks named ``test_cli_process_*`` run the real process entry
point through ``python -m scatjet``.
"""
import argparse
import base64
import cmath
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scatjet import cli
from scatjet.boundary_jets import ComplexEnergy, indicial_root
from scatjet.cli import build_parser, main, parse_complex
from scatjet.dataset import (
    SymbolDataset,
    canonical_json,
    decode_complex,
    encode_complex,
    pack_array,
    unpack_array,
)
from scatjet.errors import BranchCut, ConfigError, IoError
from scatjet.forward_scattering import default_probe_set
from scatjet.inversion import layer_strip_driver
from scatjet.synthetic import constant_patch, forward_dataset, make_synthetic_pair

from cli_process import run_scatjet
from oracles import t_oracle


# -- codecs and canonical form ----------------------------------------------


def test_complex_codec_round_trip():
    for z in (0j, 1.5 - 2.25j, complex(-0.0, 3.0)):
        assert decode_complex(encode_complex(z), "z") == z


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n") and ": " not in a


def _reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _packed_arrays():
    shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=40)
    return st.one_of(
        hnp.arrays(float, shapes, elements=st.floats()),
        hnp.arrays(complex, shapes, elements=st.complex_numbers()),
    ).map(pack_array)


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.text(alphabet=st.one_of(st.characters(), st.sampled_from('"\\\x00\n\t\x7f é'))),
    _packed_arrays(),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_canonical_json_equals_json_dumps(obj):
    """Packed arrays at any depth among every other kind of JSON value: the same text."""
    assert canonical_json(obj) == _reference_json(obj)


def test_canonical_json_writes_packed_arrays_as_they_stand():
    """A packed array is a ``str`` to every reader, as a value and as a key."""
    packed = pack_array(np.arange(6.0).reshape(2, 3) - 2.5j)
    assert isinstance(packed, str) and json.loads(json.dumps(packed)) == packed
    obj = {"a": [packed, {"b": packed}], packed: 1.5, "c": "\x00\"", "d": (None, math.nan)}
    assert canonical_json(obj) == _reference_json(obj)
    assert canonical_json(packed) == _reference_json(packed)


@pytest.mark.parametrize("seed", [3, 17, 600])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_dataset_and_report_equal_json_dumps(seed, n):
    _, ds = make_synthetic_pair(seed, n)
    report = layer_strip_driver(ds)
    for obj in (ds.to_dict(), report.to_dict()):
        assert canonical_json(obj) == _reference_json(obj)


def test_parse_complex_forms():
    assert parse_complex("2+0i") == 2.0
    assert parse_complex("1.5-2i") == 1.5 - 2j
    assert parse_complex("3j") == 3j
    assert parse_complex("5i") == 5j
    with pytest.raises(ConfigError):
        parse_complex("two")


@pytest.mark.parametrize("text", ["inf", "-inf", "infinity", "nan", "1e400", "2+infi"])
def test_parse_complex_refuses_non_finite(text):
    with pytest.raises(ConfigError, match=rf"^complex number '{re.escape(text)}' is not finite$"):
        parse_complex(text)


# -- dataset round trip ------------------------------------------------------


def _first_order_dataset_at_a_mixed_pair():
    """A first-order dataset at lambda = (4+0.5i, 5): its arrays are written as re, im pairs."""
    h0 = np.diag([2.0, 1.0])
    patch = constant_patch(2, 1.1, 0.4, h0, v1=0.0, h1=0.1 * h0)
    return forward_dataset(patch, (ComplexEnergy(4 + 0.5j), ComplexEnergy(5.0)))


@pytest.mark.parametrize("case", ["n1", "n2", "n3", "mixed-n2"])
def test_dataset_save_load_identical(tmp_path, case):
    mixed = case == "mixed-n2"
    if mixed:
        ds = _first_order_dataset_at_a_mixed_pair()
    else:
        _, ds = make_synthetic_pair(seed=4, n=int(case[1]))
    n, grid = ds.n, ds.grid_shape
    text = canonical_json(ds.to_dict())
    path = tmp_path / "ds.json"
    path.write_text(text)
    again = SymbolDataset.load(path)
    assert canonical_json(again.to_dict()) == text
    assert again.energies == ds.energies
    np.testing.assert_array_equal(again.symbols, ds.symbols)
    assert again.symbols.shape == (*grid, 2, n * (n + 1) // 2, 2)
    assert again.symbols.flags.c_contiguous and not again.symbols.flags.writeable
    np.testing.assert_array_equal(again.singularity, ds.singularity)
    np.testing.assert_array_equal(again.probes, ds.probes)
    count = len(default_probe_set(n))
    assert again.singularity.shape == (*grid, count) and again.probes.shape == (count, n)
    assert not (again.singularity.flags.writeable or again.probes.flags.writeable)
    # real energies write every complex array as its real parts, the mixed pair as pairs
    width = 2 if mixed else 1
    data = json.loads(path.read_text())
    assert _value_count(data["symbols"]) == width * ds.symbols.size
    assert _value_count(data["singularity"]) == width * ds.singularity.size
    for name in ("symbols", "singularity"):
        np.testing.assert_array_equal(_bits(getattr(again, name)), _bits(getattr(ds, name)))
    # the file keeps the energy-first order, every bit
    packed = np.frombuffer(base64.b64decode(data["symbols"]), dtype="<u8")
    np.testing.assert_array_equal(packed, _bits(np.moveaxis(ds.symbols, n, 0)).reshape(-1))


def _bits(arr):
    """The raw float64 words of an array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(arr).view(np.uint64)


def _value_count(text):
    """The number of float64 values in a packed array."""
    return len(base64.b64decode(text)) // 8


def _real_parts(arr):
    """True when ``pack_array`` writes the complex array ``arr`` as its real parts."""
    return not np.any(_bits(arr.imag))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _datasets(draw):
    """Datasets with singularity data.

    Any finite numbers, -0.0 among them, one set of unit probes and small grids.
    """
    n = draw(st.sampled_from([1, 2, 3]))
    grid = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    n_energies = draw(st.integers(1, 2))
    count = draw(st.integers(1, 4))

    def real_array(shape):
        return draw(hnp.arrays(float, shape, elements=st.one_of(st.just(-0.0), _FINITE)))

    def complex_array(shape):
        """Any parts; or imaginary words all +0.0, one of them perhaps -0.0."""
        pairs = real_array(shape + (2,))
        imag = draw(st.sampled_from(["drawn", "zero", "one -0.0"]))
        if imag != "drawn":
            pairs[..., 1] = 0.0
        if imag == "one -0.0":
            pairs.reshape(-1, 2)[draw(st.integers(0, math.prod(shape) - 1)), 1] = -0.0
        return pairs.view(complex)[..., 0]

    raw = draw(hnp.arrays(float, (count, n), elements=st.floats(-1.0, 1.0)))
    norm = np.linalg.norm(raw, axis=-1, keepdims=True)
    assume(np.all(norm > 1e-3))
    energies = tuple(complex_array((n_energies,)))
    # the energy rule of ComplexEnergy: a finite square
    assume(all(cmath.isfinite(complex(lam) * complex(lam)) for lam in energies))
    return SymbolDataset(
        n=n,
        grid_shape=grid,
        scale_t=draw(st.floats(0.1, 10.0).filter(lambda t: t != 1.0)),
        energies=energies,
        symbols=complex_array((*grid, n_energies, n * (n + 1) // 2, 2)),
        singularity=complex_array(grid + (count,)),
        probes=raw / norm,
    )


@settings(max_examples=60, deadline=None)
@given(_datasets())
def test_dataset_encode_decode_is_identity(ds):
    data = ds.to_dict()
    text = canonical_json(data)
    again = SymbolDataset.from_dict(json.loads(text))
    assert canonical_json(again.to_dict()) == text
    for name in ("symbols", "singularity"):
        arr = getattr(ds, name)
        real_parts = _real_parts(arr)
        assert _value_count(data[name]) == arr.size * (1 if real_parts else 2)
        # real parts decode as float64, which widens to the complex array exactly
        assert getattr(again, name).dtype == (float if real_parts else complex)
    for name in ("symbols", "singularity", "probes"):
        arr = getattr(ds, name)
        widened = np.array(getattr(again, name), dtype=arr.dtype)
        np.testing.assert_array_equal(_bits(widened), _bits(arr))
    assert (again.n, again.grid_shape, again.scale_t) == (ds.n, ds.grid_shape, ds.scale_t)
    got = [en.lam for en in again.energies]
    want = [en.lam for en in ds.energies]
    assert _bits(np.array(got)).tolist() == _bits(np.array(want)).tolist()


# float64 words the packer must keep: -0.0, the smallest and largest
# subnormals, +-inf, a quiet NaN, a signalling NaN and a negative NaN payload
_SPECIAL_WORDS = [
    0x8000000000000000,
    0x0000000000000001,
    0x000FFFFFFFFFFFFF,
    0x7FF0000000000000,
    0xFFF0000000000000,
    0x7FF8000000000000,
    0x7FF0000000000001,
    0xFFF800000000BEEF,
]
_NON_FINITE_WORDS = st.one_of(
    st.sampled_from(_SPECIAL_WORDS[3:]),
    st.builds(
        lambda sign, mantissa: sign | 0x7FF0000000000000 | mantissa,
        st.sampled_from([0, 1 << 63]),
        st.integers(0, (1 << 52) - 1),
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    words=hnp.arrays(
        np.uint64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4).map(lambda s: s + (2,)),
        elements=st.one_of(st.sampled_from(_SPECIAL_WORDS), st.integers(0, (1 << 64) - 1)),
    ),
    imag=st.sampled_from(["drawn", "all +0.0", 0x8000000000000000, 0x7FF8000000000000, 0xFFF800000000BEEF]),
    at=st.integers(0, 63),
)
def test_packed_array_keeps_every_bit(words, imag, at):
    """pack -> canonical JSON -> json.loads -> unpack gives back every bit, real or complex.

    Read as complex, the words are ``re, im`` pairs.  With every imaginary
    word +0.0 the array is written as its real parts, and the read returns
    the float array that widens to it; a single -0.0 or NaN imaginary part
    (``imag``, at pair ``at``) keeps the pairs.
    """
    if imag != "drawn":
        words = words.copy()
        words[..., 1] = 0
        if imag != "all +0.0" and words.size:
            words.reshape(-1, 2)[at % (words.size // 2), 1] = imag
    floats = words.view(float)
    for arr, kind in ((floats, float), (floats.view(complex)[..., 0], complex)):
        text = json.loads(canonical_json({"a": pack_array(arr)}))["a"]
        assert isinstance(text, str)
        real_parts = kind is float or not words[..., 1].any()
        assert _value_count(text) == arr.size * (1 if real_parts else 2)
        again = unpack_array(text, "a", arr.shape, kind)
        assert again.dtype == (float if real_parts else complex) and again.shape == arr.shape
        np.testing.assert_array_equal(_bits(np.array(again, dtype=kind)), _bits(arr))


@pytest.mark.parametrize(
    "text",
    ["AAAAAAAA8D8", "AAAAAAAA8D8=\n", "AAAAAAAA8D8==", "AAAA*AAA", "AAAAAAAAé8D8="],
    ids=["short-padding", "newline", "excess-padding", "bad-character", "non-ascii"],
)
def test_unpack_array_refuses_malformed_base64_as_b64decode_does(text):
    """The error class and message of ``base64.b64decode(text, validate=True)``, named by array."""
    with pytest.raises(ValueError) as want:
        base64.b64decode(text, validate=True)
    message = f"a: not a base64 string of float64 bytes: {want.value}"
    with pytest.raises(IoError, match=f"^{re.escape(message)}$"):
        unpack_array(text, "a", (1,), float)


@pytest.mark.parametrize("lam", ["4", "4+0.5i"], ids=["real", "complex"])
def test_forward_file_packs_real_parts_only_for_exactly_real_arrays(tmp_path, lam):
    """Real energies: ``prod(shape)`` values per complex array; a complex energy keeps the pairs.

    The file that ``forward`` writes decodes to the dataset built in memory, bit for bit.
    """
    h0 = np.diag([2.0, 1.0])
    patch = constant_patch(2, 1.1, 0.4, h0, v1=0.0, h1=0.1 * h0)
    ds = forward_dataset(patch, (ComplexEnergy(parse_complex(lam)), ComplexEnergy(5.0)))
    path = _write_patch(tmp_path, "p.json", patch)
    out = tmp_path / "ds.json"
    argv = ["forward", "--patch", str(path), "--lam", lam, "--lam", "5"]
    assert main([*argv, "--out", str(out)]) == 0
    text = out.read_text()
    assert text == canonical_json(ds.to_dict())
    data = json.loads(text)
    again = SymbolDataset.from_dict(data)
    width = 1 if lam == "4" else 2
    for name in ("symbols", "singularity"):
        arr = getattr(ds, name)
        assert _real_parts(arr) == (width == 1)
        assert _value_count(data[name]) == width * arr.size
        np.testing.assert_array_equal(_bits(getattr(again, name)), _bits(arr))


@settings(max_examples=30, deadline=None)
@given(
    field=st.sampled_from(["symbols", "singularity"]),
    position=st.integers(0, 2 * 4 * 4 * 3 * 2 * 2 - 1),
    word=_NON_FINITE_WORDS,
)
def test_packed_non_finite_value_is_refused_at_its_grid_index(field, position, word):
    """Any inf or NaN bit pattern in a file fails the constructor, naming its grid index."""
    _, ds = make_synthetic_pair(seed=4, n=2)
    data = ds.to_dict()
    shape = _FLOAT_SHAPES[field]
    position %= math.prod(shape)

    def put(arr):
        arr.reshape(-1).view(np.uint64)[position] = word

    _edit_packed(data, field, put, shape)
    if field == "symbols":
        e, i, j, c, _, _ = np.unravel_index(position, shape)
        message = (
            rf"^symbols: sample \(energy index, covector\) is not finite "
            rf"at grid index \({i}, {j}\), sample \({e}, {c}\)$"
        )
    else:
        i, j, k, _ = np.unravel_index(position, shape)
        message = rf"^singularity: value is not finite at grid index \({i}, {j}\), sample \({k},\)$"
    with pytest.raises(IoError, match=message):
        SymbolDataset.from_dict(data)


def test_dataset_unknown_energy_and_missing_extras():
    patch = constant_patch(1, 1.0, 0.2, np.eye(1))
    ds = forward_dataset(patch, (ComplexEnergy(4.0),))
    with pytest.raises(ConfigError, match=r"expected \(4, 2, 1, 2\)"):
        dataclasses.replace(ds, energies=ds.energies + (9.0,))
    assert ds.singularity is None and ds.probes is None


@pytest.mark.parametrize("lam", [math.nan, math.inf, 1e200])
def test_dataset_refuses_an_energy_whose_square_is_not_finite(lam):
    """Built in code or read from a file, the energy meets ComplexEnergy's one rule."""
    _, ds = make_synthetic_pair(seed=4, n=2)
    with pytest.raises(ConfigError, match=r"^energy .*: lambda\^2 = .* is not finite$") as built:
        dataclasses.replace(ds, energies=(lam, ds.energies[1]))
    data = ds.to_dict()
    data["energies"][0] = [lam, 0.0]
    with pytest.raises(IoError) as read:
        SymbolDataset.from_dict(json.loads(canonical_json(data)))
    assert str(read.value) == str(built.value)


def test_dataset_rejects_symbols_of_wrong_shape():
    _, ds = make_synthetic_pair(seed=4, n=2)
    with pytest.raises(ConfigError, match=r"shape \(4, 3, 2, 3, 2\), expected \(4, 4, 2, 3, 2\)"):
        dataclasses.replace(ds, symbols=ds.symbols[:, 1:])


def test_dataset_rejects_singularity_without_every_grid_index():
    _, ds = make_synthetic_pair(seed=4, n=2)
    with pytest.raises(ConfigError, match=r"singularity has shape \(4, 3, 4\), expected \(4, 4, 4\)"):
        dataclasses.replace(ds, singularity=ds.singularity[:, 1:])
    with pytest.raises(ConfigError, match=r"singularity has shape \(4, 4, 3\), expected \(4, 4, 4\)"):
        dataclasses.replace(ds, singularity=ds.singularity[..., 1:])
    want = r"^probes: expected an array of shape \(P, 2\) with P >= 1, got shape "
    with pytest.raises(ConfigError, match=want + r"\(0, 2\)$"):
        dataclasses.replace(ds, singularity=ds.singularity[..., :0], probes=ds.probes[:0])
    with pytest.raises(ConfigError, match=want + r"\(4, 1\)$"):
        dataclasses.replace(ds, probes=ds.probes[:, :1])
    with pytest.raises(ConfigError, match=want + r"\(4, 4, 4, 2\)$"):
        dataclasses.replace(ds, probes=np.broadcast_to(ds.probes, (4, 4, 4, 2)))
    with pytest.raises(
        ConfigError, match=r"^singularity and probes come together or not at all; missing: probes$"
    ):
        dataclasses.replace(ds, probes=None)
    with pytest.raises(ConfigError, match=r"or not at all; missing: singularity$"):
        dataclasses.replace(ds, singularity=None)
    assert dataclasses.replace(ds, singularity=None, probes=None).probes is None


def _with_entry(array, index, value):
    """A copy of ``array`` with one entry set, widened to complex for a complex ``value``."""
    out = np.array(array, dtype=np.result_type(array, np.asarray(value)))
    out[index] = value
    return out


@pytest.mark.parametrize(
    "field,index,value,message",
    [
        (
            "singularity",
            (1, 2, 0),
            math.inf,
            r"singularity: value is not finite at grid index \(1, 2\), sample \(0,\)",
        ),
        ("probes", (1, 0), math.nan, r"^probes: probe 1 \(nan, 1\.0\) is not finite$"),
        (
            "probes",
            (2, 1),
            0.5,
            r"^probes: probe 2 \(0\.7071067811865475, 0\.5\) is not a unit vector$",
        ),
        (
            "probes",
            (0, 0),
            1.00000000005,
            r"^probes: probe 0 \(1\.00000000005, 0\.0\) is not a unit vector$",
        ),
        (
            "symbols",
            (2, 3, 1, 0, 1),
            complex(math.nan),
            r"symbols: sample \(energy index, covector\) is not finite "
            r"at grid index \(2, 3\), sample \(1, 0\)",
        ),
    ],
    ids=["inf-singularity", "nan-probe", "non-unit-probe", "near-unit-probe", "nan-symbol"],
)
def test_dataset_rejects_bad_arrays_in_memory(field, index, value, message):
    """A dataset built in memory fails at construction, naming the grid index."""
    _, ds = make_synthetic_pair(seed=7, n=2)
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(ds, **{field: _with_entry(getattr(ds, field), index, value)})


@pytest.mark.parametrize("n", [0, 4])
def test_dataset_dimension_outside_1_to_3_is_refused(tmp_path, n):
    """A dataset's n takes the one dimension rule: ConfigError in memory, IoError from a file."""
    good = make_synthetic_pair(seed=3, n=1)[1]
    message = rf"^dataset dimension n={n} outside supported range 1\.\.3$"
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(good, n=n, grid_shape=(4,) * n)
    data = good.to_dict()
    data.update(n=n, grid_shape=[4] * n)
    with pytest.raises(IoError, match=message):
        SymbolDataset.from_dict(data)
    path = tmp_path / "ds.json"
    path.write_text(canonical_json(data))
    assert main(["invert", "--data", str(path)]) == 2


@pytest.mark.parametrize("key", ["t_pair", "extra"])
def test_dataset_from_dict_refuses_unknown_keys(tmp_path, key):
    """A key the schema does not define, the factors of the earlier schemas among them, is
    refused by name, exit 2: it is never dropped silently."""
    _, ds = make_synthetic_pair(seed=4, n=2)
    data = ds.to_dict()
    data[key] = [[1.0, 0.0], [1.0, 0.0]] if key == "t_pair" else 1
    message = f"^dataset key '{key}' is not defined by schema 'scatjet.symbols/8'$"
    with pytest.raises(IoError, match=message):
        SymbolDataset.from_dict(data)
    path = tmp_path / "ds.json"
    path.write_text(canonical_json(data))
    assert main(["invert", "--data", str(path)]) == 2


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


# float shapes of the seed-4, n=2 dataset's arrays (grid 4x4, 2 energies,
# 3 covectors, 4 probes; complex entries as [re, im])
_FLOAT_SHAPES = {
    "symbols": (2, 4, 4, 3, 2, 2),
    "singularity": (4, 4, 4, 2),
    "probes": (4, 2),
}


def _unpacked(text, shape=(-1,)):
    """A packed array read the way the README does it, as a writable copy.

    Twice as many values as the shape holds are the ``re, im`` pairs of a
    complex array.
    """
    values = np.frombuffer(base64.b64decode(text), "<f8")
    if values.size == 2 * math.prod(shape):
        values = values.view("<c16")
    return values.reshape(shape).copy()


def _edit_packed(parent, name, edit, shape=(-1,)):
    """Edit array ``name`` of the valid dataset dict ``parent`` as floats of ``shape``.

    The array is read through ``SymbolDataset.from_dict`` and widened to
    complex for ``symbols`` and ``singularity`` (real data decode as float64),
    so its entries are edited as ``re, im`` float pairs whichever way it was
    written, and packed back by ``pack_array``'s own rule.
    ``edit(arr)`` changes ``arr`` in place or returns the array to pack.
    """
    kind = float if name == "probes" else complex
    arr = np.array(getattr(SymbolDataset.from_dict(parent), name), dtype=kind)
    floats = arr[..., None].view(float).reshape(shape)
    with np.errstate(all="ignore"):
        out = edit(floats)
    out = np.ascontiguousarray(floats if out is None else out)
    parent[name] = pack_array(out.view(complex) if kind is complex else out)


def _set_entry(name, index, value):
    """Set one entry of packed array ``name``."""

    def mutate(data):
        def put(arr):
            arr[index] = value

        _edit_packed(data, name, put, _FLOAT_SHAPES[name])

    return mutate


def _set(key, value):
    def mutate(data):
        data[key] = value

    return mutate


def _drop(key):
    def mutate(data):
        del data[key]

    return mutate


def _truncate(name, count):
    """Cut the last ``count`` float64 values of packed array ``name``."""

    def mutate(data):
        _edit_packed(data, name, lambda arr: arr[:-count])

    return mutate


def _reshape(name, edit):
    """Replace packed array ``name`` by ``edit`` of its float array."""

    def mutate(data):
        _edit_packed(data, name, edit, _FLOAT_SHAPES[name])

    return mutate


def _as_list(name):
    """Write packed array ``name`` as the flat list of numbers of ``scatjet.symbols/4``."""

    def mutate(data):
        data[name] = _unpacked(data[name]).tolist()

    return mutate


def _replace_char(name, position, char):
    """Put ``char`` at ``position`` of packed string ``name``."""

    def mutate(data):
        data[name] = data[name][:position] + char + data[name][position + 1 :]

    return mutate


def _extra_bytes(name, count):
    """Append ``count`` zero bytes to the bytes of packed array ``name``."""

    def mutate(data):
        data[name] = base64.b64encode(base64.b64decode(data[name]) + bytes(count)).decode()

    return mutate


def _no_samples(data):
    data["singularity"] = data["probes"] = pack_array(np.zeros(0))


@pytest.mark.parametrize(
    "mutate,message",
    [
        (
            _truncate("symbols", 12),
            r"symbols: expected 192 \(real parts\) or 384 \(re, im pairs\) float64 values "
            r"for a complex array of shape \(2, 4, 4, 3, 2\), got 186$",
        ),
        (
            _reshape("symbols", lambda a: a[:, :, :, :2]),
            r"symbols: expected 192 \(real parts\) or 384 \(re, im pairs\) float64 values "
            r"for a complex array of shape \(2, 4, 4, 3, 2\), got 128$",
        ),
        (
            _reshape("symbols", lambda a: np.concatenate([a, a[:, :, :, :1]], axis=3)),
            r"symbols: expected 192 \(real parts\) or 384 \(re, im pairs\) float64 values "
            r"for a complex array of shape \(2, 4, 4, 3, 2\), got 256$",
        ),
        (
            _truncate("singularity", 2),
            r"singularity: expected 64 \(real parts\) or 128 \(re, im pairs\) float64 values "
            r"for a complex array of shape \(4, 4, 4\), got 63$",
        ),
        (
            _truncate("probes", 1),
            # the probe count is read off the value count, rounded up
            r"probes: expected 8 float64 values for a float array of shape \(4, 2\), got 7$",
        ),
        (
            _reshape("probes", lambda a: np.concatenate([a, np.zeros((4, 1))], axis=-1)),
            # twelve values read as six two-component probes
            r"singularity: expected 96 \(real parts\) or 192 \(re, im pairs\) float64 values "
            r"for a complex array of shape \(4, 4, 6\), got 64$",
        ),
        (
            _reshape("singularity", lambda a: np.concatenate([a, a[:1]], axis=0)),
            r"singularity: expected 64 \(real parts\) or 128 \(re, im pairs\) float64 values "
            r"for a complex array of shape \(4, 4, 4\), got 80$",
        ),
        (
            _no_samples,
            r"probes: expected an array of shape \(P, 2\) with P >= 1, got shape \(0, 2\)$",
        ),
        (
            _as_list("symbols"),
            r"^symbols: expected a base64 string of float64 bytes, got list$",
        ),
        (
            _set_entry("symbols", (1, 0, 1, 0, 1, 0), math.nan),
            r"symbols: sample \(energy index, covector\) is not finite "
            r"at grid index \(0, 1\), sample \(1, 0\)",
        ),
        (
            _set_entry("singularity", (1, 2, 0, 1), math.inf),
            r"singularity: value is not finite at grid index \(1, 2\), sample \(0,\)",
        ),
        (
            _set_entry("probes", (1, 0), math.nan),
            r"probes: probe 1 \(nan, 1\.0\) is not finite",
        ),
        (
            _set_entry("probes", (2, 0), 1.0),
            r"probes: probe 2 \(1\.0, 0\.7071067811865475\) is not a unit vector",
        ),
        (_drop("probes"), r"come together or not at all; missing: probes$"),
        (_drop("singularity"), r"come together or not at all; missing: singularity$"),
        *(
            (
                _set("schema", f"scatjet.symbols/{old}"),
                rf"dataset schema 'scatjet.symbols/{old}' is no longer read; "
                r"re-run `scatjet forward` to write 'scatjet.symbols/8'",
            )
            for old in (1, 2, 3, 4, 5, 6, 7)
        ),
        (_set("scale_t", 1.0), r"scale_t=1.0 must be finite, positive and not 1"),
        (_set("scale_t", -2.0), r"scale_t=-2.0 must be finite, positive and not 1"),
        (_set("scale_t", "2"), r"^scale_t must be a number, got '2'$"),
        (_set("scale_t", True), r"^scale_t must be a number, got True$"),
        (_set("energies", [[True, 0.0], [5.0, 0.0]]), r"^energies entry must be a number, got True$"),
        (_set("energies", [[4.0, "0"], [5.0, 0.0]]), r"^energies entry must be a number, got '0'$"),
        (_set("energies", []), r"dataset has no energies"),
        (_set("grid_shape", [4, 0]), r"grid_shape \(4, 0\): axis 1 has 0 points"),
        (_set("grid_shape", [16]), r"grid_shape \(16,\) has 1 axes, expected n=2"),
        (_set("n", 2.9), r"^n must be an integer, got 2\.9$"),
        (_set("n", True), r"^n must be an integer, got True$"),
        (_set("grid_shape", [4.5, 4.2]), r"^grid_shape entry must be an integer, got 4\.5$"),
        (
            _set("singularity", 1.5),
            r"^singularity: expected a base64 string of float64 bytes, got float$",
        ),
        (
            # "-" belongs to the URL-safe alphabet, not the standard one
            _replace_char("symbols", 10, "-"),
            r"^symbols: not a base64 string of float64 bytes: Only base64 data is allowed$",
        ),
        (
            _extra_bytes("probes", 4),
            r"^probes: 68 bytes are not a whole number of 8-byte float64 values$",
        ),
    ],
    ids=[
        "missing-grid-index",
        "missing-covector",
        "unknown-covector",
        "sample-counts-differ",
        "omega-too-short",
        "omega-too-long",
        "singularity-key-off-grid",
        "no-samples",
        "malformed-pair",
        "nan-sample",
        "inf-singularity",
        "omega-not-finite",
        "omega-not-unit",
        "singularity-without-probes",
        "missing-singularity",
        "schema-1",
        "schema-2",
        "schema-3",
        "schema-4",
        "schema-5",
        "schema-6",
        "schema-7",
        "scale-t-one",
        "scale-t-negative",
        "scale-t-string",
        "scale-t-bool",
        "energy-bool",
        "energy-string",
        "no-energies",
        "grid-axis-zero",
        "grid-rank-not-n",
        "n-not-integer",
        "n-bool",
        "grid-shape-not-integer",
        "array-not-a-string",
        "non-base64-character",
        "bytes-not-whole-values",
    ],
)
def test_dataset_incomplete_or_non_finite(tmp_path, mutate, message):
    """Each way a file can be malformed ends in an IoError naming it, and exit 2."""
    _, ds = make_synthetic_pair(seed=4, n=2)
    data = ds.to_dict()
    mutate(data)
    with pytest.raises(IoError, match=message):
        SymbolDataset.from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["invert", "--data", str(path)]) == 2


def test_cli_process_invert_bad_dataset_exits_2(tmp_path):
    """A bad header or a malformed array ends in exit 2 with no traceback."""
    _, ds = make_synthetic_pair(seed=4, n=2)
    for field, value in (("scale_t", 1.0), ("singularity", 1.5)):
        data = ds.to_dict()
        data[field] = value
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(data))
        proc = run_scatjet("invert", "--data", str(path))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"ERROR scatjet.cli: {field}" in proc.stderr


# -- CLI: integrals ----------------------------------------------------------


def _read_json(path):
    return json.loads(path.read_text())


def test_cli_integrals_t2_matches_oracle(tmp_path):
    out = tmp_path / "t2.json"
    rc = main(["integrals", "--which", "T2", "--sigma", "2+0i", "--n", "1", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    got = decode_complex(payload["value"], "value")
    assert abs(got - t_oracle(2, 2.0, 1)) <= 1e-5
    assert payload["l"] == 2 and payload["converged"] is True
    assert payload["err"] < 1e-5 and payload["evals"] == 0  # closed form


def test_cli_integrals_j_takes_its_level_from_its_name(tmp_path):
    out = tmp_path / "j.json"
    rc = main(
        ["integrals", "--which", "J1", "--k", "1", "--sigma", "3+0i", "--n", "1", "--out", str(out)]
    )
    assert rc == 0
    payload = _read_json(out)
    assert payload["which"] == "J1" and payload["l"] == 1 and payload["k"] == 1
    assert decode_complex(payload["value"], "value").real > 0


@pytest.mark.parametrize("which", ["J", "I", "T", "t1", "GREEN", "green"])
def test_cli_integrals_take_one_spelling_each(which, capsys):
    """Only T1, T2, J1, J2, I1, I2 and G name an integral; any other spelling exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(["integrals", "--which", which, "--sigma", "2+0i", "--n", "1"])
    assert exc.value.code == 2
    assert f"argument --which: invalid choice: '{which}'" in capsys.readouterr().err


def test_cli_integrals_have_no_level_flag(capsys):
    """The level is the suffix of --which alone: --l is no option, so T2 --l 1 exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(["integrals", "--which", "T2", "--l", "1", "--sigma", "2+0i", "--n", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --l 1" in capsys.readouterr().err


def test_cli_integrals_green(tmp_path):
    out = tmp_path / "g.json"
    rc = main(
        ["integrals", "--which", "G", "--sigma", "2.5+0i", "--n", "2", "--s", "1.0", "--z", "0,0", "--out", str(out)]
    )
    assert rc == 0
    val = decode_complex(_read_json(out)["value"], "value")
    assert val == pytest.approx(2.0**-2.5 / (2 * math.pi), rel=1e-12)


def test_cli_integrals_error_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["integrals", "--which", "Q7", "--sigma", "2+0i", "--n", "1"])
    assert exc.value.code == 2
    # below the convergence gate: numeric-stage refusal, not a config problem
    assert main(["integrals", "--which", "T1", "--sigma", "0.9+0i", "--n", "1"]) == 1
    assert main(["integrals", "--which", "I1", "--sigma", "2+0i", "--n", "2", "--z", "1,2,3"]) == 2


@pytest.mark.parametrize(
    "extra",
    [
        ["--which", "I1", "--n", "1", "--z", "abc"],
        ["--which", "I1", "--n", "1", "--s", "-1"],
        ["--which", "T1", "--n", "4"],
        ["--which", "T1", "--n", "1", "--rel-tol", "0"],
        ["--which", "T1", "--n", "1", "--rel-tol", "nan"],
        ["--which", "T1", "--n", "1", "--rel-tol", "inf", "--abs-tol", "nan"],
    ],
    ids=["z-not-a-number", "negative-s", "n-too-large", "zero-rel-tol", "nan-rel-tol", "inf-nan-tols"],
)
def test_cli_integrals_bad_arguments_exit_2(extra):
    assert main(["integrals", "--sigma", "2+0i", *extra]) == 2


# -- CLI: forward / invert ---------------------------------------------------


def _write_patch(tmp_path, name, patch):
    """``patch`` as a patch file whose fields are explicit per-grid-point arrays."""
    spec = {
        "n": patch.n,
        "axes": list(patch.axes),
        "alpha": patch.alpha.tolist(),
        "v_jet": [v.tolist() for v in patch.v_jet],
        "h_jet": [h.tolist() for h in patch.h_jet],
    }
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return p


def test_cli_forward_invert_flow(tmp_path):
    h0 = np.diag([2.0, 1.0])
    # h^(1) chosen so that H = h0^-1 h^(1) h0^-1 is traceless: then the truth is
    # orthogonal to the fit's structural kernel and min-norm recovery is exact
    L = np.array([[0.5, 0.2], [0.2, -0.125]])
    path = _write_patch(tmp_path, "p.json", constant_patch(2, 1.1, 0.4, h0, v1=0.0, h1=L))
    ds_path = tmp_path / "ds.json"
    rc = main(
        [
            "forward",
            "--patch", str(path),
            "--lam", "4.0",
            "--lam", "5.0",
            "--out", str(ds_path),
        ]
    )
    assert rc == 0
    payload = _read_json(ds_path)
    assert payload["schema"] == "scatjet.symbols/8"
    # every block is a dataset field that load reads: no derived extras, no model factors
    assert set(payload) == {
        "schema", "n", "grid_shape", "scale_t", "energies", "symbols", "singularity", "probes",
    }

    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "fields.csv"
    rc = main(["invert", "--data", str(ds_path), "--out", str(report_path), "--csv", str(csv_path)])
    assert rc == 0
    report = _read_json(report_path)
    assert report["status"] == "ok"
    a2 = _unpacked(report["alpha_sq"], (4, 4))
    np.testing.assert_allclose(a2, 1.1**2, atol=1e-8)
    H = _unpacked(report["H"], (4, 4, 2, 2))
    want_H = np.linalg.solve(h0, np.linalg.solve(h0, L.T).T)
    np.testing.assert_allclose(H[0, 0], want_H, atol=1e-8)

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,alpha_sq,v0,sigma1_re,sigma1_im"
    assert len(lines) == 1 + 4 * 4  # default 4-per-axis grid


_PROBES_SHAPE = r"^--probes: expected an array of shape \(P, 2\) with P >= 1"
_NOT_NUMBERS = _PROBES_SHAPE + r", got values that are not an array of numbers"


@pytest.mark.parametrize(
    "probes,message",
    [
        ([[1.0, 1.0]], r"^--probes: probe 0 \(1.0, 1.0\) is not a unit vector$"),
        ([[1.0, 0.0, 0.0]], _PROBES_SHAPE + r", got shape \(1, 3\)$"),
        ([], _PROBES_SHAPE + r", got shape \(0,\)$"),
        ([[1.0]], _PROBES_SHAPE + r", got shape \(1, 1\)$"),
        ([[1.0, 0.0], [0.0, 1.0, 0.0]], _NOT_NUMBERS),
        ([[10**400, 0]], _NOT_NUMBERS),
    ],
    ids=["not-unit", "three-components", "empty", "one-component", "ragged", "int-past-double"],
)
def test_cli_forward_rejects_bad_probes(tmp_path, caplog, probes, message):
    path = _write_patch(tmp_path, "p.json", constant_patch(2, 1.1, 0.4, np.eye(2), v1=0.1))
    probe_path = tmp_path / "probes.json"
    probe_path.write_text(json.dumps(probes))
    out = tmp_path / "ds.json"
    argv = ["forward", "--patch", str(path), "--lam", "4.0", "--lam", "5.0"]
    assert main([*argv, "--probes", str(probe_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert any(re.search(message, r.getMessage()) for r in caplog.records)


def test_cli_forward_probes_need_first_order_jets(tmp_path, caplog):
    """--probes for a patch with no order-1 jets is refused, not dropped from the dataset."""
    p1 = _write_patch(tmp_path, "p1.json", constant_patch(2, 1.1, 0.4, np.eye(2)))
    probe_path = tmp_path / "probes.json"
    probe_path.write_text(json.dumps(default_probe_set(2).tolist()))
    out = tmp_path / "ds.json"
    argv = ["forward", "--patch", str(p1), "--lam", "4.0", "--lam", "5.0"]
    assert main([*argv, "--probes", str(probe_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert any(
        r.getMessage()
        == "probes given for a patch with no order-1 jets: there are no first-order samples"
        for r in caplog.records
    )


def test_cli_forward_refuses_order_one_entries_in_one_jet(tmp_path, caplog):
    """A patch with an order-1 potential jet but no order-1 metric jet exits 2, naming h_jet."""
    spec = {"n": 1, "axes": [4], "alpha": 1.0, "v_jet": [0.2, 0.1], "h_jet": [[[1.0]]]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "ds.json"
    argv = ["forward", "--patch", str(path), "--lam", "4.0", "--lam", "5.0", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert any(
        r.getMessage().startswith("the patch has no order-1 entry in h_jet") for r in caplog.records
    )


def test_cli_forward_has_no_second_patch(tmp_path, capsys):
    """The first-order samples come from the one patch: --patch2 is an unrecognized argument."""
    path = _write_patch(tmp_path, "p.json", constant_patch(2, 1.1, 0.4, np.eye(2)))
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--patch", str(path), "--patch2", str(path), "--lam", "4.0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --patch2" in capsys.readouterr().err


def test_cli_forward_requires_energy(tmp_path):
    p1 = _write_patch(tmp_path, "p1.json", constant_patch(1, 1.0, 0.0, np.eye(1)))
    assert main(["forward", "--patch", str(p1)]) == 2


def test_cli_missing_input_file(tmp_path, caplog):
    """Every input file is read by one reader: the same message, naming the path."""
    absent = tmp_path / "absent.json"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path, message in (
        (absent, f"input file not found: {absent}"),
        (bad, f"{bad} is not valid JSON"),
    ):
        caplog.clear()
        assert main(["forward", "--patch", str(path), "--lam", "4.0"]) == 2
        assert main(["invert", "--data", str(path)]) == 2
        got = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(got) == 2 and all(m.startswith(message) for m in got), got


def test_cli_invert_refused_energy(tmp_path, caplog):
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    ds = forward_dataset(
        patch, (ComplexEnergy(1j * math.sqrt(2.0)), ComplexEnergy(4.0))
    )
    ds_path = tmp_path / "ds.json"
    ds_path.write_text(canonical_json(ds.to_dict()))
    out = tmp_path / "report.json"
    csv = tmp_path / "fields.csv"
    argv = ["invert", "--data", str(ds_path), "--out", str(out), "--margin", "1e-3"]
    rc = main([*argv, "--csv", str(csv)])
    assert rc == 1
    # refused like every other stage: no report and no fields are written
    assert not out.exists() and not csv.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("[stage screen] energy "), errors


def test_cli_process_invert_refuses_an_energy_next_to_a_pole(tmp_path):
    """lambda^2 = 12 + 1e-7, 1e-7 from mode 4: exit 1, the screen's reason on stderr, no files."""
    patch = constant_patch(2, 1.0, 10.0, np.eye(2))
    energies = (ComplexEnergy(math.sqrt(12.0 + 1e-7)), ComplexEnergy(math.sqrt(11.0)))
    ds = forward_dataset(patch, energies)
    ds_path = tmp_path / "ds.json"
    ds_path.write_text(canonical_json(ds.to_dict()))
    out, csv = tmp_path / "report.json", tmp_path / "fields.csv"
    proc = run_scatjet("invert", "--data", str(ds_path), "--out", str(out), "--csv", str(csv))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert (
        f"ERROR scatjet.cli: [stage screen] energy {complex(math.sqrt(12.0 + 1e-7))}: lambda^2 "
        "within margin 1e-06 of omega-prime-mode k = 4 at grid index (0, 0) (distance 1.000e-07)\n"
    ) in proc.stderr
    assert not out.exists() and not csv.exists()


def test_cli_invert_fails_on_metrics_that_differ_across_energies(tmp_path, caplog):
    """Energy-0 symbols of one metric and energy-1 symbols of another: exit 1, no CSV."""
    energies = (ComplexEnergy(3.2), ComplexEnergy(4.5))
    a = forward_dataset(constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0])), energies)
    b = forward_dataset(constant_patch(2, 1.1, 0.4, np.diag([1.0, 3.0])), energies)
    ds = dataclasses.replace(a, symbols=np.concatenate([a.symbols[:, :, :1], b.symbols[:, :, 1:]], 2))
    ds_path = tmp_path / "ds.json"
    ds_path.write_text(canonical_json(ds.to_dict()))
    out = tmp_path / "report.json"
    csv = tmp_path / "fields.csv"
    rc = main(["invert", "--data", str(ds_path), "--out", str(out), "--csv", str(csv)])
    assert rc == 1
    assert not out.exists() and not csv.exists()
    want = "[stage metric] metric at energy index 1 differs from energy 0's"
    assert any(r.getMessage().startswith(want) for r in caplog.records)


@pytest.mark.parametrize("value", ["nan", "-2"])
def test_cli_invert_rejects_bad_known_alpha(tmp_path, caplog, value):
    """A known alpha^2 must be finite and positive, as the two-energy stage requires."""
    patch = constant_patch(2, 1.0, 0.2, np.eye(2))
    ds_path = tmp_path / "ds.json"
    ds_path.write_text(canonical_json(forward_dataset(patch, (ComplexEnergy(4.0),)).to_dict()))
    out = tmp_path / "report.json"
    assert main(["invert", "--data", str(ds_path), "--alpha-sq-known", value, "--out", str(out)]) == 2
    assert not out.exists()
    assert any(
        f"alpha_sq_known={float(value)} must be finite and positive" in r.getMessage()
        for r in caplog.records
    )


# -- CLI: sets ---------------------------------------------------------------


def test_cli_sets_admissibility(tmp_path):
    p1 = _write_patch(tmp_path, "p1.json", constant_patch(2, 1.0, 0.0, np.eye(2)))
    out = tmp_path / "sets.json"
    rc = main(
        [
            "sets",
            "--patch", str(p1),
            "--lam", "5i",
            "--lam", "1.4142135624i",
            "--margin", "0.1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    block = _read_json(out)
    assert block["interval_lambda_sq"] == [-2.0, -2.0]  # mode 0 = V0 - n^2/4 - alpha^2 n^2/4
    modes = _unpacked(block["modes_lambda_sq"], (*block["grid_shape"], -1))
    assert modes.shape == (4, 4, 3)  # K == 3: k = 0, 1, 2
    np.testing.assert_array_equal(modes[..., 0], -2.0)
    ok_flags = {tuple(c["lam"]): c["ok"] for c in block["admissibility"]}
    assert ok_flags[(0.0, 5.0)] is True  # lambda^2 = -25, far from everything
    assert ok_flags[(0.0, 1.4142135624)] is False  # lambda^2 = -2 is a mode value
    assert "zeros" not in block


@pytest.mark.parametrize("lam_sq", [7.0, 7.9])
def test_cli_sets_refuses_a_real_energy_on_the_branch_cut(tmp_path, lam_sq):
    """Below mode 0 (8 here) indicial_root raises BranchCut, so the screen refuses too."""
    patch = constant_patch(2, 1.0, 10.0, np.eye(2))
    p1 = _write_patch(tmp_path, "p.json", patch)
    out = tmp_path / "sets.json"
    lam = math.sqrt(lam_sq)
    assert main(["sets", "--patch", str(p1), "--lam", repr(lam), "--out", str(out)]) == 0
    (check,) = _read_json(out)["admissibility"]
    assert check["ok"] is False
    assert "is on the branch cut at grid index (0, 0)" in check["reason"]
    with pytest.raises(BranchCut):
        indicial_root(patch, ComplexEnergy(lam))


@pytest.mark.parametrize("command", ["sets-lam", "sets-exclude"])
def test_cli_non_finite_complex_argument_exits_2(tmp_path, caplog, command):
    """A NaN or infinite energy is refused before anything is written."""
    patch = _write_patch(tmp_path, "p.json", constant_patch(2, 1.0, 0.0, np.eye(2)))
    argv, text = {
        "sets-lam": (["sets", "--patch", str(patch), "--lam", "nan"], "nan"),
        "sets-exclude": (["sets", "--patch", str(patch), "--exclude", "nan", "--lam", "2"], "nan"),
    }[command]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert any(
        r.getMessage() == f"complex number '{text}' is not finite" for r in caplog.records
    )


@pytest.mark.parametrize("case", ["sigma-no-first-order", "sigma-first-order", "first-order-fit"])
def test_cli_invert_overflow_exits_1(tmp_path, caplog, case):
    """Finite input that overflows inside a stage ends in that stage's error, exit 1."""
    _, ds = make_synthetic_pair(seed=3, n=2)
    if case == "sigma-no-first-order":
        ds = dataclasses.replace(ds, singularity=None, probes=None)
    argv = ["invert", "--data", str(tmp_path / "ds.json"), "--out", str(tmp_path / "out.json")]
    if case == "first-order-fit":
        ds = dataclasses.replace(ds, singularity=np.full_like(ds.singularity, 1e308))
        expected = (
            "[stage first-order] fitted H, W1 or fit residual leaves double range "
            "(residual inf) at grid index (0, 0)"
        )
    else:
        ds = dataclasses.replace(ds, symbols=ds.symbols * 1e308)
        expected = "[stage sigma] recovered covector norm nan is not finite"
    (tmp_path / "ds.json").write_text(canonical_json(ds.to_dict()))
    assert main(argv) == 1
    assert not (tmp_path / "out.json").exists()
    assert any(r.getMessage().startswith(expected) for r in caplog.records)


# forward runs whose numbers leave double range on the patches of
# ``_with_patches``: a huge energy's q; a symbol past range at a
# sigma - n/2 beyond 2^52, where every double is an integer, so no Gamma
# pole may be named; and overflowing first-order samples
_FORWARD_OVERFLOWS = [
    (
        ["forward", "--patch", "{alpha_half}", "--lam", "1e154"],
        1,
        "energy (1e+154+0j): (sigma - n/2)^2 = inf+0.000e+00j leaves double range "
        "at grid index (0, 0)",
    ),
    *(
        (
            ["forward", "--patch", patch, "--lam", "1e120"],
            1,
            "principal symbol at energy index 0, covector (1.0, 0.0) leaves double range "
            "at grid index (0, 0), sample (0, 0, 0)",
        )
        for patch in ("{alpha_half}", "{alpha_one}")
    ),
    *(
        (
            ["forward", "--patch", patch, "--lam", "4", "--lam", "5"],
            1,
            "singularity coefficient at probe (1.0, 0.0) leaves double range "
            "at grid index (0, 0), sample (0,)",
        )
        for patch in ("{huge_first_order}", "{huge_trace}")
    ),
]
_FORWARD_OVERFLOW_IDS = [
    "forward-q-overflow",
    "forward-no-pole-past-2^52-alpha-half",
    "forward-no-pole-past-2^52-alpha-one",
    "forward-singularity-overflow",
    "forward-trace-overflow",
]


def _with_patches(tmp_path, argv):
    """``argv`` with its patch placeholders filled, and a ``--patch`` for ``sets`` or ``forward``.

    A ``sets`` or ``forward`` run that names no patch gets ``alpha_one``.
    The patches are constant on a 4 x 4 grid with ``V0 = 0.2`` and
    ``h^(0) = I``: ``alpha_one`` (alpha = 1, zero first-order jets),
    ``alpha_half`` (alpha = 0.5, no first-order jets), and two with
    ``alpha_one``'s zeroth order whose first-order samples overflow:
    ``huge_first_order`` (``V^(1) = 1e308``, ``h^(1) = diag(1e308, -1e308)``)
    and ``huge_trace`` (``h^(1) = diag(1e308, 1e308)``, whose trace overflows).
    """
    patches = {
        "alpha_one": constant_patch(2, 1.0, 0.2, np.eye(2), v1=0.0, h1=np.zeros((2, 2))),
        "alpha_half": constant_patch(2, 0.5, 0.2, np.eye(2)),
        "huge_first_order": constant_patch(
            2, 1.0, 0.2, np.eye(2), v1=1e308, h1=np.diag([1e308, -1e308])
        ),
        "huge_trace": constant_patch(2, 1.0, 0.2, np.eye(2), v1=0.0, h1=np.diag([1e308, 1e308])),
    }
    paths = {k: str(_write_patch(tmp_path, f"{k}.json", p)) for k, p in patches.items()}
    argv = [a.format(**paths) for a in argv]
    if argv[0] in ("sets", "forward") and "--patch" not in argv:
        argv += ["--patch", paths["alpha_one"]]
    return argv


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (
            ["integrals", "--which", "T1", "--sigma", "1e308", "--n", "2"],
            1,
            "T_1 at sigma=(1e+308+0j), n=2: the closed form leaves double range",
        ),
        (
            ["integrals", "--which", "I1", "--sigma", "1e308", "--n", "2"],
            1,
            "I_1 at sigma=(1e+308+0j), s=1.0, n=2: the front factor (nan+nanj) leaves double range",
        ),
        (
            ["integrals", "--which", "T1", "--sigma", "2+1e300i", "--n", "2"],
            1,
            "T_1 at sigma=(2+1e+300j), n=2: closed-form rounding bound 9.623e+287 above tolerance",
        ),
        (
            ["integrals", "--which", "G", "--sigma", "1e10", "--n", "2"],
            1,
            "G at sigma=(10000000000+0j): value (nan+nanj) (error 0.0) is not finite",
        ),
        (
            ["integrals", "--which", "G", "--sigma", "1.5", "--n", "1", "--s", "1e-320"],
            1,
            "G at sigma=(1.5+0j): value 0j (error 0.0) underflows to zero in double precision",
        ),
        (
            ["integrals", "--which", "G", "--sigma=-1e20", "--n", "2"],
            1,
            "G at sigma=(-1e+20+0j): value (nan+nanj) (error 0.0) is not finite",
        ),
        (
            ["integrals", "--which", "G", "--sigma", "5.3", "--n", "4", "--z", "0"],
            2,
            "integrals: n must be 1..3 (the supported boundary dimensions)",
        ),
        *(
            (
                ["integrals", "--which", which, "--sigma", "2", "--n", "0"],
                2,
                "integrals: n must be 1..3 (the supported boundary dimensions)",
            )
            for which in ("G", "I1")
        ),
        *(
            (
                ["integrals", "--which", "G", "--sigma", "1.5", "--n", "1", f"--{name}", value],
                2,
                f"integrals: {message}",
            )
            for name, value, message in (
                ("s", "nan", "s = nan must be positive and finite"),
                ("s", "inf", "s = inf must be positive and finite"),
                ("z", "nan", "z = [nan] is not finite"),
                ("z", "inf", "z = [inf] is not finite"),
            )
        ),
        (
            ["integrals", "--which", "I1", "--sigma", "1e200", "--n", "1", "--s", "1", "--z", "0"],
            1,
            "I_1 at sigma=(1e+200+0j), s=1.0, n=1: the rule has no panel, so no node is evaluated",
        ),
        (
            ["integrals", "--which", "I1", "--sigma", "2.5", "--n", "1", "--s", "0.5", "--z", "3"]
            + ["--rel-tol", "1e-300", "--abs-tol", "1e-300"],
            1,
            "I_1 at sigma=(2.5+0j), s=0.5, n=1: error estimate 1.028e-15 above tolerance "
            "1.000e-300, which is below the rule's rounding bound",
        ),
        (["sets", "--lam", "1e200"], 2, "energy (1e+200+0j): lambda^2 = (inf+0j) is not finite"),
        (
            ["sets", "--k-max", "10000000000000"],
            2,
            "k_max = 10000000000000 asks for a modes array of shape (4, 4, 10000000000001), "
            "160000000000016 values, above the 33554432 allowed",
        ),
        (["forward", "--lam", "1e200"], 2, "energy (1e+200+0j): lambda^2 = (inf+0j) is not finite"),
        (["forward", "--lam", "4", "--scale-t", "nan"], 2, "scale_t=nan must be finite, positive"),
        (["forward", "--lam", "4", "--scale-t", "inf"], 2, "scale_t=inf must be finite, positive"),
        (["forward", "--lam", "4", "--scale-t", "0"], 2, "scale_t=0.0 must be finite, positive"),
        (
            ["forward", "--lam", "4", "--scale-t", "1e-320"],
            1,
            "principal symbol at energy index 0, covector (1e-320, 0.0) underflows to zero "
            "at grid index (0, 0), sample (0, 0, 1)",
        ),
        *_FORWARD_OVERFLOWS,
    ],
    ids=[
        "integrals-t1",
        "integrals-i",
        "integrals-t1-rounding",
        "integrals-green",
        "integrals-green-underflow",
        "integrals-green-no-pole-past-2^52",
        "integrals-green-n-4",
        "integrals-green-n-0",
        "integrals-i-n-0",
        "integrals-green-s-nan",
        "integrals-green-s-inf",
        "integrals-green-z-nan",
        "integrals-green-z-inf",
        "integrals-i-no-panel",
        "integrals-i-rounding",
        "sets-lam",
        "sets-k-max-modes-array",
        "forward-lam",
        "forward-scale-t-nan",
        "forward-scale-t-inf",
        "forward-scale-t-zero",
        "forward-symbol-underflow",
        *_FORWARD_OVERFLOW_IDS,
    ],
)
def test_cli_value_past_double_precision(tmp_path, caplog, argv, code, message):
    """Arguments whose results leave double range: a named error, no NaN or zero written.

    A scale_t that no dataset header allows is refused before any sampling.
    """
    argv = _with_patches(tmp_path, argv)
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == code
    assert not out.exists()
    assert any(r.getMessage().startswith(message) for r in caplog.records)


_HUGE_AXES = [10**6] * 3


@pytest.mark.parametrize(
    "argv,message",
    [
        *(
            (
                [command, "--patch", "{huge_axes}", *extra],
                "the patch's axes ask for metric fields of shape (1000000, 1000000, 1000000, 3, 3), "
                "9000000000000000000 values, above the 33554432 allowed",
            )
            for command, extra in (("sets", []), ("forward", ["--lam", "4"]))
        ),
    ],
    ids=["sets-huge-axes", "forward-huge-axes"],
)
def test_cli_input_sized_array_past_the_bound_exits_2(tmp_path, caplog, argv, message):
    """An array sized by the input past MAX_ARRAY_VALUES is refused, by size, before allocation."""
    identity = np.eye(3).tolist()
    spec = {"n": 3, "axes": _HUGE_AXES, "alpha": 1.0, "v_jet": [0.0], "h_jet": [identity]}
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(spec))
    out = tmp_path / "out.json"
    assert main([*(a.format(huge_axes=huge) for a in argv), "--out", str(out)]) == 2
    assert not out.exists()
    assert any(r.getMessage() == message for r in caplog.records)


_IDENTITY_2 = [[1, 0], [0, 1]]


@pytest.mark.parametrize("command", [["sets"], ["forward", "--lam", "4"]], ids=["sets", "forward"])
@pytest.mark.parametrize(
    "field,value,message",
    [
        (
            "h_jet",
            [[[1, 0], [0]]],
            "malformed patch field h_jet[0]: ValueError: setting an array element with a sequence",
        ),
        ("alpha", {"a": 1}, "alpha must be a number, got {'a': 1}"),
        (
            "alpha",
            "-" * 3000 + "1",
            "malformed patch field alpha: RecursionError: maximum recursion depth exceeded",
        ),
        ("h_jet", [{"a": 1}], "h_jet[0] must be a 2x2 nest or an array of shape (4, 4, 2, 2)"),
        ("v_jet", "0.5", "patch field v_jet must be a list, got '0.5'"),
        ("v_jet", 0.5, "patch field v_jet must be a list, got 0.5"),
        ("v_jet", {"0": 0.5}, "patch field v_jet must be a list, got {'0': 0.5}"),
        ("h_jet", "[[1, 0], [0, 1]]", "patch field h_jet must be a list, got '[[1, 0], [0, 1]]'"),
    ],
    ids=[
        "h-jet-ragged",
        "alpha-object",
        "alpha-expression-too-deep",
        "h-jet-entry-object",
        "v-jet-string",
        "v-jet-number",
        "v-jet-object",
        "h-jet-string",
    ],
)
def test_cli_malformed_patch_field_exits_2_naming_it(
    tmp_path, caplog, command, field, value, message
):
    """A patch field of the wrong JSON type is a ConfigError naming the field, exit 2, no output."""
    spec = {"n": 2, "axes": [4, 4], "alpha": 1.0, "v_jet": [0.2], "h_jet": [_IDENTITY_2]}
    path = tmp_path / "patch.json"
    path.write_text(json.dumps({**spec, field: value}))
    out = tmp_path / "out.json"
    assert main([*command, "--patch", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert [r.getMessage()[: len(message)] for r in caplog.records if r.levelname == "ERROR"] == [
        message
    ]


_FIRST_ORDER_2 = {
    "n": 2, "axes": [4, 4], "alpha": 1.0, "v_jet": [0.2, 0.0], "h_jet": [_IDENTITY_2, _IDENTITY_2]
}
_ALPHA_BOOL = "alpha must be a number, got True"


@pytest.mark.parametrize(
    "command,change,message",
    [
        (["sets"], {"alpha": True}, _ALPHA_BOOL),
        (["sets"], {"v_jet": [False]}, "v_jet[0] must be a number, got False"),
        (["sets"], {"h_jet": [[[True, 0], [0, 1]]]}, "h_jet[0][0][0] must be a number, got True"),
        (["sets"], {"alpha": [[1.0] * 4] * 3 + [[1.0, True, 1.0, 1.0]]}, _ALPHA_BOOL),
        (["sets"], {"alpha": "True"}, "alpha: non-numeric literal True in 'True'"),
        (["sets"], {"v_jet": ["2*False+1"]}, "v_jet[0]: non-numeric literal False in '2*False+1'"),
        (["sets"], {"alpha": None}, "alpha must be a number, got None"),
        (["sets"], {"extra": 1}, "patch key 'extra' is not in the patch schema"),
        (["forward", "--lam", "4"], {"alpha": True}, _ALPHA_BOOL),
        (
            ["forward", "--lam", "4", "--probes", "probes.json"],
            {},
            "--probes: probe entry must be a number, got True",
        ),
    ],
    ids=[
        "sets-alpha-bool",
        "sets-v-jet-bool",
        "sets-h-jet-entry-bool",
        "sets-bool-in-raw-array",
        "sets-expression-true",
        "sets-expression-false",
        "sets-alpha-null",
        "sets-unknown-key",
        "forward-alpha-bool",
        "forward-probes-bool",
    ],
)
def test_cli_patch_and_probes_take_numbers_alone(
    tmp_path, monkeypatch, caplog, command, change, message
):
    """A JSON boolean or null where a number goes, or a key the patch schema does not
    define, is a ConfigError naming it: exit 2 and no output."""
    monkeypatch.chdir(tmp_path)
    Path("patch.json").write_text(json.dumps({**_FIRST_ORDER_2, **change}))
    Path("probes.json").write_text(json.dumps([[True, False], [False, True]] * 2))
    assert main([*command, "--patch", "patch.json", "--out", "out.json"]) == 2
    assert not Path("out.json").exists()
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [message]


_STRINGS = [["1"] * 4] * 4  # a grid array of strings where numbers go
_NEST_OR_ARRAY = "must be a 2x2 nest or an array of shape (4, 4, 2, 2)"
_NAMED_REFUSALS = {
    # a string inside an array is not a number
    "alpha-strings": ({"alpha": _STRINGS}, "alpha must be a number, got '1'"),
    "v-jet-strings": ({"v_jet": [_STRINGS, 0.0]}, "v_jet[0] must be a number, got '1'"),
    "h-jet-raw-strings": (
        {"h_jet": [_IDENTITY_2, np.full((4, 4, 2, 2), "1").tolist()]},
        "h_jet[1] must be a number, got '1'",
    ),
    "h-jet-entry-strings": (
        {"h_jet": [[[_STRINGS, 0], [0, 1]], _IDENTITY_2]},
        "h_jet[0][0][0] must be a number, got '1'",
    ),
    # None: the patch is valid, and the strings are in the --probes file
    "probes-strings": (None, "--probes: probe entry must be a number, got '1'"),
    # the expression grammar's refusals
    "grammar-literal": ({"alpha": "True"}, "alpha: non-numeric literal True in 'True'"),
    "grammar-range": (
        {"v_jet": ["1e400", 0.0]},
        "v_jet[0]: literal 1e400 in '1e400' is past double range",
    ),
    "grammar-call": (
        {"h_jet": [[[1, 0], [0, "foo(y1)"]], _IDENTITY_2]},
        "h_jet[0][1][1]: unsupported call in 'foo(y1)'",
    ),
    # a value of the wrong shape
    "shape": ({"v_jet": [0.2, [1, 2]]}, "v_jet[1] has shape (2,), expected (4, 4)"),
    "nest": ({"h_jet": [_IDENTITY_2, [[1, 0], [0, 1], [0, 0]]]}, f"h_jet[1] {_NEST_OR_ARRAY}"),
}


@pytest.mark.parametrize(
    "command,case",
    [
        (command, case)
        for command in (["sets"], ["forward", "--lam", "4"])
        for case in _NAMED_REFUSALS
        if command[0] == "forward" or case != "probes-strings"  # sets takes no --probes
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_cli_patch_value_refusals_name_their_field(tmp_path, monkeypatch, caplog, command, case):
    """A string inside an array, a grammar refusal and a value of the wrong shape each exit 2
    with a message that names the field: every number passes one rule, every refusal one form."""
    change, message = _NAMED_REFUSALS[case]
    monkeypatch.chdir(tmp_path)
    Path("patch.json").write_text(json.dumps({**_FIRST_ORDER_2, **(change or {})}))
    probes = ["--probes", "probes.json"] if change is None else []
    Path("probes.json").write_text(json.dumps([["1", "0"], ["0", "1"]]))
    assert main([*command, *probes, "--patch", "patch.json", "--out", "out.json"]) == 2
    assert not Path("out.json").exists()
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [message]


def test_cli_process_patch_expression_warns_nothing_raw(tmp_path):
    """An expression that leaves double range ends in the named refusal alone, exit 2."""
    for expr in ("exp(1000)", "1e308*10", "(-1)**0.5", "1/(y1-y1)"):
        spec = {"n": 1, "axes": [4], "alpha": 1.0, "v_jet": [expr], "h_jet": [[[1.0]]]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        proc = run_scatjet("sets", "--patch", str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "ERROR scatjet.cli: v_jet[0] is not finite at grid index (0,)\n"


def test_cli_integrals_i_underflow_exits_1(tmp_path, caplog):
    """An I whose rule underflows at every node is refused, not written as zero."""
    out = tmp_path / "out.json"
    argv = ["integrals", "--which", "I1", "--sigma", "30", "--s", "1e10", "--z", "1.0"]
    assert main([*argv, "--n", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert any(
        r.getMessage()
        == "I_1 at sigma=(30+0j), s=10000000000.0, n=1: the integrand underflows at every node "
        "of the rule, so its zero sum is no value"
        for r in caplog.records
    )


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["integrals", "--which", "T1", "--sigma", "1e308", "--n", "2"], 1, ""),
        *_FORWARD_OVERFLOWS,
    ],
    ids=["integrals-t1", *_FORWARD_OVERFLOW_IDS],
)
def test_cli_process_overflow_warns_nothing_raw(tmp_path, argv, code, message):
    """An overflow inside numpy ends in the named error alone: no RuntimeWarning on stderr."""
    out = tmp_path / "out.json"
    proc = run_scatjet(*_with_patches(tmp_path, argv), "--out", str(out))
    assert proc.returncode == code, proc.stderr
    assert f"ERROR scatjet.cli: {message}" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


def test_cli_process_symbol_past_double_range_exits_1(tmp_path):
    """A finite energy whose symbol leaves double range: a numeric failure, no raw warning."""
    patch = _write_patch(tmp_path, "p.json", constant_patch(2, 1.0, 0.2, np.eye(2)))
    out = tmp_path / "ds.json"
    proc = run_scatjet("forward", "--patch", str(patch), "--lam=-2.5e3-1e2j", "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert (
        "ERROR scatjet.cli: principal symbol at energy index 0, covector (1.0, 0.0) leaves "
        "double range at grid index (0, 0), sample (0, 0, 0)\n"
    ) in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


def test_cli_process_i_knee_past_double_range_exits_1():
    """|z|^2 past double range: a named numeric failure, exit 1, no raw warning."""
    argv = ["integrals", "--which", "I1", "--sigma", "2.5", "--s", "1e-3", "--n", "1"]
    proc = run_scatjet(*argv, "--z", "1e160")
    assert proc.returncode == 1, proc.stderr
    assert (
        "ERROR scatjet.cli: I_1 at sigma=(2.5+0j), s=0.001, n=1: the rule's knee "
        "min(s^2, 1) / (1 + s^2 + |z|^2) leaves double range (|z| = 1e+160)\n"
    ) in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    # |z|^2 = 1e300 is still in range
    proc = run_scatjet(*argv, "--z", "1e150")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == [2.0697058887075116e-308, 0.0]


def _reject_constant(name):
    raise ValueError(f"bare {name} in JSON output")


_COMPLEX_TEXT = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "infinity", "1e400", "-1e400i", "nan+1i", "1+infi", "", " ", "i"]
        + ["2+", "(", "1e-400", "0", "1e308", "4", "3+0.5i", "5i", "-2.5e3-1e2j"]
    ),
    st.text(alphabet="0123456789+-.eEijnaf ()", max_size=10),
    st.text(max_size=6),
)

_COMMANDS = {
    "sets-lam": lambda d, text: ["sets", "--patch", str(d / "p.json"), f"--lam={text}"],
    "sets-exclude": lambda d, text: [
        "sets", "--patch", str(d / "p.json"), f"--exclude={text}", "--lam=2"
    ],
    "forward-lam": lambda d, text: ["forward", "--patch", str(d / "p.json"), f"--lam={text}"],
    "integrals-sigma": lambda d, text: [
        "integrals", "--which", "T1", f"--sigma={text}", "--n", "2"
    ],
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A patch ``p.json`` and a dataset ``ds.json`` with first-order data."""
    d = tmp_path_factory.mktemp("cli")
    _write_patch(d, "p.json", constant_patch(2, 1.0, 0.2, np.eye(2)))
    (d / "ds.json").write_text(canonical_json(make_synthetic_pair(seed=3, n=2)[1].to_dict()))
    return d


def _run_main(argv):
    """``main``'s exit code, argparse's ``SystemExit`` included; any other exception escapes."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(sorted(_COMMANDS)), text=_COMPLEX_TEXT)
def test_cli_malformed_complex_argument_never_escapes(cli_inputs, command, text):
    """Exit 2 for text that is not a finite complex number; otherwise 0, 1 or 2 and strict JSON."""
    try:
        parse_complex(text)
        parses = True
    except ConfigError:
        parses = False
    out = cli_inputs / "out.json"
    out.unlink(missing_ok=True)
    rc = _run_main([*_COMMANDS[command](cli_inputs, text), "--out", str(out)])
    assert rc in (0, 1, 2)
    if not parses:
        assert rc == 2 and not out.exists()
    if rc == 0:
        json.loads(out.read_text(), parse_constant=_reject_constant)


@settings(max_examples=15, deadline=None)
@given(entry=st.integers(0, 2 * 4 * 4 * 3 * 2 - 1), exponent=st.integers(1, 400))
def test_cli_invert_overflowing_entry_never_escapes(cli_inputs, entry, exponent):
    """One complex symbol entry scaled by 10**exponent (inf past 1e308): exit 1 or 2."""
    data = _read_json(cli_inputs / "ds.json")
    factor = float(f"1e{exponent}")

    def scale(arr):
        arr[2 * entry : 2 * entry + 2] *= factor

    _edit_packed(data, "symbols", scale)
    path = cli_inputs / "scaled.json"
    path.write_text(json.dumps(data))
    out = cli_inputs / "out.json"
    assert _run_main(["invert", "--data", str(path), "--out", str(out)]) in (1, 2)


# -- CLI: argument ranges -----------------------------------------------------


_MARGIN_NOT_NEGATIVE = "argument --margin: must be at least 0, got -1"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["invert", "--data", "ds.json", "--margin", "-1"], _MARGIN_NOT_NEGATIVE),
        (["sets", "--patch", "p.json", "--margin", "-1"], _MARGIN_NOT_NEGATIVE),
        (["sets", "--patch", "p.json", "--k-max", "-1"], "argument --k-max: must be at least 0, got -1"),
        (["sets", "--patch", "p.json", "--margin", "wide"], "invalid float value: 'wide'"),
        (["verify", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
        (["roundtrip", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
        (["roundtrip", "--seed", "7", "--tol", "nan"], "argument --tol: must be at least 0, got nan"),
        (["roundtrip", "--seed", "7", "--tol", "-0.5"], "argument --tol: must be at least 0, got -0.5"),
        (["roundtrip", "--seed", "7", "--tol", "inf"], "argument --tol: must be finite, got inf"),
        (["invert", "--data", "ds.json", "--margin", "inf"], "argument --margin: must be finite, got inf"),
        (["sets", "--patch", "p.json", "--margin", "inf"], "argument --margin: must be finite, got inf"),
    ],
    ids=[
        "invert-margin",
        "sets-margin",
        "sets-k-max",
        "margin-not-a-number",
        "verify-seed-negative",
        "roundtrip-seed-negative",
        "roundtrip-tol-nan",
        "roundtrip-tol-negative",
        "roundtrip-tol-inf",
        "invert-margin-inf",
        "sets-margin-inf",
    ],
)
def test_cli_out_of_range_argument_exits_2(capsys, argv, message):
    """An out-of-range argument exits 2 with argparse's message, before any file is read."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


_SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
# the options of each subcommand that take a value (flags have nargs 0)
_VALUE_OPTIONS = {
    command: [a for a in parser._actions if a.option_strings and a.nargs != 0]
    for command, parser in _SUBCOMMANDS.items()
}


@pytest.mark.parametrize(
    "command,option",
    [(c, a.option_strings[0]) for c, actions in _VALUE_OPTIONS.items() for a in actions],
)
def test_cli_option_given_two_dashes_exits_2(tmp_path, monkeypatch, capsys, command, option):
    """``--name=--`` is refused by name, exit 2, for every option that takes a value.

    argparse would hand the option an empty list, past its ``type`` and ``choices``.
    """
    monkeypatch.chdir(tmp_path)  # a run that went on would write here
    # the other required options get a value, so that only ``option`` is wrong
    required = [
        token
        for a in _VALUE_OPTIONS[command]
        if a.required and option not in a.option_strings
        for token in (a.option_strings[0], "1")
    ]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, f"{option}=--"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: expected one argument, got '--'" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# -- CLI: verify -------------------------------------------------------------


def test_cli_verify_green(capsys):
    """The finite-difference study is gone: ``verify green`` is an argparse error, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "green"])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: green" in capsys.readouterr().err


def test_cli_verify_all(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--seed", "0", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert names == {"indicial-identity", "symbol-homogeneity", "model-ode-symbol"}


def test_cli_verify_fails_when_the_solve_misses_the_symbol(tmp_path, monkeypatch):
    """A solve 1e-9 off the symbol fails ``model-ode-symbol``, and ``verify`` exits 1."""
    solve = cli.frobenius_ratio
    monkeypatch.setattr(cli, "frobenius_ratio", lambda sigma, n: solve(sigma, n) * (1 + 1e-9))
    out = tmp_path / "verify.json"
    assert main(["verify", "--seed", "0", "--out", str(out)]) == 1
    payload = _read_json(out)
    assert payload["ok"] is False
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["model-ode-symbol"]["pass"] is False
    assert checks["model-ode-symbol"]["metric"] > 1e-10
    assert checks["indicial-identity"]["pass"] and checks["symbol-homogeneity"]["pass"]


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


def _stage_names(stderr):
    """The stages of the JSON timing lines on stderr, in order; each line must parse."""
    records = [json.loads(line) for line in stderr.splitlines() if line.startswith("{")]
    for record in records:
        assert set(record) == {"seconds", "stage"} and record["seconds"] >= 0.0
    return [record["stage"] for record in records]


_DRIVER_STAGES = ["sigma", "metric", "zeroth-order", "screen", "first-order"]


def test_cli_process_verbose_logs_stage_times(tmp_path):
    """``--verbose`` logs one JSON line per stage on stderr and changes no output byte."""
    runs = {}
    for name, flags in (("quiet", []), ("verbose", ["--verbose"])):
        d = tmp_path / name
        d.mkdir()
        proc = run_scatjet(*flags, "roundtrip", "--seed", "7", "--n", "2", "--out-dir", str(d))
        assert proc.returncode == 0, proc.stderr
        runs[name] = proc
    assert _stage_names(runs["quiet"].stderr) == []
    assert _stage_names(runs["verbose"].stderr) == [
        "forward", "encode", "decode", *_DRIVER_STAGES, "report-encode"
    ]
    report = (tmp_path / "quiet" / "report.json").read_bytes()
    assert (tmp_path / "verbose" / "report.json").read_bytes() == report

    out = tmp_path / "report.json"
    proc = run_scatjet(
        "--verbose", "invert", "--data", str(tmp_path / "quiet" / "dataset.json"), "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    assert _stage_names(proc.stderr) == ["decode", *_DRIVER_STAGES, "report-encode"]
    assert out.read_bytes() == report  # roundtrip inverts what its dataset file holds

    patch = _write_patch(tmp_path, "p.json", constant_patch(2, 1.0, 0.2, np.eye(2)))
    argv = ["--verbose", "forward", "--patch", str(patch), "--lam", "4", "--lam", "5"]
    proc = run_scatjet(*argv, "--out", str(tmp_path / "ds.json"))
    assert proc.returncode == 0, proc.stderr
    assert _stage_names(proc.stderr) == ["forward", "encode"]


def test_cli_roundtrip_missing_dir(tmp_path):
    assert main(["roundtrip", "--seed", "7", "--out-dir", str(tmp_path / "void")]) == 2


def test_cli_process_roundtrip_missing_dir(tmp_path):
    proc = run_scatjet("roundtrip", "--seed", "7", "--out-dir", str(tmp_path / "void"))
    assert proc.returncode == 2, proc.stderr


def _io_failure_cases(tmp_path):
    """``(argv, message)``: a CLI call whose named input or output path cannot be used."""
    data = tmp_path / "ds.json"
    data.write_text(canonical_json(make_synthetic_pair(seed=3, n=2)[1].to_dict()))
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00{}")
    missing = tmp_path / "void"
    report = ["--out", str(tmp_path / "r.json")]
    return {
        "invert-data-dir": (["invert", "--data", str(a_dir)], f"cannot read {a_dir}: Is a directory"),
        "invert-data-not-text": (
            ["invert", "--data", str(binary)],
            f"cannot read {binary}: 'utf-8' codec can't decode byte 0xff",
        ),
        "forward-patch-dir": (
            ["forward", "--patch", str(a_dir), "--lam", "4"],
            f"cannot read {a_dir}: Is a directory",
        ),
        "invert-out-missing-dir": (
            ["invert", "--data", str(data), "--out", str(missing / "r.json")],
            f"cannot write {missing / 'r.json'}: No such file or directory",
        ),
        "invert-csv-missing-dir": (
            ["invert", "--data", str(data), *report, "--csv", str(missing / "r.csv")],
            f"cannot write {missing / 'r.csv'}: No such file or directory",
        ),
        "roundtrip-out-dir-file": (
            ["roundtrip", "--seed", "7", "--out-dir", str(a_file)],
            f"cannot write {a_file / 'dataset.json'}: Not a directory",
        ),
    }


@pytest.mark.parametrize(
    "case",
    [
        "invert-data-dir",
        "invert-data-not-text",
        "forward-patch-dir",
        "invert-out-missing-dir",
        "invert-csv-missing-dir",
        "roundtrip-out-dir-file",
    ],
)
def test_cli_process_io_failure_exits_2(tmp_path, case):
    """A path that cannot be read or written ends in a named error and exit 2, no traceback."""
    argv, message = _io_failure_cases(tmp_path)[case]
    proc = run_scatjet(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"ERROR scatjet.cli: {message}" in proc.stderr
