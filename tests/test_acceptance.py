"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``-s`` or
in the captured output on failure) summarizing the measured margin, then
asserts.  Tolerances and case counts here are the package's advertised
contract; do not loosen them to make a failure go away.
"""
import cmath
import functools
import math

import numpy as np
import pytest

from scatjet.boundary_jets import BoundaryPatch, ComplexEnergy, indicial_root, indicial_v0
from scatjet.errors import BranchCut
from scatjet.forward_scattering import default_probe_set, principal_symbol
from scatjet.hyperbolic_model import HalfSpaceGrid, green_residual_convergence
from scatjet.inversion import (
    first_order_recovery,
    layer_strip_driver,
)
from scatjet.model_quadrature import (
    QuadratureSpec,
    i_full_integral,
    j_converges,
    j_integral,
    t_limit_integral,
)
from scatjet.spectral_sets import exceptional_set, is_admissible
from scatjet.synthetic import constant_patch, forward_dataset, make_synthetic_pair

from cli_process import run_scatjet
from oracles import j_oracle, t_oracle, wrong_sign_green_residual


def _criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException as exc:  # print the line even when we blow up
                print(f"[FAIL] {num}. {title}: {type(exc).__name__}: {exc}")
                raise
            print(f"[PASS] {num}. {title}: {detail}")

        return run

    return wrap


@_criterion(1, "indicial identity and principal branch on 100 random configurations")
def test_acceptance_indicial_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        shape = (4,) * n
        patch = BoundaryPatch(
            n=n,
            axes=shape,
            alpha=rng.uniform(0.5, 2.0, size=shape),
            v_jet=(rng.uniform(-1.0, 1.0, size=shape),),
            h_jet=(np.tile(np.eye(n), shape + (1, 1)),),
        )
        if rng.uniform() < 0.5:
            lam = complex(rng.uniform(2.0, 6.0))
        else:
            lam = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.5, 3.0))
        en = ComplexEnergy(lam)
        sigma = indicial_root(patch, en)
        assert np.all(sigma.real >= n / 2.0 - 1e-12)
        res = np.abs(indicial_v0(patch.alpha**2, en.lam_sq, sigma, n) - patch.v_jet[0])
        scale = max(1.0, abs(patch.v_jet[0].max() - lam * lam - n * n / 4.0))
        worst = max(worst, float(np.max(res)) / scale)
    assert worst <= 1e-12
    return f"max relative residual {worst:.2e}"


@_criterion(2, "symbol homogeneity (50 samples) and the n=1 closed value -|xi|")
def test_acceptance_symbol_homogeneity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        from scatjet.synthetic import random_spd

        patch = constant_patch(
            n, float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0)), random_spd(rng, n)
        )
        en = ComplexEnergy(complex(rng.uniform(3.0, 6.0)))
        xi = rng.normal(size=n)
        idx = (0,) * n
        scales = (1.0, 2.0, 4.0, 8.0)
        base, *scaled = principal_symbol(patch, np.outer(scales, xi), (en,))[1][0][idx]
        sig = indicial_root(patch, en)[idx]
        for t, got in zip(scales[1:], scaled):
            expected = base * t ** (2 * sig - n)
            worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    assert worst <= 1e-10

    # sigma = 1 at n = 1: the prefactor collapses to -1, so S(xi) = -|xi|
    patch = constant_patch(1, 1.0, 0.0, np.eye(1))
    en = ComplexEnergy(0.5j)  # lambda^2 = -1/4 exactly, giving sigma = 1
    cs = np.array([0.5, 1.0, 2.0])
    worst_closed = float(np.max(np.abs(principal_symbol(patch, cs[:, None], (en,))[1][0] + cs)))
    assert worst_closed <= 1e-12
    return f"homogeneity {worst:.2e}, closed-value gap {worst_closed:.2e}"


@_criterion(3, "model Green kernel: second-order residual decay, wrong sign caught")
def test_acceptance_green_residual():
    ratios = {}
    for n, sigma in ((1, 1.5), (2, 2.3)):
        _, _, ratio = green_residual_convergence(sigma, n)
        ratios[(n, sigma)] = ratio
        assert 3.5 <= ratio <= 4.5
    bad = wrong_sign_green_residual(1.5, HalfSpaceGrid(1, 65))
    assert bad > 0.1
    pretty = ", ".join(f"(n={n},sigma={s})->{r:.2f}" for (n, s), r in ratios.items())
    return f"refinement ratios {pretty}; wrong-sign residual {bad:.2f}"


@_criterion(4, "two-center integrals vs independent oracle; convergence predicate table")
def test_acceptance_integral_oracles():
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10, max_subdivisions=20000)
    loose = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-10, max_subdivisions=20000)
    t_cases = [
        (1, 2.0, 1),
        (1, 2.3 + 0.4j, 1),
        (2, 2.0, 1),
        (1, 2.5, 2),
        (2, 1.8, 2),
        (2, 2.2 + 0.3j, 2),
        (1, 2.6, 3),
    ]
    j_cases = [
        (1, 1, 3.0, 1),
        (2, 2, 2.2, 1),
        (2, 1, 3.0, 2),
        (1, 2, 2.5, 2),
    ]
    worst = 0.0
    for l, sigma, n in t_cases:
        got = t_limit_integral(l, sigma, n, loose if n == 3 else spec).value
        oracle = t_oracle(l, sigma, n)
        worst = max(worst, abs(got - oracle) / abs(oracle))
    for l, k, sigma, n in j_cases:
        got = j_integral(l, k, sigma, n, spec).value
        oracle = j_oracle(l, k, sigma, n)
        worst = max(worst, abs(got - oracle) / abs(oracle))
    assert worst <= 1e-5

    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(50):
        l = int(rng.integers(1, 3))
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        sigma = complex(rng.uniform(0.5, 4.0), rng.uniform(-1.0, 1.0))
        expected = 2.0 * sigma.real >= max(n - k + 1, k + 2)
        mismatches += j_converges(l, k, sigma, n) is not expected
    assert mismatches == 0
    return f"{len(t_cases) + len(j_cases)}-case dual-route gap {worst:.2e}; predicate table 50/50"


@_criterion(5, "full integral reaches its separated-limit value at (s,|z|)=(1e-3,1e3)")
def test_acceptance_dominated_convergence():
    ispec = QuadratureSpec(rel_tol=5e-4, abs_tol=1e-300, max_subdivisions=20000)
    tspec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10, max_subdivisions=20000)
    s, zmag = 1e-3, 1e3
    worst = 0.0
    for sigma in (2.0, 2.5):
        for l in (1, 2):
            iv = i_full_integral(l, sigma, s, [zmag], ispec).value
            tv = t_limit_integral(l, sigma, 1, tspec).value
            scaled = iv * s ** (-sigma) * zmag ** (2 * sigma - 5 + 2 * l)
            worst = max(worst, abs(scaled / tv - 1.0))
    assert worst <= 0.01
    return f"max limit deviation {worst:.2e} (bar 1e-2)"


@_criterion(6, "zeroth-order round trip on 25 random configurations; single-energy mode")
def test_acceptance_zeroth_order_round_trip():
    worst = 0.0
    for seed in range(25):
        n = seed % 3 + 1
        truth, ds = make_synthetic_pair(seed=600 + seed, n=n)
        report = layer_strip_driver(ds)
        assert report.status == "ok"
        worst = max(
            worst,
            float(np.max(np.abs(report.alpha_sq - truth.alpha_sq))),
            float(np.max(np.abs(report.v0 - truth.v0))),
            float(np.max(np.abs(report.h0 - truth.h0))),
        )
    assert worst <= 1e-8

    patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
    ds = forward_dataset(patch, (ComplexEnergy(4.0),))
    report = layer_strip_driver(ds, alpha_sq_known=1.1**2)
    assert report.status == "ok"
    gap = float(np.max(np.abs(report.v0 - 0.4)))
    assert gap <= 1e-8
    return f"two-energy max error {worst:.2e}; single-energy V0 gap {gap:.2e}"


@_criterion(7, "first-order round trip: exact with unit factors, 1e-6 with computed ones")
def test_acceptance_first_order_round_trip():
    worst = 0.0
    report = None
    for seed, n in ((701, 1), (702, 2), (703, 3)):
        truth, ds = make_synthetic_pair(seed=seed, n=n)
        report = layer_strip_driver(ds)
        assert report.status == "ok"
        worst = max(
            worst,
            float(np.max(np.abs(report.H - truth.H))),
            float(np.max(np.abs(report.W1 - truth.W1))),
        )
    assert worst <= 1e-8
    assert report.design_rank is not None and len(report.kernel_basis) >= 1

    # same round trip with t1, t2 actually computed from the limit integrals
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10, max_subdivisions=20000)
    h0 = np.diag([2.0, 1.0])
    L = np.array([[0.5, 0.2], [0.2, -0.125]])  # h0^-1 L h0^-1 is traceless
    patch = constant_patch(2, 1.1, 0.4, h0, v1=0.0, h1=L)
    en1, en2 = ComplexEnergy(4.0), ComplexEnergy(5.0)
    sig = indicial_root(patch, en1)[0, 0]
    t_pair = (
        t_limit_integral(1, sig, 2, spec).value,
        t_limit_integral(2, sig, 2, spec).value,
    )
    ds = forward_dataset(patch, (en1, en2), t_pair=t_pair)
    report_q = layer_strip_driver(ds)
    want_H = np.linalg.solve(h0, np.linalg.solve(h0, L.T).T)
    gap_q = max(
        float(np.max(np.abs(report_q.H - want_H))),
        float(np.max(np.abs(report_q.W1))),
    )
    assert gap_q <= 1e-6

    # no perturbation at all must come back as exactly (0, 0)
    probes = default_probe_set(2)
    res0 = first_order_recovery(np.zeros(len(probes)), probes, 2.3, 1.0, 1.0, 1.0, np.eye(2))
    assert np.max(np.abs(res0.H)) <= 1e-12 and abs(res0.W1) <= 1e-12
    return f"unit-factor error {worst:.2e}; computed-factor error {gap_q:.2e}"


def _mode_feedback_gap(patch, modes, ks):
    """Largest gap between ``n - sigma`` at ``modes[*idx, k]`` and ``(n - k)/2``, over ``ks``."""
    worst = 0.0
    for idx in np.ndindex(*modes.shape[:-1]):
        for k in ks:
            lam_sq = complex(modes[idx + (k,)])
            en = ComplexEnergy(cmath.sqrt(lam_sq), lam_sq=lam_sq)
            sig = indicial_root(patch, en)[idx]
            worst = max(worst, abs((patch.n - sig) - (patch.n - k) / 2.0))
    return worst


@_criterion(8, "exceptional set: mode energies reproduce half-integer roots; screening")
def test_acceptance_exceptional_set():
    # Variable patch with dyadic field values: every mode energy is exactly
    # representable, so even the k = 0 double root (where sigma has a
    # square-root branch point and any representation error eta in lambda^2
    # comes back as sqrt(eta) ~ 1.5e-8) closes the loop exactly.
    shape = (4, 4)
    alpha = np.broadcast_to(np.array([1.0, 1.25, 1.5, 1.75])[:, None], shape).copy()
    v0 = np.broadcast_to(np.array([0.0, 0.25, 0.5, 0.75])[None, :], shape).copy()
    patch = BoundaryPatch(
        n=2,
        axes=shape,
        alpha=alpha,
        v_jet=(v0,),
        h_jet=(np.tile(np.eye(2), shape + (1, 1)),),
    )
    es = exceptional_set(alpha**2, v0, 2, k_max=2)
    assert es.modes_lambda_sq.shape == shape + (3,)  # the enumeration is non-trivial
    worst = _mode_feedback_gap(patch, es.modes_lambda_sq, range(3))
    assert worst <= 1e-8

    # generic transcendental fields: the simple roots (k >= 1) stay tight
    generic = BoundaryPatch.from_dict(
        {
            "n": 2,
            "axes": [8, 4],
            "alpha": "1.5 + 0.5*cos(y1)",
            "v_jet": ["0.5 + 0.5*cos(y1)"],
            "h_jet": [[[1.0, 0.0], [0.0, 1.0]]],
        }
    )
    g_alpha_sq = np.float_power(generic.alpha, 2)
    g_modes = exceptional_set(g_alpha_sq, generic.v_jet[0], 2, k_max=2).modes_lambda_sq
    worst_g = _mode_feedback_gap(generic, g_modes, range(1, 3))
    assert worst_g <= 1e-8

    ok = is_admissible(ComplexEnergy(5j), es, margin=0.1)
    assert ok.ok
    # lambda^2 = -1 is mode 2 (V0 - n^2/4) where V0 = 0, first at grid index (0, 0)
    on_mode = is_admissible(ComplexEnergy(1j), es, margin=0.1)
    assert not on_mode.ok
    assert "omega-prime-mode k = 2 at grid index (0, 0) (distance 0.000e+00)" in on_mode.reason
    # with V0 raised by 10 mode 0 spans [5.9375, 8.75]: a real lambda^2 = 7 is on the
    # branch cut of the forward map, and the screen refuses it as the cut
    raised = BoundaryPatch(n=2, axes=shape, alpha=alpha, v_jet=(v0 + 10.0,), h_jet=patch.h_jet)
    assert exceptional_set(alpha**2, v0 + 10.0, 2).interval_lambda_sq == (5.9375, 8.75)
    cut = is_admissible(ComplexEnergy(math.sqrt(7.0)), exceptional_set(alpha**2, v0 + 10.0, 2), 0.0)
    assert not cut.ok and "branch cut" in cut.reason
    with pytest.raises(BranchCut):
        indicial_root(raised, ComplexEnergy(math.sqrt(7.0)))
    es_user = exceptional_set(alpha**2, v0, 2, k_max=2, user_excluded=(5j,))
    vetoed = is_admissible(ComplexEnergy(5j), es_user, margin=0.1)
    assert not vetoed.ok and "excluded" in vetoed.reason
    return (
        f"max root gap {worst:.2e} over {es.modes_lambda_sq.size} modes "
        f"(generic-field simple roots {worst_g:.2e}); screening OK"
    )


@_criterion(9, "seeded round trip is byte-identical across runs")
def test_acceptance_determinism(tmp_path=None):
    import tempfile
    from pathlib import Path

    outputs = []
    with tempfile.TemporaryDirectory() as td:
        for run in ("a", "b"):
            d = Path(td) / run
            d.mkdir()
            proc = run_scatjet("roundtrip", "--seed", "7", "--n", "2", "--out-dir", str(d))
            assert proc.returncode == 0, proc.stderr
            outputs.append({f.name: f.read_bytes() for f in sorted(d.glob("*.json"))})
    assert set(outputs[0]) == {"dataset.json", "report.json", "roundtrip.json"}
    assert outputs[0] == outputs[1]
    total = sum(len(v) for v in outputs[0].values())
    return f"3 files, {total} bytes, identical across runs"
