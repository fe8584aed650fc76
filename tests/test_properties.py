"""Randomized invariant checks over structure-preserving perturbations."""

from __future__ import annotations

import numpy as np

from sublap import (
    bound_asn,
    bound_main,
    bound_sntf,
    bound_t1zero,
    builtin_names,
    canonical_connection,
    certify,
    classify,
    distortion,
    invariants,
    lambda1,
    load_builtin,
    optimize,
    rescale_vertical,
    seminorm_grams,
    sub_ricci,
    trace_tor2,
    validate,
    verify_connection,
)
from conftest import (
    moved_frame,
    nilpotent_spaces,
    random_orthogonal,
    random_space,
    rotate_frame,
    so4_weighted,
)
from oracles import feasible_rho1, nabla_torsion, riemann

N_CASES = 120


def test_random_spaces_are_valid_and_admit_the_connection():
    rng = np.random.default_rng(101)
    for _ in range(N_CASES):
        space = random_space(rng)
        assert validate(space) == []
        assert verify_connection(canonical_connection(space)) == []


def test_sub_ricci_symmetry_and_block_vanishing():
    rng = np.random.default_rng(102)
    for _ in range(N_CASES):
        space = random_space(rng)
        d = space.dim_h
        src = sub_ricci(canonical_connection(space))
        scale = max(1.0, float(np.max(np.abs(src))))
        assert np.allclose(src[:d, :d], src[:d, :d].T, atol=1e-9 * scale)
        assert np.allclose(src[:d, d:], 0.0, atol=1e-9 * scale)
        assert np.allclose(src[d:, :d], 0.0, atol=1e-9 * scale)


def test_vertical_trace_of_squared_torsion_is_a_gram():
    # For vertical directions the trace of the squared-torsion composition
    # coincides with the Gram matrix of the vertically-paired torsion.
    rng = np.random.default_rng(103)
    for _ in range(N_CASES):
        space = random_space(rng)
        d = space.dim_h
        conn = canonical_connection(space)
        left = trace_tor2(conn)[d:, d:]
        right = seminorm_grams(conn).tau_hv[d:, d:]
        scale = max(1.0, float(np.max(np.abs(right))))
        assert np.allclose(left, right, atol=1e-9 * scale)


def test_rigid_spaces_have_traceless_vertical_derivative():
    rng = np.random.default_rng(104)
    count = 0
    for _ in range(N_CASES):
        space = random_space(rng)
        conn = canonical_connection(space)
        if not classify(conn).h_rigid:
            continue
        count += 1
        d = space.dim_h
        nt = nabla_torsion(conn)
        scale = max(1.0, float(np.max(np.abs(nt))))
        traces = np.einsum("itxi->tx", nt[:d, d:, :d, :d])
        assert np.max(np.abs(traces)) <= 1e-9 * scale
    assert count >= 100


def test_normal_spaces_have_no_distortion():
    rng = np.random.default_rng(105)
    h_normal_count = 0
    for _ in range(N_CASES):
        space = random_space(rng)
        conn = canonical_connection(space)
        flags = classify(conn)
        pack = distortion(space)
        scale = max(1.0, float(np.max(np.abs(space.c)))) ** 3
        if flags.h_normal:
            h_normal_count += 1
            assert np.max(np.abs(pack.t2)) <= 1e-8 * scale
            if flags.vm_integrable:
                assert np.max(np.abs(pack.t1)) <= 1e-8 * scale
    assert h_normal_count >= 50


def test_riemann_tensor_antisymmetries():
    rng = np.random.default_rng(106)
    for _ in range(N_CASES):
        space = random_space(rng)
        rm = riemann(canonical_connection(space))
        scale = max(1.0, float(np.max(np.abs(rm))))
        assert np.allclose(rm, -rm.transpose(1, 0, 2, 3), atol=1e-9 * scale)
        assert np.allclose(rm, -rm.transpose(0, 1, 3, 2), atol=1e-9 * scale)


def test_feasible_rho1_is_sound_and_maximal():
    rng = np.random.default_rng(107)
    feasible = 0
    for _ in range(N_CASES):
        space = random_space(rng)
        d = space.dim_h
        q = invariants(space).q(float(rng.uniform(0.0, 0.95)))
        scale = max(1.0, float(np.max(np.abs(q))))
        rho2 = float(10.0 ** rng.uniform(-2.0, 2.0))
        rho1 = feasible_rho1(q, d, rho2)
        shifted = q.copy()
        shifted[d:, d:] -= rho2 * np.eye(space.dim - d)
        if rho1 is None:
            assert np.linalg.eigvalsh(shifted).min() < 1e-9 * scale
            continue
        feasible += 1
        shifted[:d, :d] -= rho1 * np.eye(d)
        assert np.linalg.eigvalsh(shifted).min() >= -1e-7 * scale
        shifted[:d, :d] -= 1e-4 * scale * np.eye(d)
        assert np.linalg.eigvalsh(shifted).min() < 0.0
    assert feasible >= 30


def _bound_fingerprint(space):
    rows = {}
    for label, result in (
        ("main", bound_main(space, 0.2)),
        ("t1zero", bound_t1zero(space, 0.2)),
        ("asn", bound_asn(space, 0.2)),
        ("sntf", bound_sntf(space)),
    ):
        if result is None:
            rows[label] = None
        else:
            rows[label] = (result.value, result.omega, result.chi, result.psi)
    best = optimize(space, x_points=200).best
    rows["best"] = None if best is None else best.value
    return rows


def test_bounds_are_invariant_under_vertical_rescaling():
    # full example coverage: every builtin at a reference and a sheared point
    cases = [
        ("so4_twisted", {}),
        ("so4_twisted", {"b": 0.3}),
        ("so3_twisted", {}),
        ("so3_twisted", {"c": 0.2}),
        ("so4_alt", {}),
        ("twisted_spheres", {}),
    ]
    for name, kw in cases:
        space = load_builtin(name, **kw)
        base = _bound_fingerprint(space)
        for t in (0.1, 10.0):
            scaled = _bound_fingerprint(rescale_vertical(space, t))
            assert scaled.keys() == base.keys()
            for key in base:
                a, b = base[key], scaled[key]
                if a is None or b is None:
                    assert a is None and b is None, (name, kw, t, key)
                    continue
                a = np.atleast_1d(np.asarray(a, dtype=float))
                b = np.atleast_1d(np.asarray(b, dtype=float))
                nan = np.isnan(a)
                assert np.array_equal(nan, np.isnan(b)), (name, kw, t, key)
                assert np.allclose(a[~nan], b[~nan], atol=1e-8, rtol=1e-8), (
                    name, kw, t, key,
                )


def _frame_fingerprint(space):
    """Frame-independent data of a space: flags, the constants and spectra
    of its invariants, and the value of every bound."""
    inv = invariants(space)
    d = space.dim_h
    spec = np.linalg.eigvalsh
    report = optimize(space, x_points=20, rho2_per_decade=20)
    sntf = bound_sntf(space)
    return {
        "flags": inv.flags,
        "product": inv.product[0],
        "zero": (inv.t1_zero, inv.trnt_h_zero),
        "constants": np.array([inv.kappa, inv.sigma, inv.sup_t2, inv.product[1]]),
        "src": spec(inv.src[:d, :d]),
        "tau_vh": spec(inv.grams.tau_vh),
        "tau_hv": spec(inv.grams.tau_hv),
        "tau_h": spec(inv.grams.tau_h),
        "t1": np.linalg.svd(inv.dist.t1, compute_uv=False),
        "t2": spec(inv.dist.t2),
        "rig": np.array([np.linalg.norm(inv.rig[:d]), np.linalg.norm(inv.rig[d:])]),
        "sntf": None if sntf is None else sntf.value,
        "bounds": {e.theorem: e.value for e in report.entries},
    }


FRAME_BASES = [
    load_builtin("so4_twisted"),
    load_builtin("so4_twisted", b=0.3),
    load_builtin("so3_twisted", c=0.05),
    load_builtin("so4_alt"),
    load_builtin("twisted_spheres"),
    *nilpotent_spaces(),
]


def test_invariants_and_bounds_are_frame_invariant():
    # Rotating each block of the adapted frame, at two vertical scales, moves
    # no invariant and no bound.  The nilpotent algebras have no positive
    # curvature constants and take the paths where no bound applies.
    rng = np.random.default_rng(108)
    for base in FRAME_BASES:
        nilpotent = base.name.startswith(("heisenberg", "free_step2"))
        for t in (0.5, 2.0):
            space = rescale_vertical(base, t)
            want = _frame_fingerprint(space)
            if nilpotent:
                assert want["sntf"] is None and not want["bounds"], base.name
            oh = random_orthogonal(rng, space.dim_h)
            ov = random_orthogonal(rng, space.dim_v)
            got = _frame_fingerprint(rotate_frame(space, oh, ov))
            for key in ("flags", "product", "zero"):
                assert got[key] == want[key], (base.name, t, key)
            assert (got["sntf"] is None) == (want["sntf"] is None), base.name
            assert got["bounds"].keys() == want["bounds"].keys(), base.name
            for key in ("constants", "src", "tau_vh", "tau_hv", "tau_h", "t1", "t2", "rig"):
                assert np.allclose(got[key], want[key], rtol=1e-10, atol=1e-10), (
                    base.name, t, key,
                )
            if want["sntf"] is not None:
                assert abs(got["sntf"] - want["sntf"]) <= 1e-10, base.name
            # optimize resolves main's optimum, which sits at the edge of its
            # rho2 ladder, only to about 1e-7 relative in a rotated frame
            for key, value in want["bounds"].items():
                assert np.isclose(got["bounds"][key], value, rtol=1e-6, atol=0.0), (
                    base.name, t, key,
                )


def test_bounds_stay_below_lambda1_in_moved_frames():
    # The horizontal Laplacian reads only the horizontal rows of the spectral
    # model, which a moved frame rotates, so lambda1 does not move while every
    # bound does.  Each builtin, and the twisted families at a random
    # parameter, in two moved frames: every entry and variant is at most
    # lambda1 + 1e-9 at a cutoff of at least four times the largest of them,
    # and certify passes there.
    rng = np.random.default_rng(109)
    bases = [load_builtin(name) for name in builtin_names()] + [
        load_builtin("so4_twisted", b=float(rng.uniform(-0.8, 0.8))),
        load_builtin("so3_twisted", c=float(rng.uniform(-0.9, 0.9))),
    ]
    for base in bases:
        lam = lambda1(base).lambda1
        for _ in range(2):
            space = moved_frame(base, rng)
            report = optimize(space)
            values = [e.value for e in report.entries] + [n.variant for n in report.discrepancies]
            cutoff = max(space.oracle.cutoff, 4.0 * max(values, default=0.0))
            result = certify(space, report, cutoff=cutoff)
            assert abs(result.lambda1 - lam) <= 1e-12 * lam, (base.name, base.params)
            assert all(v <= result.lambda1 + 1e-9 for v in values), (base.name, base.params)
            assert result.all_passed, (base.name, base.params)


def test_so4_weighted_bounds_meet_the_exact_spectrum():
    # so4_weighted carries the su(2) + su(2) model of so(4), so the general
    # asn branch meets the exact spectrum: lambda1 = 3/2 on the irrep
    # (1/2, 1/2) with a rigorous tail, at the given lengths and in a moved
    # frame.  Random squared lengths in [0.5, 2] run on a coarse x grid: at
    # 400 points some take seconds, as asn's duality search then runs at
    # nearly every candidate.
    base = so4_weighted()
    spectrum = lambda1(base)
    assert (spectrum.witness, spectrum.rigorous) == ("(1/2, 1/2)", True)
    assert invariants(base).product[0] == "general"
    for space in (base, moved_frame(base, np.random.default_rng(7))):
        report = optimize(space)
        result = certify(space, report)
        assert [e.theorem for e in report.entries] == ["asn"]
        assert abs(result.lambda1 - 1.5) <= 1e-12 and result.all_passed
    rng = np.random.default_rng(2027)
    for _ in range(5):
        lengths = tuple(rng.uniform(0.5, 2.0, 5))
        space = so4_weighted(lengths)
        result = certify(space, optimize(space, x_points=40))
        assert result.rigorous and result.all_passed, lengths
