"""Exact spectra of the model operators and bound certification."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import sublap.spectral
from sublap import (
    HomogeneousSpace,
    OracleConfig,
    OracleFactor,
    certify,
    hlap_matrix,
    irrep_matrices,
    lambda1,
    load_builtin,
    optimize,
    spin_matrices,
)
from conftest import moved_frame, random_orthogonal, rotate_frame, so4_weighted
from oracles import irrep_table


def test_spin_matrices_satisfy_su2_relations():
    for two_j in (0, 1, 2, 3, 4):
        g1, g2, g3 = spin_matrices(two_j)
        assert g1.shape == (two_j + 1, two_j + 1)
        for a, b, c in ((g1, g2, g3), (g2, g3, g1), (g3, g1, g2)):
            assert np.allclose(a @ b - b @ a, c, atol=1e-12)
        for g in (g1, g2, g3):
            assert np.allclose(g + g.conj().T, 0.0, atol=1e-12)
        j = two_j / 2.0
        casimir = -(g1 @ g1 + g2 @ g2 + g3 @ g3)
        assert np.allclose(casimir, j * (j + 1) * np.eye(two_j + 1), atol=1e-12)


def test_spin_matrices_reject_negative_spin():
    with pytest.raises(ValueError):
        spin_matrices(-1)


def test_irrep_matrices_represent_the_brackets():
    for name, two_js in (("so4_alt", (1, 1)), ("twisted_spheres", (1, 2)),
                         ("so4_twisted", (2, 2))):
        space = load_builtin(name)
        mats = irrep_matrices(space, two_js)
        n = space.dim
        for i in range(n):
            for j in range(n):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                want = sum(space.c[i, j, k] * mats[k] for k in range(n))
                assert np.allclose(comm, want, atol=1e-10), (name, i, j)


def test_hlap_matrix_is_hermitian_psd():
    space = load_builtin("twisted_spheres")
    h = hlap_matrix(space, (1, 2))
    assert np.allclose(h, h.conj().T)
    assert np.linalg.eigvalsh(h).min() >= -1e-12


def test_contact_example_spectra():
    # horizontal Laplacian on the round S^3 picture: j(j+1) - m^2
    space = load_builtin("so3_twisted")
    for two_j in (2, 4, 6):
        j = two_j / 2.0
        ev = np.sort(np.linalg.eigvalsh(hlap_matrix(space, (two_j,))))
        want = np.sort([j * (j + 1) - m * m for m in np.arange(-j, j + 1)])
        assert np.allclose(ev, want, atol=1e-10)


def test_twisted_so4_spectra_on_the_smallest_irrep():
    for b in (0.0, 0.3, 0.7):
        space = load_builtin("so4_twisted", b=b)
        ev = np.sort(np.linalg.eigvalsh(hlap_matrix(space, (1, 1))))
        want = np.sort([2.0 + b * b, 2.0 + b * b, 3.0, 3.0])
        assert np.allclose(ev, want, atol=1e-10), b


def test_alternate_so4_spectra():
    # hlap = 2(C_+ + C_-) - C_vertical with the vertical Casimir running over
    # the coupled decomposition
    space = load_builtin("so4_alt")
    for two_js in ((1, 1), (2, 2)):
        j1, j2 = two_js[0] / 2.0, two_js[1] / 2.0
        total = 2.0 * (j1 * (j1 + 1) + j2 * (j2 + 1))
        want = []
        ell = abs(j1 - j2)
        while ell <= j1 + j2 + 1e-9:
            want.extend([total - ell * (ell + 1)] * int(round(2 * ell + 1)))
            ell += 1.0
        ev = np.sort(np.linalg.eigvalsh(hlap_matrix(space, two_js)))
        assert np.allclose(ev, np.sort(want), atol=1e-10), two_js


def test_product_example_spectra():
    # frame X_i = 2 g_i + h_i gives 2 j1(j1+1) - j2(j2+1) + 2 l(l+1) on the
    # coupled component of total spin l
    space = load_builtin("twisted_spheres")
    for two_js in ((1, 2), (2, 2), (1, 4)):
        j1, j2 = two_js[0] / 2.0, two_js[1] / 2.0
        want = []
        ell = abs(j1 - j2)
        while ell <= j1 + j2 + 1e-9:
            val = 2 * j1 * (j1 + 1) - j2 * (j2 + 1) + 2 * ell * (ell + 1)
            want.extend([val] * int(round(2 * ell + 1)))
            ell += 1.0
        ev = np.sort(np.linalg.eigvalsh(hlap_matrix(space, two_js)))
        assert np.allclose(ev, np.sort(want), atol=1e-10), two_js


def test_lambda1_reference_values():
    k = math.sqrt(40.25) - 0.5
    frozen = {
        "so4_twisted": (2.0, "(1/2, 1/2)", 2.0 * k, True,
                        "rigorous tail (second Gram eigenvalue)"),
        "so3_twisted": (1.0, "(1)", k, True,
                        "rigorous tail (second Gram eigenvalue)"),
        "so4_alt": (1.0, "(1/2, 1/2)", k, True,
                    "rigorous tail (equivariant two-factor frame)"),
        "twisted_spheres": (1.0, "(1/2, 1)", 0.5 * k, True,
                            "rigorous tail (equivariant two-factor frame)"),
    }
    for name, (lam, witness, tail, rigorous, note) in frozen.items():
        res = lambda1(load_builtin(name))
        assert abs(res.lambda1 - lam) < 1e-10, name
        assert res.witness == witness, name
        assert res.rigorous == rigorous, name
        assert res.tail_note == note, name
        assert abs(res.tail_bound - tail) < 1e-10, name


def test_lambda1_of_the_twist_family():
    for b in (0.1, 0.2, 0.3):
        res = lambda1(load_builtin("so4_twisted", b=b))
        assert abs(res.lambda1 - (2.0 + b * b)) < 1e-9, b
        assert res.witness == "(1/2, 1/2)"
        assert res.rigorous
        assert res.tail_note == "rigorous tail (second Gram eigenvalue)"


def _so3_gram_h2(c):
    """so3_twisted's second Gram eigenvalue: the horizontal rows (0, c, -1)
    and (0, 1, 0) give the smaller root of h^2 - (c^2 + 2) h + 1."""
    t = c * c + 2.0
    return (t - math.sqrt(t * t - 4.0)) / 2.0


# (builtin, params, c at the default cutoff 40)
TAIL_SETTINGS = (
    [("so4_twisted", {"b": b}, 2.0) for b in (0.0, 0.1, 0.3, 0.7, 1.0, 2.0)]
    + [("so3_twisted", {"c": c}, _so3_gram_h2(c)) for c in (0.0, 0.05, 0.3, 1.0, 3.0)]
    + [("so4_alt", {}, 1.0), ("twisted_spheres", {}, 0.5)]
)


@pytest.mark.parametrize(
    "name, params, c",
    TAIL_SETTINGS,
    ids=[n + "".join(f"_{k}{v}" for k, v in p.items()) for n, p, _ in TAIL_SETTINGS],
)
def test_tail_bounds_every_irrep_beyond_the_cutoff(name, params, c):
    # In its given frame the setting is rigorous at the default cutoff with
    # tail c (sqrt(40.25) - 1/2).  In that frame and two moved copies,
    # lambda1's tail at each c0 is at most the bottom of every irrep beyond c0
    # in the full table at c1, and lambda1 does not move; on so4_twisted and
    # so3_twisted the moved frames keep the rigorous tail.
    space = load_builtin(name, **params)
    res = lambda1(space)
    assert res.rigorous
    assert abs(res.tail_bound - c * (math.sqrt(40.25) - 0.5)) < 1e-9
    if len(space.oracle.factors) == 1:
        c0s, c1 = (40.0, 400.0), 2000.0
    else:
        c0s, c1 = (10.0, 40.0, 90.0), 100.0
    rng = np.random.default_rng(18)
    base = None
    for frame in [space, moved_frame(space, rng), moved_frame(space, rng)]:
        res = lambda1(frame, cutoff=c1)
        table = irrep_table(frame, c1).table
        for c0 in c0s:
            tail = lambda1(frame, cutoff=c0).tail_bound
            beyond = [float(e.eigenvalues[0]) for e in table
                      if sum(t * (t + 2) / 4.0 for t in e.two_js) > c0]
            assert tail is None or tail <= min(beyond), (c0, tail, min(beyond))
        if base is None:
            base = res
            continue
        assert abs(res.lambda1 - base.lambda1) <= 1e-12 * base.lambda1
        if name in ("so4_twisted", "so3_twisted"):
            assert res.rigorous
            assert abs(res.tail_bound - base.tail_bound) <= 1e-12 * base.tail_bound


def test_a_frame_one_ulp_from_equivariant_takes_no_two_factor_tail():
    base = load_builtin("so4_alt")
    rows = [[list(g) for g in row] for row in base.oracle.frame_map]
    rows[0][0][2] = math.nextafter(rows[0][0][2], 0.0)
    frame_map = tuple(tuple(tuple(g) for g in row) for row in rows)
    space = dataclasses.replace(
        base, oracle=dataclasses.replace(base.oracle, frame_map=frame_map)
    )
    assert "equivariant" in lambda1(base, cutoff=12.0).tail_note
    res = lambda1(space, cutoff=12.0)
    assert res.tail_note == "heuristic tail (no closed tail control)"
    assert res.tail_bound is None
    assert res.skipped == 0  # c = 0 bounds no irrep away from zero


# the largest cutoff the benchmark's certify workload draws for each builtin
BENCH_CUTOFFS = {"so4_twisted": 137.5, "so4_alt": 90.0, "twisted_spheres": 90.0,
                 "so3_twisted": 18000.0}


def _check_against_full_table(frame, cutoff):
    """Compare lambda1 with the full table at one cutoff; return lambda1's
    result.  Every irrep's bottom is at least c s, s = sum_f j_f, with
    `_tail`'s c; lambda1 diagonalizes the irreps of a prefix of the order
    (c s, Casimir order) and skips only irreps whose bound passes lambda1 by
    more than 1e-9; its result and the visited irreps' eigenvalues are the
    full table's to the byte."""
    res, full = lambda1(frame, cutoff=cutoff), irrep_table(frame, cutoff)
    c, _ = sublap.spectral._tail(sublap.spectral._model_coeffs(frame)[: frame.dim_h])
    rank = {e.two_js: r for r, e in enumerate(full.table)}
    bound = {e.two_js: c * sum(e.two_js) / 2.0 for e in full.table}
    assert all(float(e.eigenvalues[0]) >= bound[e.two_js] for e in full.table)
    fields = ("lambda1", "witness", "tail_bound", "tail_note", "rigorous")
    assert [getattr(res, f) for f in fields] == [getattr(full, f) for f in fields]
    eigenvalues = {e.two_js: e.eigenvalues.tobytes() for e in full.table}
    assert all(e.eigenvalues.tobytes() == eigenvalues[e.two_js] for e in res.table)
    assert len(res.table) + res.skipped == len(full.table)
    visit = sorted(rank, key=lambda two_js: (bound[two_js], rank[two_js]))
    seen = visit[: len(res.table)]
    assert [e.two_js for e in res.table] == sorted(seen, key=rank.get)
    assert all(bound[two_js] > res.lambda1 + 1e-9 for two_js in visit[len(seen):])
    return res


@pytest.mark.parametrize(
    "name, params",
    [(n, p) for n, p, _ in TAIL_SETTINGS],
    ids=[n + "".join(f"_{k}{v}" for k, v in p.items()) for n, p, _ in TAIL_SETTINGS],
)
def test_lambda1_matches_full_enumeration(name, params):
    # In the given frame and two moved copies, at the benchmark's cutoff and
    # at the default.  The given frame skips irreps at the benchmark cutoff;
    # the moved so4_alt and twisted_spheres frames have c = 0 and skip none.
    space = load_builtin(name, **params)
    rng = np.random.default_rng(19)
    for moved, frame in enumerate([space, moved_frame(space, rng), moved_frame(space, rng)]):
        for cutoff in (BENCH_CUTOFFS[name], space.oracle.cutoff):
            res = _check_against_full_table(frame, cutoff)
            if not moved and cutoff == BENCH_CUTOFFS[name]:
                assert res.skipped > 0


@pytest.mark.parametrize(
    "name, limit, cutoff",
    [("so4_twisted", 16, 5.0), ("so4_alt", 16, 5.0), ("so3_twisted", 16, 40.0),
     ("twisted_spheres", 16, 5.0), ("twisted_spheres", 32, 8.0)],
)
def test_lambda1_matches_full_enumeration_in_small_batches(monkeypatch, name, limit, cutoff):
    # With a small dimension limit the visit can take several batches.  Each
    # batch holds only irreps whose bound is within 1e-9 of the least bottom
    # of the batches before it: on twisted_spheres at limit 32 the second
    # batch stops at (3/2, 1), whose bound 1.25 passes lambda1 = 1 although
    # it would fit.
    monkeypatch.setattr(sublap.spectral, "_MAX_IRREP_DIM", limit)
    space = load_builtin(name)
    res = _check_against_full_table(space, cutoff)
    batches, assemble = [], sublap.spectral._assemble

    def recorded(coeffs, combos):
        batches.append(combos)
        return assemble(coeffs, combos)

    monkeypatch.setattr(sublap.spectral, "_assemble", recorded)
    lambda1(space, cutoff=cutoff)
    c, _ = sublap.spectral._tail(sublap.spectral._model_coeffs(space)[: space.dim_h])
    bottom = {e.two_js: float(e.eigenvalues[0]) for e in res.table if any(e.two_js)}
    least = math.inf
    for batch in batches:
        assert all(c * sum(two_js) / 2.0 <= least + 1e-9 for two_js in batch), batch
        least = min([least] + [bottom[two_js] for two_js in batch if two_js in bottom])


def test_spectrum_table_structure():
    res = lambda1(load_builtin("so4_twisted"))
    assert res.table[0].label == "(0, 0)"
    assert res.table[0].dim == 1
    assert abs(float(res.table[0].eigenvalues.min())) < 1e-12
    seen = set()
    for entry in res.table:
        assert entry.two_js not in seen
        seen.add(entry.two_js)
        assert sum(entry.two_js) % 2 == 0  # integer-sum constraint
        casimir = sum(tj * (tj + 2) / 4.0 for tj in entry.two_js)
        assert casimir <= res.cutoff + 1e-12
        assert entry.dim == len(entry.eigenvalues)

    res = lambda1(load_builtin("so3_twisted"))
    assert all(entry.two_js[0] % 2 == 0 for entry in res.table)

    res = lambda1(load_builtin("twisted_spheres"))
    labels = [entry.label for entry in res.table[:3]]
    assert labels == ["(0, 0)", "(1/2, 0)", "(0, 1)"]


def test_lambda1_enumerates_only_cutoffs_up_to_the_dimension_limit(monkeypatch):
    # With no irrep enumerated, a cutoff the limit admits ends in "no
    # nontrivial irrep"; one it rejects raises before any enumeration.
    monkeypatch.setattr(sublap.spectral, "_enumerate_irreps", lambda config, cutoff: [])
    admitted = (("so3_twisted", 20000.0), ("so4_twisted", 150.0), ("so4_alt", 100.0))
    for name, cutoff in admitted:
        with pytest.raises(RuntimeError, match="no nontrivial irrep"):
            lambda1(load_builtin(name), cutoff=cutoff)
    for name, cutoff in (("so3_twisted", 1e17), ("so4_alt", 1e300)):
        with pytest.raises(ValueError, match="too large to enumerate") as err:
            lambda1(load_builtin(name), cutoff=cutoff)
        assert len(str(err.value)) <= 160, str(err.value)


def test_lambda1_and_certify_reject_a_cutoff_that_is_not_finite(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("irreps enumerated for a bad cutoff")

    monkeypatch.setattr(sublap.spectral, "_enumerate_irreps", no_enumeration)
    space = load_builtin("so4_alt")
    report = optimize(space, x_points=20)
    calls = [(lambda c: lambda1(space, cutoff=c), (math.inf, math.nan, -1.0)),
             (lambda c: certify(space, report, cutoff=c), (math.inf, math.nan))]
    for call, cutoffs in calls:
        for cutoff in cutoffs:
            with pytest.raises(ValueError) as err:
                call(cutoff)
            want = f"cutoff must be a finite nonnegative number, got {cutoff}"
            assert str(err.value) == want


def test_lambda1_is_stable_under_cutoff_growth():
    for name, cut in (("so3_twisted", 20.0), ("so4_alt", 12.0)):
        lo = lambda1(load_builtin(name), cutoff=cut)
        hi = lambda1(load_builtin(name))
        assert abs(lo.lambda1 - hi.lambda1) < 1e-12, name


def test_lambda1_is_invariant_under_frame_rotations():
    base = load_builtin("so4_alt")
    rng = np.random.default_rng(17)
    for _ in range(2):
        oh = random_orthogonal(rng, base.dim_h)
        ov = random_orthogonal(rng, base.dim_v)
        res = lambda1(rotate_frame(base, oh, ov), cutoff=12.0)
        assert abs(res.lambda1 - 1.0) < 1e-10


def test_lambda1_requires_a_spectral_model():
    with pytest.raises(ValueError):
        lambda1(so4_weighted())  # no model attached


def test_lambda1_rejects_a_non_homomorphic_model():
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    oracle = OracleConfig(
        factors=(OracleFactor("all"),),
        frame_map=(((1.0, 0.0, 0.0),), ((0.0, 1.0, 0.0),), ((0.0, 0.0, -1.0),)),
        cutoff=10.0,
    )
    space = HomogeneousSpace("badmap", 2, 1, c, {}, oracle)
    with pytest.raises(ValueError, match="homomorphism"):
        lambda1(space)
    with pytest.raises(ValueError, match="homomorphism"):
        hlap_matrix(space, (2,))


@pytest.mark.parametrize("case", ["extra row", "missing row", "pair for a triple"])
def test_lambda1_rejects_a_frame_map_of_the_wrong_shape(case):
    base = load_builtin("so4_alt")
    rows = base.oracle.frame_map
    frame_map = {
        "extra row": rows + rows[:1],
        "missing row": rows[:-1],
        "pair for a triple": (((1.0, 0.0), rows[0][1]),) + rows[1:],
    }[case]
    space = dataclasses.replace(
        base, oracle=dataclasses.replace(base.oracle, frame_map=frame_map)
    )
    message = r"^spectral model frame map must have shape \(6, 2, 3\)$"
    for call in (lambda: lambda1(space), lambda: hlap_matrix(space, (1, 1))):
        with pytest.raises(ValueError, match=message):
            call()


def test_lambda1_aborts_when_the_operator_degenerates():
    # two commuting generators mapped into different factors: the horizontal
    # operator keeps a kernel inside a nontrivial irrep
    oracle = OracleConfig(
        factors=(OracleFactor("all"), OracleFactor("all")),
        frame_map=(
            ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ),
        cutoff=6.0,
    )
    space = HomogeneousSpace("abel", 2, 0, np.zeros((2, 2, 2)), {}, oracle)
    with pytest.raises(RuntimeError, match="zero eigenvalue"):
        lambda1(space)


def test_certify_reference_example():
    space = load_builtin("so4_twisted")
    report = optimize(space, x_points=200)
    result = certify(space, report)
    assert result.all_passed
    assert abs(result.lambda1 - 2.0) < 1e-10
    assert result.witness == "(1/2, 1/2)"
    assert sorted(e.theorem for e in result.entries) == [
        "asn", "main", "sntf", "t1zero",
    ]
    assert all(abs(e.bound - 20.0 / 31.0) < 1e-6 for e in result.entries)


def test_certify_checks_convention_variants_too():
    space = load_builtin("so4_alt")
    report = optimize(space, x_points=200)
    result = certify(space, report)
    assert result.all_passed
    variant = [e for e in result.entries if e.theorem == "sntf-variant"]
    assert len(variant) == 1
    assert abs(variant[0].bound - 4.0 / 9.0) < 1e-9
    assert variant[0].passed


def test_certify_demands_enough_spectral_headroom(monkeypatch):
    space = load_builtin("so4_alt")
    report = optimize(space, x_points=100)

    def no_spectrum(*args, **kwargs):
        raise AssertionError("lambda1 called before the headroom check")

    monkeypatch.setattr(sublap.spectral, "lambda1", no_spectrum)
    for cutoff in (1.8, 1.0):
        with pytest.raises(ValueError, match="four times"):
            certify(space, report, cutoff=cutoff)


REFERENCE_SPACES = [
    ("so4_twisted", {}),
    ("so3_twisted", {}),
    ("so4_alt", {}),
    ("twisted_spheres", {}),
    ("so4_twisted", {"b": 0.3}),
    ("so3_twisted", {"c": 0.3}),
]


def _reference_laplacian(space, two_js):
    mats = irrep_matrices(space, two_js)
    return -sum(m @ m for m in mats[: space.dim_h])


@pytest.mark.parametrize(
    "name, params",
    REFERENCE_SPACES,
    ids=[n + "".join(f"_{k}{v}" for k, v in p.items()) for n, p in REFERENCE_SPACES],
)
def test_hlap_matrix_matches_the_frame_image_reference(name, params):
    space = load_builtin(name, **params)
    nf = len(space.oracle.factors)
    if nf == 1:
        spins = [(0,), (1,), (4,), (21,), (24,)]
    else:
        spins = [(0,) * nf, (1,) * nf, (1, 2), (2, 3), (20, 1), (3, 22)]
    for two_js in spins:
        lap = hlap_matrix(space, two_js)
        ref = _reference_laplacian(space, two_js)
        assert lap.shape == ref.shape, two_js
        tol = 1e-10 * max(1.0, float(np.abs(lap).max()))
        assert np.abs(lap - ref).max() <= tol, two_js

    for entry in irrep_table(space).table:
        ref = np.linalg.eigvalsh(_reference_laplacian(space, entry.two_js))
        tol = 1e-9 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(entry.eigenvalues - ref) <= tol), entry.label


def test_hlap_matrix_matches_the_reference_on_three_factors():
    # A third factor copying factor 1's frame coefficients keeps the model a
    # homomorphism.  A spin-0 factor has the stride of the factor before it,
    # so the shifted diagonals of two factors coincide.
    base = load_builtin("so4_alt")
    config = base.oracle
    space = dataclasses.replace(base, oracle=dataclasses.replace(
        config,
        factors=config.factors + config.factors[:1],
        frame_map=tuple(row + row[:1] for row in config.frame_map),
    ))
    for two_js in ((1, 0, 2), (2, 0, 0), (0, 0, 3), (1, 1, 1), (3, 2, 1)):
        lap = hlap_matrix(space, two_js)
        ref = _reference_laplacian(space, two_js)
        assert lap.shape == ref.shape, two_js
        tol = 1e-10 * max(1.0, float(np.abs(lap).max()))
        assert np.abs(lap - ref).max() <= tol, two_js
    with pytest.raises(ValueError, match="one spin per factor required"):
        hlap_matrix(base, (1,))
    with pytest.raises(ValueError, match="none negative"):
        hlap_matrix(base, (-3, -3))


def test_assembly_builds_no_kronecker_products(monkeypatch):
    # Each irrep's Laplacian is built from shifted diagonals; only the
    # frame-image reference embeds generators through np.kron.
    calls = []
    kron = np.kron

    def counted_kron(*args, **kwargs):
        calls.append(1)
        return kron(*args, **kwargs)

    monkeypatch.setattr(np, "kron", counted_kron)
    space = load_builtin("so4_alt")
    lambda1(space, cutoff=90.0)
    hlap_matrix(space, (3, 2))
    assert len(calls) == 0
    irrep_matrices(space, (3, 2))
    assert len(calls) > 0


def _components(lap):
    """The connected components of lap's nonzero pattern as sets, by a plain
    search independent of the module's label propagation."""
    adjacent = (lap != 0) | (lap != 0).T
    seen, out = np.zeros(len(lap), dtype=bool), []
    for root in range(len(lap)):
        if seen[root]:
            continue
        stack, seen[root], comp = [root], True, set()
        while stack:
            k = stack.pop()
            comp.add(k)
            for nb in np.flatnonzero(adjacent[k] & ~seen):
                seen[nb] = True
                stack.append(int(nb))
        out.append(comp)
    return out


def _component_sizes(lap):
    return [len(comp) for comp in _components(lap)]


def test_blocks_are_the_connected_components_of_any_pattern():
    # The builtins' patterns are chains in index order; a random pattern
    # needs several hooking rounds (edges 0-2 and 1-2 take two).
    rng = np.random.default_rng(12)
    pattern = np.zeros((3, 3), dtype=bool)
    pattern[[0, 2, 1, 2], [2, 0, 2, 1]] = True
    patterns = [pattern, np.zeros((1, 1), dtype=bool)]
    for n in (2, 5, 17, 40):
        for density in (0.02, 0.08, 0.3):
            pattern = rng.random((n, n)) < density
            patterns.append(pattern | pattern.T)
    for pattern in patterns:
        blocks = sublap.spectral._blocks(len(pattern), *np.nonzero(pattern))
        got = sorted(sorted(row.tolist()) for stack in blocks for row in stack)
        want = sorted(sorted(comp) for comp in _components(pattern))
        assert got == want
        assert all(np.all(np.diff(stack, axis=1) > 0) for stack in blocks)
        assert len({stack.shape[1] for stack in blocks}) == len(blocks)


def _batch_eigvalsh_calls(monkeypatch):
    """Record, per `_checked_spectra` call (one batch), its irreps' doubled
    spins, as passed to `_assemble`, and dimensions, the components `_blocks`
    finds on its shared index and the shape and dtype of every stack it
    passes to `eigvalsh`."""
    records, assembled = [], []
    eigvalsh = np.linalg.eigvalsh
    blocks = sublap.spectral._blocks
    assemble = sublap.spectral._assemble
    checked = sublap.spectral._checked_spectra

    def counted_eigvalsh(a, *args, **kwargs):
        if records and records[-1]["open"]:
            records[-1]["calls"].append((np.shape(a), np.asarray(a).dtype))
        return eigvalsh(a, *args, **kwargs)

    def recorded_blocks(*args):
        out = blocks(*args)
        records[-1]["components"] += [row for stack in out for row in stack]
        return out

    def recorded_assemble(coeffs, combos):
        assembled.append(list(combos))
        return assemble(coeffs, combos)

    def marked_checked(dims, *args):
        records.append({"open": True, "combos": assembled.pop(), "dims": list(dims),
                        "calls": [], "components": []})
        try:
            return checked(dims, *args)
        finally:
            records[-1]["open"] = False

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(sublap.spectral, "_blocks", recorded_blocks)
    monkeypatch.setattr(sublap.spectral, "_assemble", recorded_assemble)
    monkeypatch.setattr(sublap.spectral, "_checked_spectra", marked_checked)
    return records


def _component_owners(record):
    """Check that a batch's components partition its shared index, stay
    inside one irrep each, and are exactly the blocks stacked for `eigvalsh`,
    at most one call per (block size, arithmetic); return each component's
    irrep, counted within the batch."""
    dims = record["dims"]
    ends = np.cumsum(dims)
    comps = record["components"]
    assert sorted(np.concatenate(comps).tolist()) == list(range(int(ends[-1])))
    owners = np.searchsorted(ends, [comp[0] for comp in comps], side="right")
    for comp, owner in zip(comps, owners):
        assert ends[owner] - dims[owner] <= comp[0] and comp[-1] < ends[owner]
    stacked = sorted(s[-1] for s, _ in record["calls"] for _ in range(s[0]))
    assert stacked == sorted(len(comp) for comp in comps)
    keys = [(s[-1], dtype) for s, dtype in record["calls"]]
    assert len(keys) == len(set(keys))
    return owners


def test_lambda1_validates_once_and_diagonalizes_each_irrep_once(monkeypatch):
    # Every row of every visited irrep is diagonalized exactly once, in
    # stacks of equal-size blocks: one eigvalsh call per (batch, block size,
    # arithmetic) at most.  Batches take irreps consecutive in lambda1's
    # visit, by ascending bound c sum_f j_f and then Casimir order, and stay
    # within the dimension limit; the table holds the visited irreps in
    # Casimir order.  The tail diagonalizes the Gram of the horizontal
    # coefficients once; that call is counted apart from the irreps'.
    records = _batch_eigvalsh_calls(monkeypatch)
    counts = dict.fromkeys(("tail", "homomorphism"), 0)
    in_tail = []
    eigvalsh = np.linalg.eigvalsh
    check = sublap.spectral._check_homomorphism
    tail = sublap.spectral._tail

    def counted_eigvalsh(*args, **kwargs):
        counts["tail"] += bool(in_tail)
        return eigvalsh(*args, **kwargs)

    def counted_check(*args, **kwargs):
        counts["homomorphism"] += 1
        return check(*args, **kwargs)

    def marked_tail(*args, **kwargs):
        in_tail.append(True)
        try:
            return tail(*args, **kwargs)
        finally:
            in_tail.pop()

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(sublap.spectral, "_check_homomorphism", counted_check)
    monkeypatch.setattr(sublap.spectral, "_tail", marked_tail)
    for name, cutoff in (("so4_twisted", None), ("so3_twisted", None),
                         ("so4_alt", None), ("twisted_spheres", None),
                         ("so4_twisted", 137.5), ("so3_twisted", 18000.0)):
        space = load_builtin(name)
        irreps = sublap.spectral._enumerate_irreps(space.oracle, cutoff or space.oracle.cutoff)
        c, _ = tail(sublap.spectral._model_coeffs(space)[: space.dim_h])
        visit = sorted(irreps, key=lambda two_js: (c * sum(two_js) / 2.0, irreps.index(two_js)))
        counts.update(tail=0, homomorphism=0)
        records.clear()
        res = lambda1(space, cutoff=cutoff)
        combos = [two_js for r in records for two_js in r["combos"]]
        assert combos == visit[: len(combos)], name
        assert sorted(combos, key=irreps.index) == [e.two_js for e in res.table], name
        assert [d for r in records for d in r["dims"]] == [
            math.prod(t + 1 for t in two_js) for two_js in combos
        ]
        for r in records:
            assert sum(r["dims"]) <= sublap.spectral._MAX_IRREP_DIM, name
            _component_owners(r)
        for r, later in zip(records, records[1:]):
            assert sum(r["dims"]) + later["dims"][0] > sublap.spectral._MAX_IRREP_DIM
        rows = sum(math.prod(s[:-1]) for r in records for s, _ in r["calls"])
        assert rows == sum(entry.dim for entry in res.table), name
        assert counts["homomorphism"] == 1, name
        assert counts["tail"] == 1, name


SPLIT_SPACES = [
    ("so4_twisted", {"b": 0.0}),
    ("so4_twisted", {"b": 0.3}),
    ("so3_twisted", {"c": 0.0}),
    ("so3_twisted", {"c": 0.3}),
    ("so4_alt", {}),
    ("twisted_spheres", {}),
]


@pytest.mark.parametrize(
    "name, params",
    SPLIT_SPACES,
    ids=[n + "".join(f"_{k}{v}" for k, v in p.items()) for n, p in SPLIT_SPACES],
)
def test_block_split_agrees_with_the_dense_spectrum(name, params):
    # The components are a permutation similarity of each irrep's Laplacian:
    # nothing couples two of them, so their spectra make up the dense one.
    space = load_builtin(name, **params)
    res = irrep_table(space)
    for entry in res.table:
        lap = hlap_matrix(space, entry.two_js)
        ref = np.linalg.eigvalsh(lap)
        tol = 1e-12 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(entry.eigenvalues - ref) <= tol), entry.label

        # Reordered block by block, lap has no nonzero entry between blocks:
        # every index lies in one block, and every entry's ends in the same.
        rows, cols = np.nonzero(lap)
        blocks = sublap.spectral._blocks(len(lap), rows, cols)
        owner = np.full(len(lap), -1)
        for k, idx in enumerate(row for stack in blocks for row in stack):
            assert np.all(np.diff(idx) > 0) and np.all(owner[idx] == -1), entry.label
            owner[idx] = k
        assert np.all(owner >= 0), entry.label
        assert np.all(owner[rows] == owner[cols]), entry.label
        assert sorted(idx.shape[1] for idx in blocks) == sorted(
            set(_component_sizes(lap))
        ), entry.label

    # the cases the split must cover: half-integer spins, a complex single
    # block, and a diagonal operator
    if name == "twisted_spheres":
        assert any(t % 2 for entry in res.table for t in entry.two_js)
    if (name, params) == ("so3_twisted", {"c": 0.3}):
        lap = hlap_matrix(space, res.table[-1].two_js)
        assert np.abs(lap.imag).max() > 0.0
        assert _component_sizes(lap) == [len(lap)]
    if (name, params) == ("so4_twisted", {"b": 0.0}):
        assert all(
            not np.any(lap - np.diag(np.diag(lap)))
            for lap in (hlap_matrix(space, e.two_js) for e in res.table)
        )


@pytest.mark.parametrize(
    "name, params",
    SPLIT_SPACES,
    ids=[n + "".join(f"_{k}{v}" for k, v in p.items()) for n, p in SPLIT_SPACES],
)
def test_each_irrep_spectrum_is_independent_of_its_batch(monkeypatch, name, params):
    # Byte for byte, an irrep's eigenvalues are the same in the full table's
    # Casimir-consecutive batches, alone on the hlap_matrix path, and in a
    # second split: the irreps in reverse order, three to a batch, so every
    # irrep sits at another offset beside other neighbours.  lambda1's own
    # batches match the full table in test_lambda1_matches_full_enumeration.
    spectral = sublap.spectral
    space = load_builtin(name, **params)
    sizes, alone = [], []
    assemble, checked = spectral._assemble, spectral._checked_spectra

    def sized(coeffs, combos):
        sizes.append(len(combos))
        return assemble(coeffs, combos)

    def kept(*args):
        alone.extend(out := checked(*args))
        return out

    monkeypatch.setattr(spectral, "_assemble", sized)
    one_factor = len(space.oracle.factors) == 1
    res = irrep_table(space, 2000.0 if one_factor else 4.0 * space.oracle.cutoff)
    assert max(sizes) > 1 and len(sizes) > 1
    monkeypatch.setattr(spectral, "_checked_spectra", kept)
    for entry in res.table:
        hlap_matrix(space, entry.two_js)
    horizontal = spectral._model_coeffs(space)[: space.dim_h]
    combos = [entry.two_js for entry in res.table][::-1]
    resplit = [
        eig
        for i in range(0, len(combos), 3)
        for eig in checked(*assemble(horizontal, combos[i : i + 3]))
    ][::-1]
    assert len(alone) == len(resplit) == len(res.table)
    for entry, one, other in zip(res.table, alone, resplit):
        want = entry.eigenvalues.tobytes()
        assert one.tobytes() == want and other.tobytes() == want, entry.label


def test_each_irrep_of_a_batch_is_checked_at_its_own_scale():
    # The 2 x 2 irrep has scale 1, so a Hermitian defect or a negative
    # eigenvalue of 1e-9 exceeds its tolerance of 1e-10; the 1 x 1 irrep
    # beside it has scale 1e3, whose tolerance of 1e-7 would let both pass.
    checked = sublap.spectral._checked_spectra
    dims = np.array([2, 1])
    large = (2, 2, 1e3)
    batches = {
        "not Hermitian": [(0, 0, 1.0), (0, 1, 0.5), (1, 0, 0.5 + 1e-9), (1, 1, 1.0), large],
        "not positive semidefinite": [(0, 0, 1.0), (1, 1, -1e-9), large],
    }
    for message, entries in batches.items():
        rows, cols, vals = (np.array(v) for v in zip(*entries))
        with pytest.raises(RuntimeError, match=message):
            checked(dims, rows, cols, vals.astype(complex))
        # in one irrep with the large entry, the same defect is within tolerance
        assert len(checked(np.array([3]), rows, cols, vals.astype(complex))[0]) == 3


def test_lambda1_memory_stays_at_one_irrep_scale():
    # Batches stop at _MAX_IRREP_DIM, so lambda1 never holds much more than
    # the largest irrep's dense matrix once did (289 x 289 complex, 1.3 MB);
    # one batch for the whole cutoff would peak near 28 MB.
    space = load_builtin("so4_twisted")
    lambda1(space, cutoff=150.0)
    tracemalloc.start()
    try:
        lambda1(space, cutoff=150.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


@pytest.mark.parametrize(
    "name, params, cutoff, largest",
    [
        ("so4_twisted", {"b": 0.0}, 150.0, lambda n: 1),
        ("so3_twisted", {"c": 0.0}, 2000.0, lambda n: -(-n // 2)),
    ],
    ids=["so4_twisted", "so3_twisted"],
)
def test_lambda1_diagonalizes_small_blocks(monkeypatch, name, params, cutoff, largest):
    # so4_twisted's Laplacian is diagonal in the product spin basis, and
    # so3_twisted's at c = 0 splits by the parity of m; dense eigvalsh of a
    # whole irrep took most of a certify run there.  Every stacked block is
    # a component of one irrep, no larger than that irrep allows.
    records = _batch_eigvalsh_calls(monkeypatch)
    res = lambda1(load_builtin(name, **params), cutoff=cutoff)
    table = {entry.two_js: entry for entry in res.table}
    for r in records:
        entries = [table.pop(two_js) for two_js in r["combos"]]
        for comp, owner in zip(r["components"], _component_owners(r)):
            assert len(comp) <= largest(entries[owner].dim), entries[owner].label
    assert not table
