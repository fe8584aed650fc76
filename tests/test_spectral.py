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
    invariants,
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
    (c s, Casimir order), each with its bound within 1e-9 of the least
    nontrivial bottom of the irreps before it, and skips only irreps whose
    bound passes lambda1 by more than 1e-9; its result and the visited
    irreps' eigenvalues are the full table's to the byte."""
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
    least = math.inf
    for two_js in seen:
        assert bound[two_js] <= least + 1e-9, two_js
        if any(two_js):
            least = min(least, float(full.table[rank[two_js]].eigenvalues[0]))
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


def test_lambda1_builds_only_the_irreps_that_can_hold_lambda1(monkeypatch):
    # In the given frames at the benchmark's cutoffs the visit builds the
    # trivial irrep and the few whose bound c s does not pass the least
    # bottom found, one `_assemble` each, out of 134 to 206 irreps.
    built, assemble = [], sublap.spectral._assemble

    def counted(coeffs, two_js):
        built.append(two_js)
        return assemble(coeffs, two_js)

    monkeypatch.setattr(sublap.spectral, "_assemble", counted)
    for name, want in (("so4_twisted", 4), ("so4_alt", 4), ("twisted_spheres", 9),
                       ("so3_twisted", 2)):
        built.clear()
        res = lambda1(load_builtin(name), cutoff=BENCH_CUTOFFS[name])
        assert len(built) == len(res.table) == want, name
        assert sorted(built) == sorted(e.two_js for e in res.table), name
        assert res.skipped > 100, name


def test_lambda1_visits_an_irrep_whose_bound_is_within_the_stop_slack(monkeypatch):
    # so4_alt's lambda1 = 1 lies at s = 1 and its tail constant is about 1;
    # the sound c = (lambda1 + 5e-10)/2 puts every s = 2 irrep's bound c s
    # above lambda1 by less than the 1e-9 slack, so the visit takes them all
    # and stops at s = 3
    space = load_builtin("so4_alt")
    exact = lambda1(space)
    c = (exact.lambda1 + 5e-10) / 2.0
    monkeypatch.setattr(sublap.spectral, "_tail", lambda horizontal: (c, "patched"))
    res = lambda1(space)
    assert (res.lambda1, res.witness) == (exact.lambda1, exact.witness)
    sums = sorted(sum(e.two_js) for e in res.table)  # twice s
    assert sums.count(4) == 5 and sums[-1] == 4, sums


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
        lambda1(dataclasses.replace(so4_weighted(), oracle=None))


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
    message = r"homomorphism at frame pair \(1, 2\)$"
    with pytest.raises(ValueError, match=message):
        lambda1(space)
    with pytest.raises(ValueError, match=message):
        hlap_matrix(space, (2,))
    # [e2, e3] = 2 e1 with e_i -> g_i: only the pair (2, 3) fails, after
    # pairs that hold
    c[1, 2, 0], c[2, 1, 0] = 2.0, -2.0
    frame_map = (((1.0, 0.0, 0.0),), ((0.0, 1.0, 0.0),), ((0.0, 0.0, 1.0),))
    oracle = dataclasses.replace(oracle, frame_map=frame_map)
    space = HomogeneousSpace("badbracket", 2, 1, c, {}, oracle)
    message = r"homomorphism at frame pair \(2, 3\)$"
    with pytest.raises(ValueError, match=message):
        lambda1(space)
    with pytest.raises(ValueError, match=message):
        hlap_matrix(space, (2,))


@pytest.mark.parametrize("name", ["so4_alt", "so4_twisted", "twisted_spheres", "so3_twisted"])
def test_homomorphism_check_names_the_first_pair_a_loop_finds(name):
    # the check takes every frame pair in one array pass; the loop over pairs
    # i < j with one einsum and one cross product each is the reference
    space = load_builtin(name)
    rng = np.random.default_rng(31)
    base = np.asarray(space.oracle.frame_map, dtype=float)
    for trial in range(24):
        coeffs = base.copy()
        if trial:  # one entry moved by far more, or far less, than the tolerance
            coeffs[tuple(rng.integers(coeffs.shape))] += rng.choice([1e-20, 1e-6, 1.0])
        tol = 1e-12 * max(1.0, np.abs(coeffs).max() ** 2, np.abs(space.c).max())
        pairs = []
        for i in range(space.dim):
            for j in range(i + 1, space.dim):
                want = np.einsum("k,kfa->fa", space.c[i, j], coeffs)
                if np.abs(np.cross(coeffs[i], coeffs[j]) - want).max() > tol:
                    pairs.append((i + 1, j + 1))
        if not pairs:
            sublap.spectral._check_homomorphism(space, coeffs)
            continue
        message = rf"at frame pair \({pairs[0][0]}, {pairs[0][1]}\)$"
        with pytest.raises(ValueError, match=message):
            sublap.spectral._check_homomorphism(space, coeffs)


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


def test_hlap_matrix_and_irrep_matrices_refuse_an_irrep_past_the_limit(monkeypatch):
    # so3_twisted at c != 0 is one complex component, so its spin-10000 irrep
    # would take dense 20001 x 20001 complex arrays of 6.4 GB each.  The
    # dimension is checked before anything is built; nothing here builds one.
    def never(*args, **kwargs):
        raise AssertionError("irrep built")

    for helper in ("_assemble", "_embed", "spin_matrices"):
        monkeypatch.setattr(sublap.spectral, helper, never)
    limit = sublap.spectral._MAX_IRREP_DIM
    so3, so4 = load_builtin("so3_twisted", c=0.3), load_builtin("so4_alt")
    for call in (hlap_matrix, irrep_matrices):
        for space, two_js in ((so3, (20000,)), (so3, (limit,)), (so4, (31, 32))):
            with pytest.raises(ValueError, match=f"dimension above {limit}$") as err:
                call(space, two_js)
            assert "\n" not in str(err.value)
        for space, two_js in ((so3, (limit - 1,)), (so4, (31, 31))):
            with pytest.raises(AssertionError, match="irrep built"):
                call(space, two_js)


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


def _irrep_eigvalsh_calls(monkeypatch):
    """Record, per `_assemble` call (one irrep), its doubled spins and its
    dimension, the dtype it should be diagonalized in (real unless an entry
    is imaginary), how often `_checked_spectrum` then ran and the shape and
    dtype of every array passed to `eigvalsh`."""
    records = []
    eigvalsh = np.linalg.eigvalsh
    assemble = sublap.spectral._assemble
    checked = sublap.spectral._checked_spectrum

    def counted_eigvalsh(a, *args, **kwargs):
        if records and records[-1]["open"]:
            records[-1]["calls"].append((np.shape(a), np.asarray(a).dtype))
        return eigvalsh(a, *args, **kwargs)

    def recorded_assemble(coeffs, two_js):
        lap = assemble(coeffs, two_js)
        records.append({"two_js": two_js, "open": False, "checked": 0, "calls": [],
                        "dim": len(lap),
                        "dtype": lap.dtype if lap.imag.any() else np.dtype(float)})
        return lap

    def marked_checked(lap):
        record = records[-1]
        record.update(open=True, checked=record["checked"] + 1)
        try:
            return checked(lap)
        finally:
            record["open"] = False

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(sublap.spectral, "_assemble", recorded_assemble)
    monkeypatch.setattr(sublap.spectral, "_checked_spectrum", marked_checked)
    return records


def test_lambda1_validates_once_and_diagonalizes_each_irrep_once(monkeypatch):
    # Every visited irrep is diagonalized exactly once, as one (dim, dim)
    # matrix, real where no entry is imaginary.  Irreps are assembled one at
    # a time in lambda1's visit, by ascending bound c sum_f j_f and then
    # Casimir order; the table holds the visited irreps in Casimir order.
    # The tail diagonalizes the Gram of the horizontal coefficients once;
    # that call is counted apart from the irreps'.
    records = _irrep_eigvalsh_calls(monkeypatch)
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
    # the moved so4_alt frame has c = 0 and visits every irrep; so3_twisted
    # at c = 0.3 has imaginary entries
    moved = moved_frame(load_builtin("so4_alt"), np.random.default_rng(19))
    twisted = load_builtin("so3_twisted", c=0.3)
    dtypes = set()
    for name, cutoff in (("so4_twisted", None), ("so3_twisted", None),
                         ("so4_alt", None), ("twisted_spheres", None),
                         ("so4_twisted", 137.5), ("so3_twisted", 18000.0), (moved, 40.0),
                         (twisted, None)):
        space = load_builtin(name) if isinstance(name, str) else name
        irreps = sublap.spectral._enumerate_irreps(space.oracle, cutoff or space.oracle.cutoff)
        c, _ = tail(sublap.spectral._model_coeffs(space)[: space.dim_h])
        visit = sorted(irreps, key=lambda two_js: (c * sum(two_js) / 2.0, irreps.index(two_js)))
        counts.update(tail=0, homomorphism=0)
        records.clear()
        res = lambda1(space, cutoff=cutoff)
        combos = [r["two_js"] for r in records]
        assert combos == visit[: len(combos)], name
        assert sorted(combos, key=irreps.index) == [e.two_js for e in res.table], name
        assert [r["dim"] for r in records] == [
            math.prod(t + 1 for t in two_js) for two_js in combos
        ]
        for r in records:
            assert r["checked"] == 1
            assert r["calls"] == [((r["dim"], r["dim"]), r["dtype"])], name
            dtypes.add(r["dtype"])
        assert counts["homomorphism"] == 1, name
        assert counts["tail"] == 1, name
    assert dtypes == {np.dtype(float), np.dtype(complex)}


def test_an_irrep_is_checked_at_its_own_scale():
    # At scale 1 a Hermitian defect or a negative eigenvalue of 1e-9 exceeds
    # the tolerance of 1e-10; beside an entry of 1e3 the scale is 1e3, whose
    # tolerance of 1e-7 lets both pass.
    checked = sublap.spectral._checked_spectrum
    irreps = {
        "not Hermitian": [[1.0, 0.5], [0.5 + 1e-9, 1.0]],
        "not positive semidefinite": [[1.0, 0.0], [0.0, -1e-9]],
    }
    for message, entries in irreps.items():
        with pytest.raises(RuntimeError, match=message):
            checked(np.array(entries, dtype=complex))
        lap = np.zeros((3, 3), dtype=complex)
        lap[:2, :2], lap[2, 2] = entries, 1e3
        assert len(checked(lap)) == 3


def test_lambda1_memory_stays_at_one_irrep_scale(monkeypatch):
    # lambda1 holds one irrep's working arrays at a time, so with every irrep
    # built (c = 0) it never holds much more than the largest irrep's dense
    # matrix once did (289 x 289 complex, 1.3 MB); the whole cutoff on one
    # shared index would peak near 28 MB.
    monkeypatch.setattr(sublap.spectral, "_tail", lambda horizontal: (0.0, "none"))
    space = load_builtin("so4_twisted")
    lambda1(space, cutoff=150.0)
    tracemalloc.start()
    try:
        lambda1(space, cutoff=150.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


# Each theorem branch: the given-frame space with a spectral model where it
# fires, and the branch read from that space's reported entry of the theorem.
_BRANCHES = {
    "main:m=0": (lambda: load_builtin("so4_alt"), "main", lambda e, kind: e.m == 0.0),
    "main:m=2sqrt(omega*chi)": (
        lambda: load_builtin("so3_twisted", c=0.05),
        "main",
        lambda e, kind: e.psi == 0.0 < e.chi
        and math.isclose(e.m, 2.0 * math.sqrt(e.omega * e.chi)),
    ),
    # open: no given-frame space with a model has a real torsion penalty
    # psi > 0; random su(2)-product models are the route to one
    "main:psi>0": None,
    "t1zero:case1": (
        lambda: load_builtin("so3_twisted", c=0.05), "t1zero", lambda e, kind: e.aux["case"] == 1.0
    ),
    "t1zero:case2": (
        lambda: load_builtin("so4_alt"), "t1zero", lambda e, kind: e.aux["case"] == 2.0
    ),
    "asn:zero": (lambda: load_builtin("so4_alt"), "asn", lambda e, kind: kind == "zero"),
    "asn:isotropic": (
        lambda: load_builtin("so3_twisted", c=0.1), "asn", lambda e, kind: kind == "isotropic"
    ),
    "asn:general": (so4_weighted, "asn", lambda e, kind: kind == "general"),
    "sntf": (lambda: load_builtin("so4_alt"), "sntf", lambda e, kind: True),
}


@pytest.mark.parametrize("branch", [b for b, row in _BRANCHES.items() if row])
def test_every_theorem_branch_meets_the_exact_spectrum(branch):
    make, theorem, fires = _BRANCHES[branch]
    space = make()
    report = optimize(space)
    (entry,) = [e for e in report.entries if e.theorem == theorem]
    assert fires(entry, invariants(space).product[0]), entry
    result = certify(space, report)
    assert [e.passed for e in result.entries if e.theorem == theorem] == [True]
    assert result.all_passed
