"""Exact spectra of the model operators and bound certification."""

from __future__ import annotations

import math

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
    rescale_vertical,
    spin_matrices,
)
from conftest import random_orthogonal, rotate_frame


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
    frozen = {
        "so4_twisted": (2.0, "(1/2, 1/2)", 8.0, True,
                        "rigorous tail (commuting vertical images)"),
        "so3_twisted": (1.0, "(1)", math.sqrt(40.25) - 0.5, True,
                        "rigorous tail (commuting vertical images)"),
        "so4_alt": (1.0, "(1/2, 1/2)", 4.0, True,
                    "rigorous tail (vertical su(2) triple)"),
        "twisted_spheres": (1.0, "(1/2, 1)", None, False,
                            "heuristic tail (frame couples the factors)"),
    }
    for name, (lam, witness, tail, rigorous, note) in frozen.items():
        res = lambda1(load_builtin(name))
        assert abs(res.lambda1 - lam) < 1e-10, name
        assert res.witness == witness, name
        assert res.rigorous == rigorous, name
        assert res.tail_note == note, name
        if tail is None:
            assert res.tail_bound is None, name
        else:
            assert abs(res.tail_bound - tail) < 1e-10, name


def test_lambda1_of_the_twist_family():
    for b in (0.1, 0.2, 0.3):
        res = lambda1(load_builtin("so4_twisted", b=b))
        assert abs(res.lambda1 - (2.0 + b * b)) < 1e-9, b
        assert res.witness == "(1/2, 1/2)"
        assert not res.rigorous
        assert res.tail_note == "heuristic tail (frame Gram is anisotropic)"


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


def test_lambda1_is_stable_under_cutoff_growth():
    for name, cut in (("so3_twisted", 20.0), ("so4_alt", 12.0)):
        lo = lambda1(load_builtin(name), cutoff=cut)
        hi = lambda1(load_builtin(name))
        assert abs(lo.lambda1 - hi.lambda1) < 1e-12, name


def test_lambda1_is_invariant_under_frame_rotations():
    base = load_builtin("so4_alt")
    rng = np.random.default_rng(17)
    fm = np.array(base.oracle.frame_map)
    n, d = base.dim, base.dim_h
    for _ in range(2):
        oh = random_orthogonal(rng, d)
        ov = random_orthogonal(rng, n - d)
        rotated = rotate_frame(base, oh, ov)
        o = np.zeros((n, n))
        o[:d, :d] = oh
        o[d:, d:] = ov
        fmr = np.einsum("ai,afx->ifx", o, fm)
        oracle = OracleConfig(
            factors=base.oracle.factors,
            frame_map=tuple(tuple(tuple(r) for r in row) for row in fmr),
            cutoff=12.0,
            integer_sum=base.oracle.integer_sum,
        )
        rotated = HomogeneousSpace(
            rotated.name, d, n - d, rotated.c, rotated.params, oracle
        )
        res = lambda1(rotated)
        assert abs(res.lambda1 - 1.0) < 1e-10


def test_lambda1_requires_a_spectral_model():
    space = rescale_vertical(load_builtin("so3_twisted"), 2.0)  # drops the model
    with pytest.raises(ValueError):
        lambda1(space)


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

    res = lambda1(space)
    for entry in res.table:
        ref = np.linalg.eigvalsh(_reference_laplacian(space, entry.two_js))
        tol = 1e-9 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(entry.eigenvalues - ref) <= tol), entry.label


def test_lambda1_validates_once_and_diagonalizes_each_irrep_once(monkeypatch):
    # The tail estimate diagonalizes small factor-weight matrices of its own;
    # its calls are counted apart from the irreps'.
    counts = dict.fromkeys(("irreps", "tail", "homomorphism"), 0)
    in_tail = []
    eigvalsh = np.linalg.eigvalsh
    check = sublap.spectral._check_homomorphism
    tail = sublap.spectral._tail_estimate

    def counted_eigvalsh(*args, **kwargs):
        counts["tail" if in_tail else "irreps"] += 1
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
    monkeypatch.setattr(sublap.spectral, "_tail_estimate", marked_tail)
    for name in ("so4_twisted", "so3_twisted", "so4_alt", "twisted_spheres"):
        counts.update(irreps=0, tail=0, homomorphism=0)
        res = lambda1(load_builtin(name))
        assert counts["irreps"] == len(res.table), name
        assert counts["homomorphism"] == 1, name
        assert counts["tail"] <= 3, name
