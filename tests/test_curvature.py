"""Curvature traces, torsion Grams, and the structural classification."""

from __future__ import annotations

import numpy as np

from sublap import (
    canonical_connection,
    classify,
    load_builtin,
    rigidity,
    seminorm_grams,
    sub_ricci,
)
from oracles import riemann

ALL_TRUE = {
    "h_rigid": True,
    "v_rigid": True,
    "totally_rigid": True,
    "h_normal": True,
    "v_normal": True,
    "strictly_normal": True,
    "vm_integrable": True,
    "almost_strictly_normal": True,
}


def _flags(name, **kw):
    flags = classify(canonical_connection(load_builtin(name, **kw)))
    return {key: getattr(flags, key) for key in ALL_TRUE}


def test_classification_of_builtin_examples():
    assert _flags("so4_twisted") == ALL_TRUE
    assert _flags("so4_twisted", b=0.3) == ALL_TRUE
    assert _flags("so3_twisted") == ALL_TRUE
    assert _flags("so4_alt") == ALL_TRUE
    assert _flags("twisted_spheres") == ALL_TRUE
    sheared = _flags("so3_twisted", c=0.2)
    assert sheared == {**ALL_TRUE, "h_normal": False, "strictly_normal": False}


def test_sub_ricci_of_so4_twisted():
    conn = canonical_connection(load_builtin("so4_twisted"))
    src = sub_ricci(conn)
    assert np.allclose(src, np.diag([1.0, 1.5, 1.5, 1.5, 1.5, 0.0]))


def test_sub_ricci_of_sheared_so3():
    for c in (0.0, 0.2, -0.5):
        conn = canonical_connection(load_builtin("so3_twisted", c=c))
        src = sub_ricci(conn)
        want = np.array([[1.0, -c], [-c, 1.0 + c * c]])
        assert np.allclose(src[:2, :2], want), c
        assert np.allclose(src[2:, :], 0.0) and np.allclose(src[:, 2:], 0.0)


def test_sub_ricci_of_product_examples():
    for name in ("so4_alt", "twisted_spheres"):
        conn = canonical_connection(load_builtin(name))
        src = sub_ricci(conn)
        assert np.allclose(src, np.diag([2.0, 2.0, 2.0, 0.0, 0.0, 0.0])), name


def test_torsion_grams():
    conn = canonical_connection(load_builtin("so4_twisted"))
    grams = seminorm_grams(conn)
    assert np.allclose(grams.tau_h[5:, 5:], [[4.0]])
    assert np.allclose(np.linalg.eigvalsh(grams.tau_hv[:5, :5]), [0, 1, 1, 1, 1])

    conn = canonical_connection(load_builtin("so3_twisted", c=0.2))
    grams = seminorm_grams(conn)
    assert np.allclose(grams.tau_h[2:, 2:], [[2.0]])
    assert np.allclose(grams.tau_hv[:2, :2], np.eye(2))

    for name in ("so4_alt", "twisted_spheres"):
        conn = canonical_connection(load_builtin(name))
        grams = seminorm_grams(conn)
        assert np.allclose(grams.tau_h[3:, 3:], 2.0 * np.eye(3)), name
        assert np.allclose(grams.tau_hv[:3, :3], 2.0 * np.eye(3)), name


def test_gram_matrices_are_symmetric_psd():
    for name in ("so4_twisted", "so3_twisted", "so4_alt", "twisted_spheres"):
        grams = seminorm_grams(canonical_connection(load_builtin(name)))
        for mat in (grams.tau_vh, grams.tau_hv, grams.tau_h):
            assert np.allclose(mat, mat.T), name
            assert np.linalg.eigvalsh(mat).min() >= -1e-12, name


def test_horizontal_coupling_strength_grows_with_twist():
    # largest eigenvalue of the horizontal block of tau_hv
    for b in (0.0, 0.3, 0.5):
        conn = canonical_connection(load_builtin("so4_twisted", b=b))
        grams = seminorm_grams(conn)
        top = np.linalg.eigvalsh(grams.tau_hv[:5, :5])[-1]
        assert np.isclose(top, (1.0 + abs(b)) ** 2), b


def test_riemann_antisymmetries():
    for name in ("so4_twisted", "so3_twisted", "so4_alt", "twisted_spheres"):
        rm = riemann(canonical_connection(load_builtin(name)))
        assert np.allclose(rm, -rm.transpose(1, 0, 2, 3)), name
        assert np.allclose(rm, -rm.transpose(0, 1, 3, 2)), name


def test_builtin_examples_have_no_rigidity_defect():
    for name, kw in (("so4_twisted", {"b": 0.4}), ("so3_twisted", {"c": 0.5}),
                     ("so4_alt", {}), ("twisted_spheres", {})):
        r = rigidity(canonical_connection(load_builtin(name, **kw)))
        assert np.allclose(r, 0.0), (name, kw)
