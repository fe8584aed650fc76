"""Eigenvalue lower bounds: curvature forms, torsion penalties, optimization."""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from sublap import (
    HomogeneousSpace,
    bound_asn,
    bound_main,
    bound_pseudohermitian,
    bound_sntf,
    bound_t1zero,
    distortion,
    invariants,
    load_builtin,
    m_constant,
    optimize,
    report_csv,
    report_text,
)
from sublap.bounds import _largest_psd_x, _t1zero_values

from conftest import heisenberg
from oracles import feasible_rho1

CSV_HEADER = "example,theorem,bound,x,rho1,rho2,omega,chi,psi,m"


def test_bg_form_is_affine_in_x():
    for name in ("so4_twisted", "so3_twisted", "so4_alt", "twisted_spheres"):
        inv = invariants(load_builtin(name))
        q0, q4, q8 = inv.q(0.0), inv.q(0.4), inv.q(0.8)
        assert np.allclose(q0 + q8, 2.0 * q4, atol=1e-12), name
        assert np.allclose(q4, q4.T), name


def test_bg_form_rejects_x_outside_range():
    space = load_builtin("so3_twisted")
    for bound in (bound_main, bound_t1zero, bound_asn):
        for x in (1.0, 1.5, -0.01):
            with pytest.raises(ValueError, match="x must lie in"):
                bound(space, x)


def test_feasible_rho1_on_decoupled_form():
    q = np.diag([2.0, 2.0, 2.0, 1.0])
    rho1 = feasible_rho1(q, 3, 1.0)
    assert rho1 is not None and abs(rho1 - 2.0) < 1e-8
    assert feasible_rho1(q, 3, 2.0) is None


def test_feasible_rho1_on_coupled_form():
    q = np.array([[2.0, 1.0], [1.0, 2.0]])
    rho1 = feasible_rho1(q, 1, 1.0)
    # Schur complement: 2 - 1/(2 - rho2)
    assert rho1 is not None and abs(rho1 - 1.0) < 1e-8
    assert feasible_rho1(q, 1, 1.9) is None


def test_feasible_rho1_result_is_maximal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        q = a @ a.T + 0.5 * np.eye(4)
        rho2 = 0.3 * float(np.linalg.eigvalsh(q[2:, 2:]).min())
        rho1 = feasible_rho1(q, 2, rho2)
        assert rho1 is not None
        shifted = q.copy()
        shifted[:2, :2] -= rho1 * np.eye(2)
        shifted[2:, 2:] -= rho2 * np.eye(2)
        assert np.linalg.eigvalsh(shifted).min() >= -1e-8
        shifted[:2, :2] -= 1e-4 * np.eye(2)
        assert np.linalg.eigvalsh(shifted).min() < 0.0


def test_m_constant_closed_forms():
    rng = np.random.default_rng(5)
    for _ in range(50):
        omega, chi, psi = 10.0 ** rng.uniform(-3, 3, size=3)
        no_psi = m_constant(omega, chi, 0.0)
        assert np.isclose(no_psi.value, 2.0 * np.sqrt(omega * chi), rtol=1e-12)
        assert np.isclose(no_psi.s, np.sqrt(chi / omega), rtol=1e-9)
        assert not no_psi.degenerate
        no_chi = m_constant(omega, 0.0, psi)
        want = np.cbrt(27.0 / 4.0 * omega * omega * psi)
        assert np.isclose(no_chi.value, want, rtol=1e-12)
        assert np.isclose(no_chi.s, np.cbrt(2.0 * psi / omega), rtol=1e-9)


def test_m_constant_degenerate_cases():
    # omega = 0, or chi = psi = 0: the infimum 0 is only reached in a limit
    omega_zero = [(0.0, 1.0, 1.0), (0.0, 0.0, 0.0), (0.0, 2.5, 0.0), (0.0, 0.0, 3e-7)]
    chi_psi_zero = [(1.0, 0.0, 0.0), (4e5, 0.0, 0.0), (1e-9, 0.0, 0.0)]
    for args in omega_zero + chi_psi_zero:
        result = m_constant(*args)
        assert result.value == 0.0
        assert result.s is None
        assert result.degenerate


def test_m_constant_general_case_is_stationary_minimum():
    rng = np.random.default_rng(6)
    for _ in range(50):
        omega, chi, psi = 10.0 ** rng.uniform(-3, 3, size=3)
        result = m_constant(omega, chi, psi)
        s = result.s
        f = lambda u: omega * u + chi / u + psi / u**2
        assert np.isclose(result.value, f(s), rtol=1e-12)
        grad = omega - chi / s**2 - 2.0 * psi / s**3
        assert abs(grad) <= 1e-9 * omega
        assert f(s * (1.0 + 1e-4)) >= result.value
        assert f(s * (1.0 - 1e-4)) >= result.value


def test_m_constant_rejects_negative_inputs():
    for args in ((-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)):
        with pytest.raises(ValueError):
            m_constant(*args)


def test_t1zero_value_branches():
    # large gap: second branch
    vals, in1 = _t1zero_values(
        np.array([4.0]), 0.5, np.array([1.0]), np.array([1.0])
    )
    assert not in1[0]
    assert np.isclose(vals[0], (4.0 + np.sqrt(10.0)) / 3.0, rtol=1e-12)
    # small gap: first branch
    vals, in1 = _t1zero_values(
        np.array([2.1]), 2.0, np.array([1.0]), np.array([1.0])
    )
    base = 2.1**2 - 4.0
    assert in1[0]
    assert np.isclose(vals[0], 2.1 / (2.0 * (2.0 + 4.0 / base)), rtol=1e-12)


def test_fixed_x_bounds_on_builtin_examples():
    frozen = {
        ("so4_twisted", 0.0): 0.632411067,
        ("so4_twisted", 0.3): 0.275828228,
        ("so3_twisted", 0.0): 16.0 / 33.0,
        ("so4_alt", None): 0.527472527,
        ("twisted_spheres", None): 0.527472527,
    }
    for (name, param), want in frozen.items():
        kw = {}
        if name == "so4_twisted" and param is not None:
            kw["b"] = param
        elif name == "so3_twisted" and param is not None:
            kw["c"] = param
        space = load_builtin(name, **kw)
        main = bound_main(space, 0.2)
        t1z = bound_t1zero(space, 0.2)
        asn = bound_asn(space, 0.2)
        assert abs(main.value - want) < 5e-9, (name, param)
        assert abs(t1z.value - main.value) < 1e-8
        assert abs(asn.value - main.value) < 1e-8


def test_sheared_so3_only_admits_the_asn_bound():
    space = load_builtin("so3_twisted", c=0.2)
    assert bound_main(space, 0.2) is None
    assert bound_t1zero(space, 0.2) is None
    asn = bound_asn(space, 0.2)
    assert asn is not None and abs(asn.value - 0.104732097) < 1e-6


def test_fixed_x_bounds_without_a_theorem_are_none():
    # Q_HH(x) is zero on the Heisenberg group, so no theorem applies at any x
    space = heisenberg(2)
    for bound in (bound_main, bound_t1zero, bound_asn):
        assert bound(space, 0.3) is None, bound.__name__


def test_t1zero_never_falls_below_main():
    for name, kw in (("so4_twisted", {}), ("so4_twisted", {"b": 0.3}),
                     ("so3_twisted", {}), ("so4_alt", {})):
        space = load_builtin(name, **kw)
        for x in (0.0, 0.2, 0.5, 0.8):
            main = bound_main(space, x)
            t1z = bound_t1zero(space, x)
            if main is None or t1z is None:
                continue
            assert t1z.value >= main.value - 1e-9, (name, kw, x)


def test_product_gram_factors_of_sheared_so3():
    for c in (0.2, 0.5):
        grams = invariants(load_builtin("so3_twisted", c=c)).grams
        want = c * c * (c * c + 4.0) / 4.0
        assert np.allclose(grams.tau_vh[:2, :2], want * np.eye(2)), c
        assert np.allclose(grams.tau_hv[:2, :2], np.eye(2)), c


def test_distortion_vanishes_except_for_sheared_so3():
    for name, kw in (("so4_twisted", {}), ("so4_twisted", {"b": 0.3}),
                     ("so3_twisted", {}), ("so4_alt", {}),
                     ("twisted_spheres", {})):
        pack = distortion(load_builtin(name, **kw))
        assert np.max(np.abs(pack.t1)) < 1e-12, (name, kw)
        assert np.max(np.abs(pack.t2)) < 1e-12, (name, kw)
    pack = distortion(load_builtin("so3_twisted", c=0.2))
    assert np.max(np.abs(pack.t1)) < 1e-12
    assert np.max(np.abs(pack.t2)) > 0.1


def test_sntf_values_and_preconditions():
    result = bound_sntf(load_builtin("so4_twisted"))
    assert np.isclose(result.value, 20.0 / 31.0, rtol=1e-12)
    assert (result.x, result.rho1, result.rho2) == (1.0 / 3.0, 1.0, 1.0)

    result = bound_sntf(load_builtin("so3_twisted"))
    assert np.isclose(result.value, 0.5, rtol=1e-12)
    assert (result.rho1, result.rho2) == (1.0, 0.5)

    for name in ("so4_alt", "twisted_spheres"):
        result = bound_sntf(load_builtin(name))
        assert np.isclose(result.value, 6.0 / 11.0, rtol=1e-12), name
        assert (result.rho1, result.rho2) == (2.0, 0.5), name

    assert bound_sntf(load_builtin("so4_twisted", b=0.3)) is None
    assert bound_sntf(load_builtin("so3_twisted", c=0.2)) is None


def test_sntf_agrees_with_asn_at_its_optimum():
    for name in ("so4_twisted", "so3_twisted", "so4_alt", "twisted_spheres"):
        space = load_builtin(name)
        sntf = bound_sntf(space)
        asn = bound_asn(space, 1.0 / 3.0)
        assert abs(sntf.value - asn.value) < 1e-9, name


def test_optimize_on_reference_examples():
    rep = optimize(load_builtin("so4_twisted"), x_points=400)
    assert sorted(e.theorem for e in rep.entries) == ["asn", "main", "sntf", "t1zero"]
    for e in rep.entries:
        assert abs(e.value - 20.0 / 31.0) < 1e-8, e.theorem
    assert abs(rep.best.x - 1.0 / 3.0) < 1e-2
    assert rep.discrepancies == []

    rep = optimize(load_builtin("so3_twisted"), x_points=400)
    assert abs(rep.best.value - 0.5) < 1e-8
    assert rep.discrepancies == []


def test_optimize_on_twist_family():
    rep = optimize(load_builtin("so4_twisted", b=0.3), x_points=400)
    assert sorted(e.theorem for e in rep.entries) == ["asn", "main", "t1zero"]
    assert abs(rep.best.value - 0.275899678) < 1e-7
    assert abs(rep.best.x - 0.2085) < 1e-2


def test_optimize_on_sheared_so3():
    rep = optimize(load_builtin("so3_twisted", c=0.2), x_points=400)
    assert [e.theorem for e in rep.entries] == ["asn"]
    assert abs(rep.best.value - 0.166802985) < 1e-7
    assert abs(rep.best.x) < 1e-9


def test_optimize_reports_convention_variants():
    rep = optimize(load_builtin("so4_alt"), x_points=200)
    assert len(rep.discrepancies) == 1
    note = rep.discrepancies[0]
    assert note.theorem == "sntf"
    assert np.isclose(note.value, 6.0 / 11.0, rtol=1e-12)
    assert np.isclose(note.variant, 4.0 / 9.0, rtol=1e-12)
    assert "d/(d-1)" in note.convention

    rep = optimize(load_builtin("twisted_spheres"), x_points=200)
    assert len(rep.discrepancies) == 1
    note = rep.discrepancies[0]
    assert np.isclose(note.value, 6.0 / 11.0, rtol=1e-12)
    assert np.isclose(note.variant, 0.3, rtol=1e-12)
    assert "rho2" in note.convention


def test_refinement_never_loses_to_the_grid():
    space = load_builtin("so3_twisted")
    rep = optimize(space, x_points=37)
    grid_best = max(
        bound_main(space, x).value
        for x in np.arange(37) / 37.0
        if bound_main(space, x) is not None
    )
    assert rep.best.value >= grid_best - 1e-12
    assert rep.best.value <= 0.5 + 1e-9


def test_optimize_rejects_grid_sizes_below_one():
    space = load_builtin("so3_twisted")
    for grids in ({"x_points": 0}, {"x_points": -5}, {"rho2_per_decade": 0}):
        with pytest.raises(ValueError, match="at least 1"):
            optimize(space, **grids)


def test_optimize_without_vertical_coupling_is_empty():
    flat = HomogeneousSpace("flat", 3, 1, np.zeros((4, 4, 4)))
    rep = optimize(flat, x_points=50)
    assert rep.entries == [] and rep.best is None
    assert report_text(rep) == (
        "example = flat\nbounds = none (no positive curvature constants)\n"
    )
    assert report_csv(rep) == CSV_HEADER + "\n"


def test_report_rendering_and_determinism():
    space = load_builtin("so4_alt")
    rep1 = optimize(space, x_points=120)
    rep2 = optimize(space, x_points=120)
    text = report_text(rep1)
    csv = report_csv(rep1)
    assert text == report_text(rep2)
    assert csv == report_csv(rep2)
    assert text.startswith("example = so4_alt\n")
    assert "best = " in text
    assert "theorem = sntf [denominator uses d/(d-1)]" in text
    lines = csv.splitlines()
    assert lines[0] == CSV_HEADER
    assert any(line.startswith("so4_alt,sntf-variant,") for line in lines)
    # the asn row leaves the penalty decomposition cells empty
    asn_row = next(line for line in lines if line.startswith("so4_alt,asn,"))
    assert asn_row.endswith(",,,")


def test_pseudohermitian_exact_rational_values():
    for n in range(1, 7):
        flat = bound_pseudohermitian(n, Fraction(3), 0)
        assert flat.value == Fraction(3 * n, n + 1)
        assert flat.x == Fraction(1, 3)
        threshold = Fraction(8, 2 * n + 11)
        kinked = bound_pseudohermitian(n, Fraction(3), threshold)
        assert kinked.value == Fraction(6 * n, 2 * n + 11)
        assert kinked.x == 0
        # above the threshold the optimum stays parked at x = 0
        above = bound_pseudohermitian(n, Fraction(3), threshold + Fraction(1, 10))
        assert above.x == 0


def test_pseudohermitian_interior_branch_is_a_maximum():
    n, rho, c = 2, 1.0, 0.1
    result = bound_pseudohermitian(n, rho, c)
    assert 0.0 < result.x < 1.0 / 3.0

    def objective(x):
        num = 2 * n * rho * (-3 * x * x + (2 - 3 * c) * x + 1 - c)
        den = -3 * (2 * n - 1) * x * x + 2 * (2 * n - 1) * x + 2 * n + 3
        return num / den

    assert np.isclose(result.value, objective(result.x), rtol=1e-12)
    assert objective(result.x + 1e-5) <= result.value + 1e-12
    assert objective(result.x - 1e-5) <= result.value + 1e-12


def test_pseudohermitian_branches_join_continuously():
    n, rho = 2, 1.0
    threshold = 8.0 / (2 * n + 11)
    lo = bound_pseudohermitian(n, rho, threshold - 1e-6)
    hi = bound_pseudohermitian(n, rho, threshold)
    assert abs(lo.value - hi.value) < 1e-4
    near_flat = bound_pseudohermitian(n, rho, 1e-9)
    assert abs(near_flat.value - 2.0 / 3.0) < 1e-6


def test_pseudohermitian_is_decreasing_in_the_torsion_level():
    values = [bound_pseudohermitian(2, 1.0, c).value for c in (0.0, 0.1, 0.3, 0.6)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_pseudohermitian_rejects_bad_arguments():
    for n, rho, c in ((0, 1, 0), (2, 0, 0), (2, -1, 0), (2, 1, 1), (2, 1, 1.5),
                      (2, 1, -0.1)):
        with pytest.raises(ValueError):
            bound_pseudohermitian(n, rho, c)


def _affine_form(a, b):
    """A stand-in for Invariants whose Q(x) = diag(a) + x diag(b)."""
    a, b = np.diag(a), np.diag(b)
    return SimpleNamespace(q=lambda x: a + np.asarray(x, dtype=float)[..., None, None] * b)


def test_largest_psd_x_finds_the_right_end_of_the_admissible_interval():
    assert _largest_psd_x(_affine_form([1.0, 0.0], [-1.0, 0.5])) == 1.0
    # Q(0) is not PSD: golden section finds a point inside [0.2, 0.9] first
    got = _largest_psd_x(_affine_form([-0.2, 0.9], [1.0, -1.0]))
    assert abs(got - 0.9) < 1e-11
    assert _largest_psd_x(_affine_form([-0.6, 0.4], [1.0, -1.0])) is None
    # the root of the (e1, e6) block of so4_twisted, x = s/(2 - s) with
    # s = 1/sqrt(1 + b^2), at every twist (b = 0 is admissible up to x = 1)
    for b in (0.0, 0.1, -0.3, 0.7, 2.0, 5.0):
        s = 1.0 / math.sqrt(1.0 + b * b)
        got = _largest_psd_x(invariants(load_builtin("so4_twisted", b=b)))
        assert abs(got - s / (2.0 - s)) < 1e-10, b
