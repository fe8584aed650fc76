"""Soundness of the caps that prune the x sweep of `optimize`, and the
sharing of Schur curves between theorems.

At every x the cap of a theorem must be at least the value that theorem
reaches there over its rho2 candidates, so that visiting x in decreasing cap
order and stopping at the first cap below the best value never changes the
result.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import sublap.bounds
from sublap import (
    HomogeneousSpace,
    bound_asn,
    bound_main,
    bound_t1zero,
    load_builtin,
    optimize,
)
from sublap.bounds import (
    _caps,
    _evaluate,
    _rho2_base_grid,
    _t1zero_cap,
    _t1zero_values,
    _theorems,
    invariants,
)

from conftest import free_step2, heisenberg, random_space, so4_weighted

BOUNDS = {"main": bound_main, "t1zero": bound_t1zero, "asn": bound_asn}

# The sweep points of the benchmark's sweep-twisted workload, the untwisted
# members of both families, the other builtins and the general asn branch.
NAMED = {
    **{f"so4_twisted-b{b}": ("so4_twisted", {"b": b}) for b in (0.0, 0.1, 0.2, 0.3, 0.4)},
    **{f"so3_twisted-c{c}": ("so3_twisted", {"c": c}) for c in (0.0, 0.05, 0.1, 0.5, 0.9)},
    "so4_alt": ("so4_alt", {}),
    "twisted_spheres": ("twisted_spheres", {}),
}
RANDOM_DRAWS = 40


def _space(key: str) -> tuple[HomogeneousSpace, int]:
    """The space and its rho2 grid density: the default for the named spaces,
    a coarser grid for the random draws to keep the suite fast."""
    if key == "so4_weighted":
        return so4_weighted(), 200
    if key.startswith("random-"):
        return random_space(np.random.default_rng([2026, int(key[7:])])), 20
    name, params = NAMED[key]
    return load_builtin(name, **params), 200


KEYS = [*NAMED, "so4_weighted", *(f"random-{i}" for i in range(RANDOM_DRAWS))]


@pytest.mark.parametrize("key", KEYS)
def test_cap_is_at_least_the_value_at_every_x(key):
    space, per_decade = _space(key)
    inv = invariants(space)
    names = _theorems(inv)
    grid = _rho2_base_grid(inv.kappa, per_decade)
    xs = np.arange(100, dtype=float) / 100
    caps = _caps(inv, names, xs, grid)
    for i, x in enumerate(xs):
        for name, res in _evaluate(inv, names, float(x), grid).items():
            if res is not None and math.isfinite(res.value):
                assert caps[name][i] >= res.value, (name, x, caps[name][i], res.value)


@pytest.mark.parametrize("key", KEYS)
def test_optimize_never_loses_to_the_unpruned_grid(key):
    space, per_decade = _space(key)
    rep = optimize(space, x_points=37, rho2_per_decade=per_decade)
    got = {e.theorem: e.value for e in rep.entries}
    for name in _theorems(invariants(space)):
        bound = BOUNDS[name]
        values = [bound(space, x / 37, rho2_per_decade=per_decade) for x in range(37)]
        values = [r.value for r in values if r is not None and r.value > 0.0]
        if values:
            assert got[name] >= max(values), (name, got.get(name), max(values))


def test_t1zero_cap_bounds_every_rho1_up_to_r():
    # r around the case-1 threshold, where case 1 can beat case 2 at r
    rng = np.random.default_rng(3)
    for _ in range(200):
        delta = rng.uniform(0.0, 2.0)
        omega, chi = 10.0 ** rng.uniform(-2.0, 1.0, size=2)
        r = math.sqrt(4.0 * chi * (omega + delta)) * rng.uniform(0.8, 1.5)
        vals, _ = _t1zero_values(np.linspace(0.0, r, 2001), delta, omega, chi)
        cap = _t1zero_cap(np.array(r), delta, omega, chi, 1e-12)
        assert np.nanmax(vals, initial=-math.inf) <= cap


@pytest.mark.parametrize(
    "key", ["so4_twisted-b0.3", "so3_twisted-c0.05", "so4_alt", "so4_weighted"]
)
def test_shared_curve_gives_each_theorem_its_own_result(key):
    # main, t1zero and asn evaluated together read one Schur curve (two when
    # q_tt2 is nonzero, as on so3_twisted and so4_weighted); in either order,
    # each result must equal the one the theorem gets alone, to the last bit.
    space, per_decade = _space(key)
    inv = invariants(space)
    names = _theorems(inv)
    grid = _rho2_base_grid(inv.kappa, per_decade)
    for x in np.linspace(0.0, 0.95, 12):
        alone = {name: _evaluate(inv, [name], float(x), grid)[name] for name in names}
        for order in (names, names[::-1]):
            together = _evaluate(inv, order, float(x), grid)
            assert repr(together) == repr({name: alone[name] for name in order}), x


@pytest.mark.parametrize(
    "make, x_points, most",
    [
        pytest.param(lambda: load_builtin("so4_twisted", b=0.3), 2000, 63, id="so4_twisted"),
        pytest.param(lambda: load_builtin("so4_alt"), 2000, 63, id="so4_alt"),
        pytest.param(lambda: load_builtin("twisted_spheres"), 2000, 63, id="twisted_spheres"),
        # the theorems peak at different x here, so no golden step shares a
        # curve between them
        pytest.param(lambda: load_builtin("so3_twisted", c=0.05), 2000, 190, id="so3_twisted"),
        # no theorem yields a bound, so each sweeps every x; stepping together,
        # they build one curve per x, not one per theorem and x
        pytest.param(lambda: heisenberg(1), 200, 200, id="heisenberg3"),
        pytest.param(lambda: free_step2(3), 200, 200, id="free_step2_r3"),
    ],
)
def test_optimize_builds_one_schur_curve_per_refined_x(monkeypatch, make, x_points, most):
    calls = []
    schur = sublap.bounds._schur

    def counted(*args):
        calls.append(args)
        return schur(*args)

    monkeypatch.setattr(sublap.bounds, "_schur", counted)
    optimize(make(), x_points=x_points)
    assert len(calls) <= most
