"""Soundness of the caps that prune the x sweep of `optimize` and the rho2
candidates inside each Schur curve, and the sharing of Schur curves between
theorems.

At every x each level of a theorem's cap (root, cell and leaf) must be at
least the value that theorem reaches there over its rho2 candidates, so that
visiting x in decreasing cap order and stopping at the first cap below the
best value never changes the result.  Inside a curve, `_evaluate` must return
exactly what `dense_evaluate`, the unpruned reference, returns.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

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
    parse_spec_text,
    report_text,
)
from sublap.bounds import (
    _CELLS,
    BoundResult,
    Invariants,
    _asn_rho1,
    _cap,
    _caps,
    _cells,
    _evaluate,
    _formulas,
    _forms,
    _golden_max,
    _m_arrays,
    _pad,
    _ray,
    _rayleigh,
    _refine,
    _result,
    _rho2_base_grid,
    _schur,
    _t1zero_cap,
    _t1zero_values,
    _theorems,
    _visit,
    invariants,
)

from oracles import golden_max_reference

from conftest import (
    SOLVABLE_SPEC,
    free_step2,
    heisenberg,
    moved_frame,
    nilpotent_spaces,
    random_space,
    so4_weighted,
)

# The sweep points of the benchmark's sweep-twisted workload, the untwisted
# members of both families, the other builtins and the general asn branch.
NAMED = {
    **{f"so4_twisted-b{b}": ("so4_twisted", {"b": b}) for b in (0.0, 0.1, 0.2, 0.3, 0.4)},
    **{f"so3_twisted-c{c}": ("so3_twisted", {"c": c}) for c in (0.0, 0.05, 0.1, 0.5, 0.9)},
    "so4_alt": ("so4_alt", {}),
    "twisted_spheres": ("twisted_spheres", {}),
}
RANDOM_DRAWS = 40
# Step-2 nilpotent algebras: every Schur complement of Q(x) is 0, so no
# theorem applies, and `_evaluate` asked for all three finds no value.
NILPOTENT = {"heisenberg3": (heisenberg, 1), "free_step2_r3": (free_step2, 3)}


def _space(key: str) -> tuple[HomogeneousSpace, int]:
    """The space and its rho2 grid density: the default for the named spaces,
    a coarser grid for the random draws to keep the suite fast."""
    if key == "so4_weighted":
        return so4_weighted(), 200
    if key in NILPOTENT:
        make, k = NILPOTENT[key]
        return make(k), 200
    if key.startswith("random-"):
        return random_space(np.random.default_rng([2026, int(key[7:])])), 20
    name, params = NAMED[key]
    return load_builtin(name, **params), 200


KEYS = [*NAMED, "so4_weighted", *(f"random-{i}" for i in range(RANDOM_DRAWS))]


def evaluate(
    inv: Invariants, names: list[str], xs: list[float], grid: np.ndarray
) -> list[dict[str, BoundResult | None]]:
    """`_evaluate` with every named theorem asking every x of xs, read as one
    {theorem: result} per x, each built by `_result`."""
    cols = _evaluate(inv, dict.fromkeys(names, xs), grid)
    return [{name: _result(name, x, cols[name, x]) for name in names} for x in xs]


def dense_evaluate(
    inv: Invariants, names: list[str], x: float, grid: np.ndarray
) -> dict[str, BoundResult | None]:
    """The unpruned reference for `_evaluate`: the Schur complement and its
    lambda_min at every rho2 candidate, asn's duality search at every valid
    one, and np.argmax over each theorem's closed form."""
    delta, q0, d = inv.delta(x), inv.q(x), inv.d
    rho2, w, weights, ok = _schur(q0, d, grid, _pad(q0))
    cut = np.einsum("aj,bj,jr->rab", w, w, weights)
    out: dict[str, BoundResult | None] = {}
    for name in names:
        q = q0 + inv.q_tt2 if name == "asn" and inv.tt2 else q0
        stack = q[None, :d, :d] - cut
        rho1 = np.where(ok, np.linalg.eigvalsh(stack)[:, 0], np.nan)
        omega = inv.kappa / rho2
        chi = np.maximum(rho2 * inv.sup_t2, 0.0)
        if name == "main":
            psi = rho2 * inv.sigma**2
            m, s = _m_arrays(omega, chi, psi)
            vals = np.where(rho1 > m, (rho1 - m) / (delta + omega), np.nan)
            aux = {"s": s}
        elif name == "t1zero":
            vals, in1 = _t1zero_values(rho1, delta, omega, chi)
            psi = m = 0.0
            aux = {"case": np.where(in1, 1.0, 2.0)}
        else:
            # a cap of 0 at every valid candidate reaches the floor 0 there
            rho1 = _asn_rho1(inv, stack, rho1, np.where(ok, 0.0, -np.inf), 0.0)
            vals = np.where(rho1 > 0.0, rho1 / (delta + omega), np.nan)
            chi = psi = m = math.nan
            aux = {}
        finite = np.isfinite(vals)
        if not finite.any():
            out[name] = None
            continue
        i = int(np.argmax(np.where(finite, vals, -np.inf)))
        cols = (rho1, rho2, omega, chi, psi, m)
        row = [float(np.broadcast_to(a, rho2.shape)[i]) for a in cols]
        aux = {k: float(a[i]) for k, a in aux.items() if not math.isnan(a[i])}
        out[name] = BoundResult(name, float(vals[i]), x, *row, aux)
    return out


@pytest.mark.parametrize("batch", [8, 1, 10**6], ids=["default", "one-by-one", "one-round"])
@pytest.mark.parametrize("key", [*KEYS, *NILPOTENT])
def test_evaluate_matches_the_dense_curve(monkeypatch, key, batch):
    # best-first search inside each curve diagonalizes a few candidates, yet
    # must return the dense argmax to the last bit, ties included; one
    # complement at a time, the search takes many more rounds, and in one
    # round it visits every candidate whose leaf cap reaches 0
    monkeypatch.setattr(sublap.bounds, "_BATCH", batch)
    space, per_decade = _space(key)
    inv = invariants(space)
    names = ["main", "t1zero", "asn"] if key in NILPOTENT else _theorems(inv)
    grid = _rho2_base_grid(inv.kappa, per_decade)
    xs = np.linspace(0.0, 0.96, 13).tolist()
    dense = [dense_evaluate(inv, names, x, grid) for x in xs]
    for x, want in zip(xs, dense):
        assert repr(evaluate(inv, names, [x], grid)) == repr([want]), x
    # all 13 x in one call, in either order: the rows keep their own floors,
    # though one x's candidates can take another's share of a round (on the
    # nilpotent keys every row is empty)
    for x, got, want in zip(xs, evaluate(inv, names, xs, grid), dense):
        assert repr(got) == repr(want), x
    for x, got, want in zip(xs[::-1], evaluate(inv, names, xs[::-1], grid), dense[::-1]):
        assert repr(got) == repr(want), x


@pytest.mark.parametrize("seed", range(24))
def test_visit_takes_what_a_stable_sort_of_the_pending_caps_puts_first(seed):
    # Leaf caps with heavy ties (signed zeros among them), -inf and NaN, on
    # a few rows with their own floors (-inf makes a -inf cap pending).  For
    # every count, a round visits the same candidates as the first count of
    # a stable sort of the pending caps, ties to the lowest flat index, and
    # reports the largest pending cap it leaves.
    rng = np.random.default_rng([2029, seed])
    rows, width = int(rng.integers(1, 5)), int(rng.integers(1, 30))
    values = [0.5, 0.25, 0.0, -0.0, -1.0, -np.inf, np.nan, *rng.uniform(-1.0, 1.0, 3)]
    leaf = rng.choice(values, size=(rows, width))
    floor = rng.choice([-np.inf, -1.0, 0.0, 0.25], size=rows)
    pending = np.nonzero(leaf >= floor[:, None])
    order = np.argsort(-leaf[pending], kind="stable")
    for count in range(1, pending[0].size + 3):
        want = {(int(pending[0][j]), int(pending[1][j])) for j in order[:count]}
        left = [leaf[pending][j] for j in order[count:]]
        take, rest = _visit(leaf.copy(), floor, count)
        assert {divmod(int(t), width) for t in take} == want, count
        assert take.tolist() == sorted(take.tolist())
        assert rest == (left[0] if left else -np.inf), count


class _RecordedWeights(np.ndarray):
    """Schur weights that record each candidate index array they are read at:
    `_evaluate` reads them so exactly where it forms complements."""

    def __getitem__(self, key):
        if isinstance(key, tuple) and isinstance(key[-1], np.ndarray):
            self.seen.update(key[-1].tolist())
        return np.asarray(self)[key]


def _one_group() -> Invariants:
    """so4_weighted without q_tt2 and sup T2: asn, whose weak-duality rho1
    falls below lambda_min(S), then shares the cap of main and t1zero.  On
    every other space here a group's theorems reach the same values."""
    inv = invariants(so4_weighted())
    return replace(inv, q_tt2=np.zeros_like(inv.q_tt2), tt2=False, sup_t2=0.0)


@pytest.mark.parametrize("key", [*KEYS, "so4_weighted-one-group"])
def test_evaluate_visits_every_candidate_its_leaf_cap_keeps(monkeypatch, key):
    # A candidate whose leaf cap reaches the lowest best of its group could
    # still raise that theorem, so the search must form its complement; the
    # group floor decides this, and a candidate it skips rarely decides a
    # maximum, so the dense oracle cannot tell.
    if key == "so4_weighted-one-group":
        inv, per_decade = _one_group(), 200
        assert [len(g) for g in _formulas(inv, _theorems(inv)).values()] == [3]
    else:
        space, per_decade = _space(key)
        inv = invariants(space)
    grid = _rho2_base_grid(inv.kappa, per_decade)
    seen: set[int] = set()
    schur = sublap.bounds._schur

    def recorded_schur(*args):
        rho2, w, weights, ok = schur(*args)
        weights = weights.view(_RecordedWeights)
        weights.seen = seen
        return rho2, w, weights, ok

    monkeypatch.setattr(sublap.bounds, "_schur", recorded_schur)
    d = inv.d
    for (own, lift), group in _formulas(inv, _theorems(inv)).items():
        for x in np.linspace(0.0, 0.96, 13):
            seen.clear()
            got = evaluate(inv, group, [float(x)], grid)[0]
            floor = min(max(r.value, 0.0) if r else 0.0 for r in got.values())
            q0 = inv.q(float(x))
            rho2, w, weights, ok = schur(q0, d, grid, _pad(q0))
            form = _forms(inv, group, q0)[own]
            top, proj = _ray(form, d, w, _pad(form))
            r = _rayleigh(top, proj, weights, ok)
            leaf = _cap(inv, lift, r, rho2, inv.delta(float(x)), _pad(q0), True)
            missed = sorted(set(np.flatnonzero(leaf >= floor).tolist()) - seen)
            assert not missed, (group, x, floor, missed[:5])


@pytest.mark.parametrize("key", KEYS)
def test_cap_is_at_least_the_value_at_every_x(key):
    space, per_decade = _space(key)
    inv = invariants(space)
    names = _theorems(inv)
    grid = _rho2_base_grid(inv.kappa, per_decade)
    xs = np.arange(100, dtype=float) / 100
    root = _caps(inv, names, xs)
    near, cell = _cells(inv, names, xs, grid)
    levels = {"root": root}
    rows = np.arange(xs.size)
    for width in _CELLS:
        starts = np.arange(0, grid.size, width)
        caps = cell(rows, np.broadcast_to(starts, (xs.size, starts.size)), width)
        # every candidate lies in a cell of this width or among the near ones
        levels[f"width {width}"] = {
            n: np.maximum(c.max(axis=1), near[n]) for n, c in caps.items()
        }
    leaves = {n: c.copy() for n, c in root.items()}
    _refine(inv, leaves, dict.fromkeys(names, -math.inf), xs, grid)
    levels["refined"] = leaves
    for i, x in enumerate(xs):
        for name, res in evaluate(inv, names, [float(x)], grid)[0].items():
            if res is not None and math.isfinite(res.value):
                for level, caps in levels.items():
                    cap = caps[name][i]
                    assert cap >= res.value, (level, name, x, cap, res.value)


@pytest.mark.parametrize("key", KEYS)
def test_cell_cap_is_at_least_every_leaf_cap_in_its_cell(key):
    space, per_decade = _space(key)
    inv = invariants(space)
    names = _theorems(inv)
    grid = _rho2_base_grid(inv.kappa, per_decade)
    xs = np.arange(40, dtype=float) / 40
    _, cell = _cells(inv, names, xs, grid)
    for width in _CELLS[:-1]:
        starts = np.arange(0, grid.size, width)
        rows = np.repeat(np.arange(xs.size), starts.size)
        lo = np.tile(starts, xs.size)[:, None]
        caps = cell(rows, lo, width)
        leaves = cell(rows, lo + np.arange(width), 1)
        for name in names:
            inside = leaves[name].max(axis=1, keepdims=True)
            assert (caps[name] >= inside).all(), (name, width)


@pytest.mark.parametrize("key", KEYS)
def test_optimize_never_loses_to_the_unpruned_grid(key):
    space, per_decade = _space(key)
    rep = optimize(space, x_points=37, rho2_per_decade=per_decade)
    got = {e.theorem: e.value for e in rep.entries}
    inv = invariants(space)
    grid = _rho2_base_grid(inv.kappa, per_decade)
    for name in _theorems(inv):
        values = [dense_evaluate(inv, [name], x / 37, grid)[name] for x in range(37)]
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


def test_t1zero_interval_cap_bounds_every_rho1_up_to_r_and_rho2_up_to_b():
    # the root and cell cap of t1zero when sup T2 > 0: r around m_floor and
    # the case-1 threshold at b, where case 1 can beat case 2
    rng = np.random.default_rng(4)
    rho1 = np.linspace(0.0, 1.0, 401)[:, None]
    for _ in range(200):
        kappa, sup_t2, b = 10.0 ** rng.uniform(-2.0, 1.0, size=3)
        delta = rng.uniform(0.01, 2.0)
        inv = SimpleNamespace(kappa=kappa, sup_t2=sup_t2, product=("zero", 0.0))
        top = math.sqrt(4.0 * b * sup_t2 * (kappa / b + delta))
        r = top * rng.uniform(0.5, 1.5)
        rho2 = b * np.linspace(0.0, 1.0, 401)[1:]
        vals, _ = _t1zero_values(r * rho1, delta, kappa / rho2, rho2 * sup_t2)
        cap = _cap(inv, "t1zero", np.array(r), b, delta, 1e-12)
        assert np.nanmax(vals, initial=-math.inf) <= cap, (r, top, cap)


def test_main_and_asn_caps_bound_every_rho1_up_to_r_and_rho2_up_to_b():
    # the leaf and interval caps of main, with sigma > 0 and sup T2 of either
    # sign, and of asn, with a zero and an isotropic coefficient, each read
    # off its `_formulas` lift: r around main's m_floor and asn's coefficient
    rng = np.random.default_rng(5)
    lam = np.linspace(0.0, 1.0, 401)[:, None]
    for _ in range(200):
        kappa, sigma, b, top = 10.0 ** rng.uniform(-2.0, 1.0, size=4)
        sup_t2 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 1.0)
        coeff = rng.choice([0.0, 10.0 ** rng.uniform(-2.0, 1.0)])
        delta = rng.uniform(0.01, 2.0)
        product = ("isotropic" if coeff else "zero", coeff)
        inv = SimpleNamespace(kappa=kappa, sup_t2=sup_t2, sigma=sigma, product=product, tt2=False)
        rho2 = b * np.linspace(0.0, 1.0, 401)[1:]
        omega, chi = kappa / rho2, np.maximum(rho2 * sup_t2, 0.0)
        m_floor = 2.0 * math.sqrt(kappa * max(sup_t2, 0.0))
        for name, floor in (("main", m_floor), ("asn", coeff)):
            r = (floor + top) * rng.uniform(0.5, 1.5)
            if name == "main":
                m, _ = _m_arrays(omega, chi, rho2 * sigma**2)
                vals = np.where(r * lam > m, (r * lam - m) / (delta + omega), -np.inf)
            else:
                # lambda_min(S) - coeff, read without S, a cap or a floor
                rho1 = _asn_rho1(inv, None, r * lam, None, None)
                vals = np.where(rho1 > 0.0, rho1 / (delta + omega), -np.inf)
            [(_, lift)] = _formulas(inv, [name])
            leaf = _cap(inv, lift, np.array(r), rho2, delta, 1e-12, True)
            assert (vals.max(axis=0) <= leaf).all(), (name, inv, delta, r)
            cap = _cap(inv, lift, np.array(r), b, delta, 1e-12)
            assert vals.max() <= cap, (name, inv, delta, r, cap)


@pytest.mark.parametrize(
    "key", ["so4_twisted-b0.3", "so3_twisted-c0.05", "so4_alt", "so4_weighted"]
)
def test_shared_curve_gives_each_theorem_its_own_result(key):
    # main, t1zero and asn evaluated together share one elimination of the
    # vertical block (asn reads the complements of Q(x) + q_tt2 when q_tt2 is
    # nonzero, as on so3_twisted and so4_weighted); in either order, each
    # result must equal the one the theorem gets alone, to the last bit.  So
    # must each when the theorems ask partly different x in one call.
    space, per_decade = _space(key)
    inv = invariants(space)
    names = _theorems(inv)
    grid = _rho2_base_grid(inv.kappa, per_decade)
    xs = np.linspace(0.0, 0.95, 12).tolist()
    alone = {}
    for x in xs:
        alone[x] = {name: evaluate(inv, [name], [x], grid)[0][name] for name in names}
        for order in (names, names[::-1]):
            together = evaluate(inv, order, [x], grid)[0]
            assert repr(together) == repr({name: alone[x][name] for name in order}), x
    asks = {name: xs[3 * t : 3 * t + 6] for t, name in enumerate(names)}
    got = _evaluate(inv, asks, grid)
    assert sorted(got) == sorted((name, x) for name, points in asks.items() for x in points)
    for (name, x), col in got.items():
        assert repr(_result(name, x, col)) == repr(alone[x][name]), (name, x)


def _counting(monkeypatch, name: str) -> list:
    """Record every call of the bounds helper `name`."""
    calls = []
    inner = getattr(sublap.bounds, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(sublap.bounds, name, counted)
    return calls


def test_evaluate_eliminates_each_x_once_for_every_theorem(monkeypatch):
    # q_tt2 is nonzero here, so asn reads other complements than main and
    # t1zero, yet all three share one elimination of the vertical block.
    inv = invariants(load_builtin("so3_twisted", c=0.05))
    assert inv.tt2 and _theorems(inv) == ["main", "t1zero", "asn"]
    grid = _rho2_base_grid(inv.kappa, 200)
    calls = _counting(monkeypatch, "_schur")
    for x in (0.0, 0.3, 0.6):
        assert evaluate(inv, ["main", "t1zero", "asn"], [x], grid)[0]["asn"] is not None
    assert len(calls) == 3


def _no_bound_spaces() -> list:
    """so3_twisted where no theorem yields a bound, a solvable algebra, and
    each step-2 nilpotent algebra in its own frame and in a moved one."""
    params = [
        pytest.param(load_builtin("so3_twisted", c=c), id=f"so3_twisted-c{c}")
        for c in (0.5, 0.9)
    ]
    params.append(pytest.param(parse_spec_text(SOLVABLE_SPEC), id="solv3"))
    for i, space in enumerate(nilpotent_spaces()):
        moved = moved_frame(space, np.random.default_rng([14, i]))
        params.append(pytest.param(space, id=space.name))
        params.append(pytest.param(moved, id=f"{space.name}-moved"))
    return params


@pytest.mark.parametrize("space", _no_bound_spaces())
def test_no_bound_spaces_settle_without_an_elimination(monkeypatch, space):
    # on so3_twisted the root caps rule out every x; on the solvable and
    # nilpotent algebras, in any frame, `_theorems` finds the HH block of
    # every coefficient form of Q(x) zero and returns no theorem
    calls = _counting(monkeypatch, "_vertical")
    assert optimize(space).entries == []
    assert calls == []


@pytest.mark.parametrize("c", [0.5, 0.9])
def test_optimize_runs_no_golden_pass_without_a_best(monkeypatch, c):
    # the root caps rule out every x, so no theorem has an abscissa to refine
    calls = _counting(monkeypatch, "_golden_max")
    assert optimize(load_builtin("so3_twisted", c=c)).entries == []
    assert calls == []


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: load_builtin("so4_alt"), id="so4_alt"),
        pytest.param(lambda: load_builtin("twisted_spheres"), id="twisted_spheres"),
        pytest.param(lambda: load_builtin("so4_twisted", b=0.0), id="so4_twisted"),
    ],
)
def test_optimize_computes_few_rayleigh_bounds(monkeypatch, make):
    # a dense cap pass takes a Rayleigh bound at each of 2000 x and each of
    # up to 1211 rho2 candidates; the root and cell caps leave few of them to
    # the sweep, and `_evaluate` takes one pass per form at each x it visits
    space = make()
    calls = _counting(monkeypatch, "_rayleigh")
    evaluate, passes = sublap.bounds._evaluate, []

    def counted(inv, asks, grid):
        before = len(calls)
        out = evaluate(inv, asks, grid)
        passes.append((len(calls) - before, len({n == "asn" and inv.tt2 for n in asks})))
        del calls[before:]
        return out

    monkeypatch.setattr(sublap.bounds, "_evaluate", counted)
    optimize(space)
    assert passes and all(got == forms for got, forms in passes), passes
    dense = 2000 * (_rho2_base_grid(invariants(space).kappa, 200).size + 10)
    assert sum(ok.size for *_, ok in calls) <= dense // 100


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: load_builtin("so4_twisted", b=0.0), id="so4_twisted-b0"),
        pytest.param(lambda: load_builtin("so4_twisted", b=0.3), id="so4_twisted-b0.3"),
        pytest.param(lambda: load_builtin("so4_alt"), id="so4_alt"),
        pytest.param(lambda: load_builtin("so3_twisted", c=0.1), id="so3_twisted-c0.1"),
    ],
)
def test_optimize_diagonalizes_few_matrices(monkeypatch, make):
    # diagonalizing every candidate of each golden-pass curve took 38.7k-46.3k
    # matrices per optimize here; best first, a handful per x remain
    space = make()
    counts = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        counts.append(math.prod(np.shape(a)[:-2]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    optimize(space)
    assert sum(counts) <= 10_000


@pytest.mark.parametrize(
    "make, x_points, most",
    [
        # one or two sweep curves, then 31 golden-pass calls of three x each
        pytest.param(lambda: load_builtin("so4_twisted", b=0.3), 2000, 33, id="so4_twisted"),
        pytest.param(lambda: load_builtin("so4_alt"), 2000, 32, id="so4_alt"),
        pytest.param(lambda: load_builtin("twisted_spheres"), 2000, 32, id="twisted_spheres"),
        # the theorems peak at different x here, yet each golden call is one
        # `_evaluate` call, and so one curve, for the x all of them ask
        pytest.param(lambda: load_builtin("so3_twisted", c=0.05), 2000, 34, id="so3_twisted"),
        # a rotated frame moves the theorems' peaks apart by rounding
        pytest.param(
            lambda: moved_frame(load_builtin("so4_alt"), np.random.default_rng(19)),
            2000, 32, id="moved-so4_alt",
        ),
        # every Schur complement is 0, so no theorem applies and no x is swept
        pytest.param(lambda: heisenberg(1), 200, 0, id="heisenberg3"),
        pytest.param(lambda: free_step2(3), 200, 0, id="free_step2_r3"),
    ],
)
def test_optimize_builds_one_schur_curve_per_refined_x(monkeypatch, make, x_points, most):
    calls = _counting(monkeypatch, "_schur")
    optimize(make(), x_points=x_points)
    assert len(calls) <= most


def test_asn_duality_search_takes_one_point_per_step(monkeypatch):
    # each step of the t search diagonalizes one matrix per live candidate, so
    # evaluating both points the next step can take would cost more matrices
    # than the calls it saves: 61 eigvalsh calls per search, as the first
    # takes both interior points
    inv = invariants(so4_weighted())
    assert inv.product[0] == "general"
    grid = _rho2_base_grid(inv.kappa, 200)
    eigvalsh, search, calls, counts = np.linalg.eigvalsh, sublap.bounds._asn_rho1, [], []

    def counted_eigvalsh(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    def counted_search(*args):
        before = len(calls)
        out = search(*args)
        counts.append(len(calls) - before)
        return out

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(sublap.bounds, "_asn_rho1", counted_search)
    assert all(r["asn"] for r in evaluate(inv, ["asn"], [0.2, 0.31], grid))
    assert 61 in counts and set(counts) <= {0, 61}, counts


GOLDEN_FUNS = {
    "unimodal": lambda x: -((x - 0.3) ** 2),
    # flat on [0.4, 0.6], so both interior points tie there
    "plateau": lambda x: np.minimum(1.0 - np.abs(x - 0.5), 0.9),
    "-inf region": lambda x: np.where(x < 0.45, -np.inf, -((x - 0.7) ** 2)),
    "non-unimodal": lambda x: np.sin(12.0 * x) + 0.3 * x,
}
GOLDEN_BRACKETS = {
    "()": (0.0, 1.0),
    "(1,)": ([0.0], [1.0]),
    "(3,)": ([0.0, 0.2, -1.0], [1.0, 0.5, 2.0]),
}


@pytest.mark.parametrize("speculate, calls", [(True, 31), (False, 61)])
@pytest.mark.parametrize("bracket", GOLDEN_BRACKETS)
@pytest.mark.parametrize("fun", GOLDEN_FUNS)
def test_golden_max_takes_the_reference_path(fun, bracket, speculate, calls):
    # the first call takes both interior points; then each call takes a
    # step's point and, when speculating, both points the next step can take,
    # of which it takes one.  The points taken, in order, and the result must
    # be the one-point-per-step reference's to the last bit.
    lo, hi = GOLDEN_BRACKETS[bracket]
    path, stacks = [], []
    want = golden_max_reference(lambda x: path.append(x) or GOLDEN_FUNS[fun](x), lo, hi)
    got = _golden_max(lambda x: stacks.append(x) or GOLDEN_FUNS[fun](x), lo, hi, speculate)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert len(stacks) == calls and len(path) == 62
    assert stacks[0].tobytes() == np.stack(path[:2]).tobytes()
    step = 2 if speculate else 1
    for points, x, nxt in zip(stacks[1:], path[2::step], path[3::step] + [None]):
        assert points.shape == (2 * step - 1, *x.shape)
        assert points[0].tobytes() == x.tobytes()
        if speculate:
            took = np.where(nxt == points[1], points[1], points[2])
            assert took.tobytes() == nxt.tobytes()


@pytest.mark.parametrize(
    "make, batches",
    [
        pytest.param(lambda: load_builtin("so4_twisted", b=0.0), 0, id="so4_twisted-b0"),
        pytest.param(lambda: load_builtin("so4_twisted", b=0.3), 1, id="so4_twisted-b0.3"),
        pytest.param(lambda: load_builtin("so4_alt"), 0, id="so4_alt"),
        pytest.param(lambda: load_builtin("twisted_spheres"), 0, id="twisted_spheres"),
        pytest.param(lambda: load_builtin("so3_twisted", c=0.05), 1, id="so3_twisted-c0.05"),
        pytest.param(lambda: load_builtin("so3_twisted", c=0.1), 0, id="so3_twisted-c0.1"),
    ],
)
def test_optimize_seeds_every_floor_in_one_batch(monkeypatch, make, batches):
    # every theorem visits its top root-cap x first; where no other cap then
    # beats its best no cell is refined, and otherwise the caps above the
    # bests of all the theorems take one batch of cells together
    calls = _counting(monkeypatch, "_cells")
    optimize(make())
    assert len(calls) == batches


def test_a_theorem_with_no_value_at_its_top_x_sweeps_on(monkeypatch):
    # the top root-cap x is visited first, so when it gives no value the
    # theorem has no best to refine its caps against, and visits the next x
    evaluate, calls = sublap.bounds._evaluate, []

    def first_empty(inv, asks, grid):
        calls.append(asks)
        if len(calls) == 1:
            return {(n, x): [math.nan] * 8 for n, points in asks.items() for x in points}
        return evaluate(inv, asks, grid)

    monkeypatch.setattr(sublap.bounds, "_evaluate", first_empty)
    space = load_builtin("so4_alt")
    got = {e.theorem for e in optimize(space).entries}
    assert got >= set(_theorems(invariants(space)))


# report_text(optimize(s)) at the default grids, recorded before the dense cap
# pass gave way to root, cell and leaf caps: the sweep-twisted benchmark points
# and the general asn branch.  The CLI goldens run at --x-grid 400.  The moved
# frames (rotated and rescaled by `moved_frame` from the given seed), recorded
# later, carry rounding-level sigma and sup T2 into every branch of `_m_arrays`.
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
DEFAULT_GRID_RUNS = {
    **{f"optimize_so4_twisted_b{b}.txt": ("so4_twisted", {"b": b}, None)
       for b in (0.1, 0.2, 0.3, 0.4)},
    **{f"optimize_so3_twisted_c{c}.txt": ("so3_twisted", {"c": c}, None) for c in (0.1, 0.5, 0.9)},
    "optimize_moved_so4_alt.txt": ("so4_alt", {}, 1),
    "optimize_moved_twisted_spheres.txt": ("twisted_spheres", {}, 2),
    "optimize_moved_so4_twisted_b0.3.txt": ("so4_twisted", {"b": 0.3}, 3),
    "optimize_moved_so3_twisted_c0.05.txt": ("so3_twisted", {"c": 0.05}, 4),
}


@pytest.mark.parametrize("name", [*sorted(DEFAULT_GRID_RUNS), "optimize_so4_weighted.txt"])
def test_default_grid_optimize_matches_golden_file(name):
    if name in DEFAULT_GRID_RUNS:
        builtin, params, seed = DEFAULT_GRID_RUNS[name]
        space = load_builtin(builtin, **params)
        if seed is not None:
            space = moved_frame(space, np.random.default_rng(seed))
    else:
        space = so4_weighted()
    assert report_text(optimize(space)) == (GOLDEN / name).read_text(encoding="utf-8")


# repr(optimize(s).entries) to the last bit, one line per space: the
# sweep-twisted benchmark points, the certify-symmetric spaces, the moved
# frames above and the general asn branch.  The text goldens print 12 digits,
# so they cannot see a change in the last bits of a bound or its abscissa.
# The same runs count the np.linalg.eigvalsh and eigh calls and matrices of
# each optimize, the work no printed digit shows.
ENTRY_REPRS = GOLDEN / "optimize_entries_repr.txt"
LINALG_COUNTS = GOLDEN / "optimize_linalg_counts.txt"
REPR_RUNS = {
    **{f"so4_twisted-b{b}": ("so4_twisted", {"b": b}, None) for b in (0.0, 0.1, 0.2, 0.3, 0.4)},
    **{f"so3_twisted-c{c}": ("so3_twisted", {"c": c}, None) for c in (0.0, 0.05, 0.1, 0.5, 0.9)},
    "so4_alt": ("so4_alt", {}, None),
    "twisted_spheres": ("twisted_spheres", {}, None),
    **{f"moved-{name[len('optimize_moved_'):-4]}": run
       for name, run in DEFAULT_GRID_RUNS.items() if run[2] is not None},
}


def _repr_run(key: str) -> tuple[HomogeneousSpace, dict]:
    """The space of a key and the options its optimize takes."""
    if key == "so4_weighted-x200":
        return so4_weighted(), {"x_points": 200}
    builtin, params, seed = REPR_RUNS[key]
    space = load_builtin(builtin, **params)
    if seed is not None:
        space = moved_frame(space, np.random.default_rng(seed))
    return space, {}


def _count_linalg(monkeypatch) -> dict[str, list[int]]:
    """[calls, matrices] of np.linalg.eigvalsh and eigh from here on."""
    counts = {}
    for kernel in ("eigvalsh", "eigh"):
        run, counts[kernel] = getattr(np.linalg, kernel), [0, 0]

        def counted(a, *args, _run=run, _count=counts[kernel], **kwargs):
            _count[0] += 1
            _count[1] += math.prod(np.shape(a)[:-2])
            return _run(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, kernel, counted)
    return counts


@pytest.mark.parametrize("key", [*REPR_RUNS, "so4_weighted-x200"])
def test_optimize_entries_match_full_precision_golden(monkeypatch, key):
    space, options = _repr_run(key)
    counts = _count_linalg(monkeypatch)
    entries = repr(optimize(space, **options).entries)
    work = "; ".join(f"{k} {c} calls {m} matrices" for k, (c, m) in counts.items())
    for path, got in ((ENTRY_REPRS, entries), (LINALG_COUNTS, work)):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert got == dict(line.split(" ", 1) for line in lines)[key], path.name


# repr of bound_main, bound_t1zero and bound_asn at three x to the last bit,
# one line per space and x, on the spaces of ENTRY_REPRS: the public per-x
# evaluators read `_evaluate` where `optimize` does not, at x off its grid.
BOUND_AT_REPRS = GOLDEN / "bound_at_repr.txt"
BOUND_AT_XS = (0.0, 1.0 / 3.0, 0.6)


@pytest.mark.parametrize("key", [*REPR_RUNS, "so4_weighted-x200"])
def test_per_x_evaluators_match_full_precision_golden(key):
    space, _ = _repr_run(key)
    lines = BOUND_AT_REPRS.read_text(encoding="utf-8").splitlines()
    want = dict(line.split(" ", 1) for line in lines)
    for x in BOUND_AT_XS:
        got = [bound(space, x) for bound in (bound_main, bound_t1zero, bound_asn)]
        assert repr(got) == want[f"{key}/x={x!r}"], x
