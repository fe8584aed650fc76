"""The shared invariants object: the connection is built once per space and
the package holds no n^4 tensor or PSD-bisection oracle, and the closed-form
asn product term on a space that needs the general branch."""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sublap
import sublap.cli
from sublap import (
    bound_asn,
    bound_main,
    bound_sntf,
    builtin_names,
    classify,
    distortion,
    invariants,
    load_builtin,
    optimize,
    parse_spec_text,
    rescale_vertical,
    rigidity,
    seminorm_grams,
    sub_ricci,
    trace_tor2,
    validate,
)
from sublap.connection import _tor2_outer
from conftest import (
    nilpotent_spaces,
    random_orthogonal,
    rotate_frame,
    so4_weighted,
    spec_text,
)

COUNTED = ("canonical_connection", "torsion")
# The pipeline builds the connection and its torsion once and contracts the
# traces it needs directly.
PER_CALL = {"canonical_connection": 1, "torsion": 1}
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
# Names no module of the package holds: the n^4 tensors and the PSD bisection
# live in the tests' `oracles.py`, and the curvature form at one x is
# `invariants(space).q(x)`.
ORACLES = ("riemann", "nabla_torsion", "tor2", "feasible_rho1", "bg_form", "BGForm")


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the connection-level builders, wrapped in every module
    of the package that holds a reference to them."""
    counts = dict.fromkeys(COUNTED, 0)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sublap"]
    for name in COUNTED:
        original = getattr(sublap, name)

        @functools.wraps(original)
        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize(
    "space",
    [load_builtin("so4_alt"), load_builtin("so4_twisted", b=0.3), so4_weighted()],
    ids=["so4_alt", "so4_twisted_b03", "so4_weighted"],
)
def test_each_tensor_is_built_once_per_entry_point(calls, space):
    entries = [
        lambda s: optimize(s, x_points=20),
        bound_sntf,
        distortion,
        lambda s: bound_main(s, 0.0),
        # through the package, where the fixture wrapped canonical_connection
        lambda s: sub_ricci(sublap.canonical_connection(s)),
    ]
    # a build counts as one torsion call; each fresh space costs one build
    for entry in entries:
        calls["torsion"] = 0
        entry(replace(space))
        assert calls["torsion"] == 1

    # and one space costs one build however many entry points read it
    calls["torsion"] = 0
    for entry in entries:
        entry(space)
    assert calls["torsion"] == 1


def test_analyze_builds_each_tensor_once(calls, capsys):
    assert sublap.cli.main(["analyze", "so4_twisted", "--param", "b=0.3"]) == 0
    capsys.readouterr()
    assert calls == PER_CALL


def test_report_sweep_builds_the_tensors_once_per_point(calls, capsys):
    argv = ["report", "so4_twisted", "--sweep", "b=0:0.4:3", "--x-grid", "400"]
    assert sublap.cli.main(argv) == 0
    golden = GOLDEN / "report_so4_twisted_b0-0.4-3.csv"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    assert calls["torsion"] == 3


def test_cached_arrays_are_read_only():
    space = load_builtin("so4_twisted", b=0.3)
    with pytest.raises(ValueError):
        distortion(space).t1[0, 0] = 1.0
    with pytest.raises(ValueError):
        invariants(space).q_src[0, 0] = 1.0
    inv, conn = invariants(space), sublap.canonical_connection(space)
    arrays = [conn.gamma, conn.tor, inv.src, inv.rig, inv.dist.t1, inv.dist.t2]
    arrays += [inv.grams.tau_vh, inv.grams.tau_hv, inv.grams.tau_h]
    arrays += [inv.q_src, inv.q_nt, inv.q_tauh, inv.q_tt2]
    # the public curvature results and the contractions they share with it
    arrays += [sub_ricci(conn), rigidity(conn), *vars(seminorm_grams(conn)).values()]
    arrays += [trace_tor2(conn), _tor2_outer(conn)]
    assert not any(a.flags.writeable for a in arrays)


def test_results_are_kept_for_the_last_space_object():
    space = load_builtin("so4_twisted", b=0.3)
    inv, conn = invariants(space), sublap.canonical_connection(space)
    assert invariants(space) is inv and distortion(space) is inv.dist
    assert sublap.canonical_connection(space) is conn
    # another space object, even with the same constants, gets its own
    other = replace(space)
    assert invariants(other) is not inv and invariants(other).space is other


# np.einsum, eigvalsh and svd calls of one invariants-scan benchmark item, in
# its order: parse, validate, canonical_connection, classify, seminorm_grams,
# sub_ricci, rigidity, distortion and bound_sntf.  The counterpart of
# optimize_linalg_counts.txt for the invariant layers, where a contraction
# computed a second time shows.  One line per space: the builtins, then the
# Heisenberg and free step-2 bases, parsed from their spec text.
INVARIANT_COUNTS = GOLDEN / "invariants_linalg_counts.txt"
SCAN = {name: functools.partial(load_builtin, name) for name in builtin_names()}
SCAN |= {s.name: functools.partial(parse_spec_text, spec_text(s)) for s in nilpotent_spaces()}


def _count_kernels(monkeypatch) -> dict[str, int]:
    """Calls of np.einsum, np.linalg.eigvalsh and np.linalg.svd from here on."""
    counts = {}
    for module, name in ((np, "einsum"), (np.linalg, "eigvalsh"), (np.linalg, "svd")):
        run, counts[name] = getattr(module, name), 0

        def counted(*args, _run=run, _name=name, **kwargs):
            counts[_name] += 1
            return _run(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("key", SCAN)
def test_invariants_share_the_public_curvature_results(monkeypatch, key):
    counts = _count_kernels(monkeypatch)
    space = SCAN[key]()
    assert validate(space) == []
    conn = sublap.canonical_connection(space)
    flags, grams = classify(conn), seminorm_grams(conn)
    src, rig = sub_ricci(conn), rigidity(conn)
    distortion(space)
    bound_sntf(space)
    work = "; ".join(f"{k} {c} calls" for k, c in counts.items())
    lines = INVARIANT_COUNTS.read_text(encoding="utf-8").splitlines()
    assert work == dict(line.split(" ", 1) for line in lines)[key]
    inv = invariants(space)
    assert inv.flags is flags and inv.grams is grams and inv.src is src and inv.rig is rig


def test_no_module_defines_or_exports_a_reference_implementation():
    modules = [sublap] + [
        importlib.import_module(f"sublap.{m.name}")
        for m in pkgutil.iter_modules(sublap.__path__)
        if m.name != "__main__"  # importing it runs the CLI
    ]
    names = {m.__name__ for m in modules}
    assert {"sublap.connection", "sublap.curvature", "sublap.bounds"} <= names
    for module in modules:
        for name in ORACLES:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)


def _objective(h: np.ndarray, s: np.ndarray, g1: np.ndarray, g2: np.ndarray):
    """h'Sh - 2 sqrt(h'G1h * h'G2h) for each row h."""
    a = np.einsum("nd,de,ne->n", h, s, h)
    q1 = np.maximum(np.einsum("nd,de,ne->n", h, g1, h), 0.0)
    q2 = np.maximum(np.einsum("nd,de,ne->n", h, g2, h), 0.0)
    return a - 2.0 * np.sqrt(q1 * q2)


def _sphere_min(s, g1, g2, rng) -> float:
    """Minimum of the objective over a dense sample of the unit sphere: a
    uniform sample, then shrinking balls around each of its 64 best points.
    Every point lies on the sphere, so the result never undercuts the true
    minimum."""
    d = s.shape[0]
    h = rng.standard_normal((200_000, d))
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    vals = _objective(h, s, g1, g2)
    keep = np.argsort(vals)[:64]
    starts, low = h[keep], vals[keep]
    for radius in 0.5 ** np.arange(1.0, 40.0):
        cand = starts[:, None, :] + radius * rng.standard_normal((64, 200, d))
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        cvals = _objective(cand.reshape(-1, d), s, g1, g2).reshape(64, 200)
        pick = np.argmin(cvals, axis=1)
        better = cvals[np.arange(64), pick] < low
        starts[better] = cand[np.arange(64), pick][better]
        low = np.minimum(low, cvals[np.arange(64), pick])
    return float(low.min())


def test_weighted_so4_reaches_the_general_asn_branch():
    inv = invariants(so4_weighted())
    assert inv.flags.almost_strictly_normal
    assert inv.product == ("general", 0.0)


@pytest.mark.parametrize("x", [0.0, 0.1, 0.2, 0.31])
def test_closed_form_asn_is_sound_and_tight(x):
    space = so4_weighted()
    inv = invariants(space)
    d = space.dim_h
    res = bound_asn(space, x)
    assert res is not None
    # Schur complement of the vertical block at the reported rho2, built
    # directly from the modified curvature form; the pseudo-inverse drops a
    # decoupled vertical direction sitting at its boundary.
    q = inv.q(x) + inv.q_tt2
    shifted = q[d:, d:] - res.rho2 * np.eye(space.dim_v)
    s = q[:d, :d] - q[:d, d:] @ np.linalg.pinv(shifted) @ q[d:, :d]
    g1, g2 = inv.grams.tau_vh[:d, :d], inv.grams.tau_hv[:d, :d]

    sample = _sphere_min(s, g1, g2, np.random.default_rng(17))
    assert res.rho1 <= sample + 1e-12
    assert sample - res.rho1 <= 1e-6

    # the golden search in t found the dual maximum
    ts = np.logspace(-4.0, 4.0, 4001)[:, None, None]
    dual = np.linalg.eigvalsh(s[None] - ts * g1[None] - g2[None] / ts)[:, 0]
    assert dual.max() <= res.rho1 + 1e-12


def test_closed_form_asn_reproduces_the_sampled_value():
    # The sphere sample plus projected-gradient polish that this closed form
    # replaced gave 0.27149321267 here.
    res = bound_asn(so4_weighted(), 0.2)
    assert abs(res.value - 0.27149321267) < 1e-9


def test_closed_form_asn_is_frame_invariant():
    space = so4_weighted()
    want = bound_asn(space, 0.2).value
    rng = np.random.default_rng(23)
    for t in (0.3, 1.0, 4.0):
        moved = rescale_vertical(space, t)
        moved = rotate_frame(moved, random_orthogonal(rng, 5), random_orthogonal(rng, 1))
        assert invariants(moved).product[0] == "general"
        assert abs(bound_asn(moved, 0.2).value - want) < 1e-9, t
