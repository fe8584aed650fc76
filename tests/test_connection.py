"""The canonical connection: closed form, defining properties, uniqueness."""

from __future__ import annotations

import dataclasses

import numpy as np

from sublap import (
    Connection,
    canonical_connection,
    load_builtin,
    torsion,
    trace_nabla_torsion,
    trace_nabla_torsion_vertical,
    trace_tor2,
    verify_connection,
)
from oracles import nabla_torsion, tor2

CASES = [
    ("so4_twisted", {}),
    ("so4_twisted", {"b": 0.3}),
    ("so3_twisted", {}),
    ("so3_twisted", {"c": 0.2}),
    ("so4_alt", {}),
    ("twisted_spheres", {}),
]


def _all_connections():
    for name, kw in CASES:
        yield name, kw, canonical_connection(load_builtin(name, **kw))


def test_builtin_connections_satisfy_every_axiom():
    for name, kw, conn in _all_connections():
        assert verify_connection(conn) == [], (name, kw)


def test_cyclically_symmetric_blocks_give_half_bracket():
    # When a diagonal block of c is invariant under cyclic index rotation the
    # Koszul expression collapses to c/2 on that block.
    for name in ("so4_twisted", "so3_twisted", "so4_alt"):
        space = load_builtin(name)
        d = space.dim_h
        conn = canonical_connection(space)
        h, v = slice(0, d), slice(d, space.dim)
        for block in (h, v):
            cb = space.c[block, block, block]
            assert np.allclose(cb, cb.transpose(1, 2, 0)), name
            assert np.allclose(conn.gamma[block, block, block], 0.5 * cb), name


def test_connection_preserves_splitting_and_metric():
    for name, kw, conn in _all_connections():
        d = conn.space.dim_h
        g = conn.gamma
        assert np.allclose(g + g.transpose(0, 2, 1), 0.0), (name, kw)
        assert np.allclose(g[:, :d, d:], 0.0), (name, kw)
        assert np.allclose(g[:, d:, :d], 0.0), (name, kw)


def test_torsion_block_structure():
    for name, kw, conn in _all_connections():
        space = conn.space
        d = space.dim_h
        t = torsion(conn)
        # horizontal pairs: torsion is minus the vertical bracket part
        assert np.allclose(t[:d, :d, :d], 0.0), (name, kw)
        assert np.allclose(t[:d, :d, d:], -space.c[:d, :d, d:]), (name, kw)
        # vertical pairs: torsion is minus the horizontal bracket part
        assert np.allclose(t[d:, d:, d:], 0.0), (name, kw)
        assert np.allclose(t[d:, d:, :d], -space.c[d:, d:, :d]), (name, kw)


def test_mixed_torsion_symmetries():
    for name, kw, conn in _all_connections():
        d = conn.space.dim_h
        t = torsion(conn)
        mixed_h = t[:d, d:, :d]
        assert np.allclose(mixed_h, mixed_h.transpose(2, 1, 0)), (name, kw)
        mixed_v = t[d:, :d, d:]
        assert np.allclose(mixed_v, mixed_v.transpose(2, 1, 0)), (name, kw)


def test_any_perturbation_breaks_an_axiom():
    # The defining properties pin the connection down uniquely, so every
    # single-entry and every metric-compatible pair perturbation must trip
    # at least one verification check.
    for name, kw in (("so3_twisted", {"c": 0.2}), ("so4_alt", {})):
        space = load_builtin(name, **kw)
        conn = canonical_connection(space)
        n = space.dim
        undetected = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    g = conn.gamma.copy()
                    g[i, j, k] += 1e-3
                    if not verify_connection(Connection(space, g)):
                        undetected.append((i, j, k, "entry"))
        for i in range(n):
            for j in range(n):
                for k in range(j + 1, n):
                    g = conn.gamma.copy()
                    g[i, j, k] += 1e-3
                    g[i, k, j] -= 1e-3
                    if not verify_connection(Connection(space, g)):
                        undetected.append((i, j, k, "pair"))
        assert undetected == [], (name, kw)


def test_nabla_torsion_matches_covariant_derivative_loop():
    space = load_builtin("so3_twisted", c=0.2)
    conn = canonical_connection(space)
    t = torsion(conn)
    g = conn.gamma
    nt = nabla_torsion(conn)
    n = space.dim
    manual = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for k in range(n):
                    manual[a, b, c, k] = (
                        sum(t[a, c, l] * g[b, l, k] for l in range(n))
                        - sum(g[b, a, l] * t[l, c, k] for l in range(n))
                        - sum(g[b, c, l] * t[a, l, k] for l in range(n))
                    )
    assert np.allclose(nt, manual, atol=1e-12)


def test_tor2_matches_composition_loop():
    space = load_builtin("so3_twisted", c=0.2)
    conn = canonical_connection(space)
    t = torsion(conn)
    t2 = tor2(conn)
    n = space.dim
    manual = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for k in range(n):
                    manual[a, b, c, k] = sum(
                        t[b, c, l] * t[a, l, k] for l in range(n)
                    )
    assert np.allclose(t2, manual, atol=1e-12)


def test_torsion_is_parallel_on_the_contact_example():
    conn = canonical_connection(load_builtin("so3_twisted"))
    assert np.max(np.abs(nabla_torsion(conn))) < 1e-12


def test_horizontal_derivative_trace():
    # The horizontal trace of the torsion derivative vanishes at the
    # bi-invariant points and grows linearly with the twist.
    for name, kw in (("so4_twisted", {}), ("so3_twisted", {"c": 0.3}),
                     ("so4_alt", {}), ("twisted_spheres", {})):
        conn = canonical_connection(load_builtin(name, **kw))
        assert np.max(np.abs(trace_nabla_torsion(conn))) < 1e-12, (name, kw)
    for b in (0.2, 0.5):
        conn = canonical_connection(load_builtin("so4_twisted", b=b))
        assert np.isclose(np.max(np.abs(trace_nabla_torsion(conn))), 2.0 * b)


def test_trace_map_shapes():
    space = load_builtin("twisted_spheres")
    conn = canonical_connection(space)
    n = space.dim
    assert trace_nabla_torsion(conn).shape == (n, n)
    assert trace_nabla_torsion_vertical(conn).shape == (n, n)
    assert trace_tor2(conn).shape == (n, n)


def test_stored_torsion_follows_the_coefficients():
    conn = canonical_connection(load_builtin("so4_twisted", b=0.3))
    assert np.array_equal(conn.tor, torsion(conn))
    g = conn.gamma.copy()
    g[0, 1, 2] += 0.1
    g[0, 2, 1] -= 0.1
    moved = dataclasses.replace(conn, gamma=g)
    assert np.array_equal(moved.tor, torsion(moved))
    assert not np.array_equal(moved.tor, conn.tor)
