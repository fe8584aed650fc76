"""Trace-first contractions against the n^4 reference tensors.

The pipeline contracts the traces it needs straight from the connection
coefficients and the torsion.  Each contraction must agree with the same
trace taken of `riemann`, `nabla_torsion` or `tor2`, the full tensors in
`oracles.py`, which the package never builds, on builtin, nilpotent and
random frames, all rotated and rescaled, where only the summation order
differs.  On the adapted connection several terms of these contractions
vanish by its defining properties, so the same agreement is also checked on
arbitrary coefficient tensors, where every term is generic.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import sublap.bounds
from sublap import (
    Connection,
    canonical_connection,
    invariants,
    load_builtin,
    sub_ricci,
    trace_nabla_torsion,
    trace_nabla_torsion_vertical,
    trace_rm,
    trace_tor2,
)
from sublap.connection import _nabla_tor_vh, _tor2_inner_vh, _tor2_outer
from conftest import moved_frame, nilpotent_spaces, random_space, so4_weighted
from oracles import nabla_torsion, riemann, tor2

RTOL = 1e-12


_RNG = np.random.default_rng(61)
NAMED = [(name, load_builtin(name)) for name in
         ("so4_twisted", "so3_twisted", "so4_alt", "twisted_spheres")]
NAMED += [("so4_twisted_b0.3", load_builtin("so4_twisted", b=0.3)),
          ("so3_twisted_c0.05", load_builtin("so3_twisted", c=0.05))]
NAMED += [(s.name, s) for s in (so4_weighted(), *nilpotent_spaces())]
FRAMES = [(label, moved_frame(s, _RNG)) for label, s in NAMED]
FRAMES += [(f"random{i}", moved_frame(random_space(_RNG), _RNG)) for i in range(24)]


def _reference(conn):
    """Every contraction the pipeline reads, taken of the full tensors."""
    d = conn.space.dim_h
    nt, t2, rm = nabla_torsion(conn), tor2(conn), riemann(conn)
    ref = {
        "trace_nabla_torsion": np.einsum("aiik->ak", nt[:, :d, :d]),
        "trace_nabla_torsion_vertical": np.einsum("aiik->ak", nt[:, d:, d:]),
        "nabla_tor_vh": np.einsum("kabk->kab", nt[:d, d:, :d, :d]),
        "trace_tor2": np.einsum("iiak->ak", t2[:d, :d]),
        "tor2_outer": np.einsum("kabk->kab", t2[:d, :, :, :d]),
        "tor2_inner_vh": np.einsum("abkk->ab", t2[d:, :d, :d, :d]),
        "trace_rm": np.einsum("kabk->ab", rm[:d, :, :, :d]),
    }
    outer = ref["tor2_outer"].sum(axis=0)
    src = ref["trace_rm"].copy()
    src[:d, :d] -= 0.5 * outer[:d, :d] + ref["trace_tor2"][:d, :d]
    ref["sub_ricci"] = src
    ref["t1"] = (
        outer[d:, :d] - ref["nabla_tor_vh"].sum(axis=0)
        + ref["tor2_inner_vh"] + 4.0 * ref["trace_tor2"][d:, :d]
    )
    return ref


def _arbitrary(space, seed):
    """A connection on the space with random coefficients.  It is not the
    adapted connection, so no term of a contraction vanishes by structure."""
    rng = np.random.default_rng(seed)
    return Connection(space=space, gamma=rng.standard_normal((space.dim,) * 3))


def _assert_close(name, got, want):
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert got.shape == want.shape, name
    assert np.abs(got - want).max(initial=0.0) <= RTOL * scale, name


def _contractions(conn):
    return {
        "trace_nabla_torsion": trace_nabla_torsion(conn),
        "trace_nabla_torsion_vertical": trace_nabla_torsion_vertical(conn),
        "nabla_tor_vh": _nabla_tor_vh(conn),
        "trace_tor2": trace_tor2(conn),
        "tor2_outer": _tor2_outer(conn),
        "tor2_inner_vh": _tor2_inner_vh(conn),
        "trace_rm": trace_rm(conn),
        "sub_ricci": sub_ricci(conn),
    }


@pytest.mark.parametrize("space", [s for _, s in FRAMES], ids=[i for i, _ in FRAMES])
def test_trace_first_contractions_match_the_reference_tensors(space):
    conn = canonical_connection(space)
    ref = _reference(conn)
    got = _contractions(conn)
    inv = invariants(space)
    got["t1"] = inv.dist.t1
    assert got.keys() == ref.keys()
    for name, value in got.items():
        _assert_close(name, value, ref[name])
    _assert_close("invariants.src", inv.src, ref["sub_ricci"])


@pytest.mark.parametrize("space", [s for _, s in NAMED[:4]], ids=[i for i, _ in NAMED[:4]])
def test_a_kept_contraction_never_serves_another_connection(space):
    # sub_ricci, trace_tor2 and _tor2_outer keep their result for the most
    # recent connection object: connections of one space, and of an equal
    # copy of it, alternate, and each is asked twice in a row
    copy = replace(space)
    conns = [
        _arbitrary(space, 1),
        canonical_connection(space),
        _arbitrary(space, 2),
        canonical_connection(copy),
        _arbitrary(copy, 1),
    ]
    refs = [_reference(conn) for conn in conns]
    for conn, ref in [*zip(conns, refs)] * 2:
        for _ in range(2):
            for name, value in _contractions(conn).items():
                _assert_close(name, value, ref[name])


@pytest.mark.parametrize("space", [s for _, s in NAMED], ids=[i for i, _ in NAMED])
def test_contractions_of_arbitrary_coefficients_match_the_reference_tensors(
    space, monkeypatch
):
    conn = _arbitrary(space, space.dim)
    ref = _reference(conn)
    got = _contractions(conn)
    for name, value in got.items():
        _assert_close(name, value, ref[name])

    # invariants assembles the same contractions of whatever connection it
    # is handed: sub-Ricci, t1, the symmetrized torsion-derivative trace
    # and, through the vertical trace, t2
    monkeypatch.setattr(sublap.bounds, "canonical_connection", lambda s: conn)
    inv = invariants(space)
    d, n = space.dim_h, space.dim
    _assert_close("src", inv.src, ref["sub_ricci"])
    _assert_close("t1", inv.dist.t1, ref["t1"])
    v = np.zeros((n, n))
    v[:d] = ref["trace_nabla_torsion"][:d]
    _assert_close("q_nt", inv.q_nt, 0.5 * (v + v.T))
    w3 = np.einsum("puq,u->pq", conn.tor[:d, d:, :d], inv.rig[d:])
    t2m = 2.0 * inv.grams.tau_vh[:d, :d] + ref["trace_nabla_torsion_vertical"][:d, :d] + w3
    _assert_close("t2", inv.dist.t2, 0.5 * (t2m + t2m.T))
