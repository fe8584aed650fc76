"""Curvature and torsion invariants of the adapted connection.

Everything here is a constant tensor on the orthonormal frame, so the
invariants are plain numpy arrays: the horizontal Ricci-type trace of the
curvature, the sub-Riemannian Ricci form, the rigidity one-form, and the Gram
matrices of the three torsion semi-norms.  The horizontal trace and the Ricci
form are contracted straight from the connection coefficients; the full
curvature tensor, `riemann`, lives in the test suite's `tests/oracles.py` as
their reference.  Every result but `trace_rm`'s is kept for the most recent
connection object and returned again; its arrays are read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import ZERO_TOL
from .connection import Connection, _read_only, _tor2_outer, trace_tor2

__all__ = [
    "SeminormGrams",
    "StructureFlags",
    "trace_rm",
    "sub_ricci",
    "rigidity",
    "seminorm_grams",
    "classify",
]


def trace_rm(conn: Connection) -> np.ndarray:
    """Horizontal trace of the curvature: ``out[a, b]`` sums the sectional
    terms of R(E_k, e_a) e_b against E_k over the horizontal frame.

    Contracted straight from the connection coefficients: the three terms
    of `riemann` at every horizontal k, summed over k last as a trace of the
    full tensor would be.
    """
    d = conn.space.dim_h
    g, c = conn.gamma, conn.space.c
    gh = g[:, :, :d]
    rm = (
        np.einsum("abl,klk->kab", g, gh[:d])
        - np.einsum("kbl,alk->kab", g[:d], gh)
        - np.einsum("kam,mbk->kab", c[:d], gh)
    )
    return rm.sum(axis=0)


@functools.lru_cache(maxsize=1)
def sub_ricci(conn: Connection) -> np.ndarray:
    """Sub-Riemannian Ricci form as a full matrix on the frame.

    Off the horizontal block the torsion corrections vanish by construction
    and the curvature trace vanishes because the connection preserves the
    splitting, so the matrix is supported on the horizontal block.
    """
    d = conn.space.dim_h
    src = trace_rm(conn)
    src[:d, :d] -= 0.5 * _tor2_outer(conn)[:, :d, :d].sum(axis=0)
    src[:d, :d] -= trace_tor2(conn)[:d, :d]
    return _read_only(src)


@functools.lru_cache(maxsize=1)
def rigidity(conn: Connection) -> np.ndarray:
    """Rigidity one-form on the frame, as the vector of its components.

    The entry for a horizontal vector traces the mixed torsion against the
    vertical frame; for a vertical vector, against the horizontal frame.
    """
    d = conn.space.dim_h
    t = conn.tor
    return _read_only(np.einsum("kak->a", t[:d, :, :d]) + np.einsum("kak->a", t[d:, :, d:]))


@dataclass(frozen=True)
class SeminormGrams:
    """Gram matrices of the torsion semi-norms.

    Each matrix G satisfies ``|tau(A)|^2 = A @ G @ A`` for the corresponding
    semi-norm; all three are positive semidefinite by construction.

    tau_vh: horizontal output of the torsion paired with the vertical frame.
    tau_hv: vertical output of the torsion paired with the horizontal frame.
    tau_h:  pairing of A against the torsion of all ordered horizontal pairs.
    """

    tau_vh: np.ndarray
    tau_hv: np.ndarray
    tau_h: np.ndarray


@functools.lru_cache(maxsize=1)
def seminorm_grams(conn: Connection) -> SeminormGrams:
    d = conn.space.dim_h
    t = conn.tor
    mixed_vh = t[:, d:, :d]  # <Tor(e_p, U_k), E_i>
    mixed_hv = t[:, :d, d:]  # <Tor(e_p, E_i), U_k>
    horiz = t[:d, :d, :]  # <Tor(E_i, E_j), e_p>, both orders counted
    return SeminormGrams(
        tau_vh=_read_only(np.einsum("pki,qki->pq", mixed_vh, mixed_vh)),
        tau_hv=_read_only(np.einsum("pik,qik->pq", mixed_hv, mixed_hv)),
        tau_h=_read_only(np.einsum("ijp,ijq->pq", horiz, horiz)),
    )


@dataclass(frozen=True)
class StructureFlags:
    """Boolean geometry of the torsion, decided with a scaled zero test."""

    h_rigid: bool
    v_rigid: bool
    totally_rigid: bool
    h_normal: bool
    v_normal: bool
    strictly_normal: bool
    vm_integrable: bool
    almost_strictly_normal: bool


@functools.lru_cache(maxsize=1)
def classify(conn: Connection) -> StructureFlags:
    """Decide the torsion-shape flags used as theorem preconditions.

    h_normal / v_normal record whether mixed torsion values stay vertical,
    respectively horizontal; strictly normal means they vanish outright.
    vm_integrable records whether vertical brackets stay vertical.
    """
    space = conn.space
    d = space.dim_h
    cut = ZERO_TOL * max(1.0, float(np.abs(space.c).max()) ** 2)

    t, r = conn.tor, rigidity(conn)
    h_rigid = bool(np.abs(r[:d]).max(initial=0.0) <= cut)
    v_rigid = bool(np.abs(r[d:]).max(initial=0.0) <= cut)

    mixed = t[:d, d:, :]  # Tor(X, T)
    h_normal = bool(np.abs(mixed[:, :, :d]).max(initial=0.0) <= cut)
    v_normal = bool(np.abs(mixed[:, :, d:]).max(initial=0.0) <= cut)
    strictly_normal = h_normal and v_normal
    vm_integrable = bool(
        np.abs(space.c[d:, d:, :d]).max(initial=0.0) <= cut
    )
    return StructureFlags(
        h_rigid=h_rigid,
        v_rigid=v_rigid,
        totally_rigid=h_rigid and v_rigid,
        h_normal=h_normal,
        v_normal=v_normal,
        strictly_normal=strictly_normal,
        vm_integrable=vm_integrable,
        almost_strictly_normal=h_rigid and vm_integrable and v_normal,
    )
