"""Canonical metric connection adapted to the horizontal/vertical splitting.

The connection is determined by requiring metric compatibility, that parallel
transport preserve both distributions, and that the torsion exchange the two
distributions on pure pairs.  On an orthonormal adapted frame all coefficients
are constants and come out of Koszul-type closed forms, one per block.

The pipeline reads only traces and blocks of the torsion derivative and of
the iterated torsion, and contracts them straight from the coefficients and
the torsion.  The full n^4 tensors, `nabla_torsion` and `tor2`, live in the
test suite's `tests/oracles.py` as the reference for these contractions.
`trace_tor2` and `_tor2_outer` are kept for the most recent connection
object and returned again, read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .algebra import ZERO_TOL, HomogeneousSpace

__all__ = [
    "Connection",
    "canonical_connection",
    "verify_connection",
    "torsion",
    "trace_nabla_torsion",
    "trace_tor2",
    "trace_nabla_torsion_vertical",
]


@dataclass(frozen=True, eq=False)
class Connection:
    """Connection coefficients on the adapted frame.

    ``gamma[i, j, k]`` is the inner product of the covariant derivative of
    frame vector j along frame vector i with frame vector k.  ``tor`` is
    ``torsion`` of these coefficients, computed once on construction.
    Connections compare by identity, so a kept result never serves another.
    """

    space: HomogeneousSpace
    gamma: np.ndarray
    tor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tor", torsion(self))


@functools.lru_cache(maxsize=1)
def canonical_connection(space: HomogeneousSpace) -> Connection:
    """Build the adapted connection and verify its defining properties.

    Raises RuntimeError if the computed coefficients fail metric
    compatibility, splitting preservation, or the torsion mapping and
    symmetry properties.  That cannot happen for a valid structure tensor,
    so a failure indicates corrupted input rather than a borderline case.
    The result for the most recent space object is kept and returned again;
    its ``gamma`` and ``tor`` are read-only.
    """
    d, n = space.dim_h, space.dim
    c = space.c
    gamma = np.zeros((n, n, n))

    h = slice(0, d)
    v = slice(d, n)

    # Derivatives along one distribution of vectors in the same distribution:
    # Koszul formula with all brackets projected back onto that distribution.
    for block in (h, v):
        cb = c[block, block, block]
        gamma[block, block, block] = 0.5 * (
            cb - cb.transpose(2, 0, 1) + cb.transpose(1, 2, 0)
        )

    # Mixed derivatives. The direction lives in one distribution, the
    # differentiated vector and the output in the other.
    for direction, block in ((v, h), (h, v)):
        cb = c[block, direction, block]  # cb[j, i, k] with i the direction
        half = 0.5 * (cb.transpose(2, 1, 0) - cb)
        gamma[direction, block, block] = half.transpose(1, 0, 2)

    conn = Connection(space=space, gamma=_read_only(gamma))
    _read_only(conn.tor)
    problems = verify_connection(conn)
    if problems:
        raise RuntimeError("; ".join(problems))
    return conn


def torsion(conn: Connection) -> np.ndarray:
    """Torsion tensor on the frame: ``tor[i, j, k]`` is the k-component
    of Tor(e_i, e_j)."""
    g = conn.gamma
    return g - g.transpose(1, 0, 2) - conn.space.c


def trace_nabla_torsion(conn: Connection) -> np.ndarray:
    """Horizontal trace of the torsion derivative over its last two slots.

    Returns ``out[a, k]``, the k-component of the trace evaluated at e_a.
    """
    return _trace_nabla_tor(conn, slice(0, conn.space.dim_h))


@functools.lru_cache(maxsize=1)
def trace_tor2(conn: Connection) -> np.ndarray:
    """Horizontal trace of the iterated torsion over its first two slots:
    ``out[a, k]`` sums ``t2[i, i, a, k]`` over the horizontal frame."""
    h = conn.tor[: conn.space.dim_h]
    return _read_only(np.einsum("ial,ilk->iak", h, h).sum(axis=0))


def trace_nabla_torsion_vertical(conn: Connection) -> np.ndarray:
    """Vertical trace of the torsion derivative over its last two slots."""
    return _trace_nabla_tor(conn, slice(conn.space.dim_h, None))


# The helpers below contract the torsion derivative `nabla_torsion` and the
# iterated torsion `tor2` of `tests/oracles.py` straight from the
# coefficients.  Each builds the terms of its tensor at every value of the
# traced index, combines them as the tensor does and sums over that index
# last, so it adds in the same order as a trace of the full tensor and gives
# the same bits.


def _trace_nabla_tor(conn: Connection, block: slice) -> np.ndarray:
    """``out[a, k]``: sum of ``nt[a, i, i, k]`` over i in one block, where
    ``nt`` is `nabla_torsion`."""
    g, t = conn.gamma[block], conn.tor
    tb = t[:, block]
    nt = (
        np.einsum("ail,ilk->iak", tb, g)
        - np.einsum("ial,lik->iak", g, tb)
        - np.einsum("iil,alk->iak", g[:, block], t)
    )
    return nt.sum(axis=0)


def _nabla_tor_vh(conn: Connection) -> np.ndarray:
    """``out[k, a, b]`` is ``nt[k, a, b, k]`` for k horizontal, a vertical
    and b horizontal, where ``nt`` is `nabla_torsion`."""
    d = conn.space.dim_h
    g, t = conn.gamma[d:], conn.tor
    return (
        np.einsum("kbl,alk->kab", t[:d, :d], g[:, :, :d])
        - np.einsum("akl,lbk->kab", g[:, :d], t[:, :d, :d])
        - np.einsum("abl,klk->kab", g[:, :d], t[:d, :, :d])
    )


@functools.lru_cache(maxsize=1)
def _tor2_outer(conn: Connection) -> np.ndarray:
    """``out[k, a, b]`` is ``t2[k, a, b, k]`` for k horizontal, where ``t2``
    is `tor2`."""
    t = conn.tor
    d = conn.space.dim_h
    return _read_only(np.einsum("abl,klk->kab", t, t[:d, :, :d]))


def _tor2_inner_vh(conn: Connection) -> np.ndarray:
    """``out[a, b]``: sum of ``t2[a, b, k, k]`` over horizontal k, for a
    vertical and b horizontal."""
    d = conn.space.dim_h
    t = conn.tor
    return np.einsum("bkl,alk->kab", t[:d, :d], t[d:, :, :d]).sum(axis=0)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: a kept result is shared by every caller."""
    a.flags.writeable = False
    return a


def verify_connection(conn: Connection) -> list[str]:
    """Check the five defining properties of the adapted connection and
    return a description of each violated one (empty for the genuine
    connection).  Useful for probing perturbed coefficient tensors."""
    space = conn.space
    d, n = space.dim_h, space.dim
    gamma = conn.gamma
    scale = max(1.0, float(np.abs(space.c).max()), float(np.abs(gamma).max()))
    tol = ZERO_TOL * scale
    problems = []

    if np.abs(gamma + gamma.transpose(0, 2, 1)).max() > tol:
        problems.append("connection is not metric compatible")

    hmask = np.zeros(n, dtype=bool)
    hmask[:d] = True
    split = hmask[:, None] ^ hmask[None, :]  # True where j, k mix components
    if np.abs(gamma[:, split]).max(initial=0.0) > tol:
        problems.append("connection does not preserve the splitting")

    t = conn.tor
    if np.abs(t[:d, :d, :d]).max() > tol:
        problems.append("torsion of two horizontal vectors is not vertical")
    if np.abs(t[d:, d:, d:]).max(initial=0.0) > tol:
        problems.append("torsion of two vertical vectors is not horizontal")

    # Mixed-pair symmetries: with one vertical argument fixed, the map on
    # horizontal vectors is self-adjoint, and symmetrically with the roles
    # of the distributions exchanged.
    mixed_h = t[:d, d:, :d]  # tor[x, t, y]
    if np.abs(mixed_h - mixed_h.transpose(2, 1, 0)).max(initial=0.0) > tol:
        problems.append("mixed torsion is not symmetric on horizontal pairs")
    mixed_v = t[d:, :d, d:]  # tor[t, x, u]
    if np.abs(mixed_v - mixed_v.transpose(2, 1, 0)).max(initial=0.0) > tol:
        problems.append("mixed torsion is not symmetric on vertical pairs")
    return problems
