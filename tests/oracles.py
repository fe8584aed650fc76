"""Reference implementations that the tests check the package against.

The package reads only traces and blocks of the curvature, the torsion
derivative and the iterated torsion, and takes rho1 as lambda_min of a Schur
complement.  Here are the full n^4 tensors those traces come from and the PSD
bisection the Schur complement replaces, each written the direct way.
`lambda1` diagonalizes only the irreps whose proven lower bound does not
pass the least bottom it has found; `irrep_table` diagonalizes them all.
`validate` scans the Jacobi rows only when some entry fails; `validate_problems`
locates every violation unconditionally.  `_golden_max` may evaluate a step's
point with both points the next step can take; `golden_max_reference` takes
one point per step.
"""

from __future__ import annotations

import math

import numpy as np

from sublap import Connection, HomogeneousSpace, SpectrumResult, spectral
from sublap.algebra import ZERO_TOL
from sublap.bounds import _GOLDEN_ITERS, _PSD_TOL

_BISECT_TOL = 1e-10


def riemann(conn: Connection) -> np.ndarray:
    """Curvature tensor of the adapted connection.

    ``rm[i, j, k, l]`` is the inner product of R(e_i, e_j) e_k with e_l,
    where R is the usual commutator of covariant derivatives minus the
    derivative along the bracket.
    """
    g = conn.gamma
    c = conn.space.c
    return (
        np.einsum("jkl,ilp->ijkp", g, g)
        - np.einsum("ikl,jlp->ijkp", g, g)
        - np.einsum("ija,akp->ijkp", c, g)
    )


def nabla_torsion(conn: Connection) -> np.ndarray:
    """Covariant derivative of the torsion.

    ``nt[a, b, c, k]`` is the k-component of the derivative of Tor along
    frame vector b, evaluated on the pair (e_a, e_c).
    """
    g = conn.gamma
    t = conn.tor
    return (
        np.einsum("acl,blk->abck", t, g)
        - np.einsum("bal,lck->abck", g, t)
        - np.einsum("bcl,alk->abck", g, t)
    )


def tor2(conn: Connection) -> np.ndarray:
    """Iterated torsion: ``t2[a, b, c, k]`` is the k-component of
    Tor(e_a, Tor(e_b, e_c))."""
    t = conn.tor
    return np.einsum("bcl,alk->abck", t, t)


def feasible_rho1(q: np.ndarray, d: int, rho2: float) -> float | None:
    """Largest rho1 with q - diag(rho1 on H, rho2 on V) positive semidefinite,
    where H is the first d frame vectors.

    Bisection against the minimum eigenvalue to absolute tolerance 1e-10.
    Returns None when even rho1 = 0 is infeasible.
    """
    n = q.shape[0]
    scale = max(1.0, float(np.abs(q).max()))

    def feasible(rho1: float) -> bool:
        shift = np.zeros(n)
        shift[:d] = rho1
        shift[d:] = rho2
        w = np.linalg.eigvalsh(q - np.diag(shift))
        return bool(w[0] >= -_PSD_TOL * scale)

    if not feasible(0.0):
        return None
    lo = 0.0
    hi = float(np.linalg.eigvalsh(q[:d, :d])[0]) + 1.0
    if feasible(hi):  # cannot happen for finite forms, but stay defensive
        return hi
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def golden_max_reference(fun, lo, hi):
    """Golden-section maximization of a unimodal fun on [lo, hi], elementwise
    over arrays of brackets, one point per call of fun; returns the best
    (argument, value) among every evaluation, so it never regresses."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc = fun(c)
    fd = fun(d)
    best_x, best_f = np.where(fd > fc, d, c), np.where(fd > fc, fd, fc)
    for _ in range(_GOLDEN_ITERS):
        left = fc >= fd  # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - ratio * (b - a), a + ratio * (b - a))
        fx = fun(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        better = fx > best_f
        best_x, best_f = np.where(better, x, best_x), np.where(better, fx, best_f)
    return best_x, best_f


def validate_problems(space: HomogeneousSpace) -> list[str]:
    """The antisymmetry and Jacobi violations of a finite structure array of
    the right shape, in `validate`'s words and order, each check run in full."""
    c = space.c
    problems = []
    skew = c + c.transpose(1, 0, 2)
    bad = np.argwhere(np.abs(skew) > ZERO_TOL)
    for i, j, k in bad[bad[:, 0] <= bad[:, 1]]:
        problems.append(
            f"antisymmetry violated at ({i + 1},{j + 1},{k + 1}): "
            f"c[{i + 1}][{j + 1}][{k + 1}] + c[{j + 1}][{i + 1}][{k + 1}] = {skew[i, j, k]:.3e}"
        )
    comp = np.tensordot(c, c, axes=(2, 0))
    jac = comp + comp.transpose(1, 2, 0, 3) + comp.transpose(2, 0, 1, 3)
    seen = set()
    for i, j, k in np.argwhere(np.max(np.abs(jac), axis=3) > ZERO_TOL):
        key = tuple(sorted((int(i), int(j), int(k))))
        if key not in seen:
            seen.add(key)
            problems.append(
                f"Jacobi identity violated on ({key[0] + 1},{key[1] + 1},{key[2] + 1}): "
                f"max defect {float(np.max(np.abs(jac[i, j, k]))):.3e}"
            )
    return problems


def irrep_table(space: HomogeneousSpace, cutoff: float | None = None) -> SpectrumResult:
    """`lambda1` over every irrep within the cutoff: each irrep of
    `_enumerate_irreps`, in Casimir order, assembled and checked by the
    package's own helpers, and the witness taken over the whole table.  The
    tail and its note come from `_tail` by `lambda1`'s rule."""
    if cutoff is None:
        cutoff = space.oracle.cutoff
    horizontal = spectral._model_coeffs(space)[: space.dim_h]
    table = []
    for combo in spectral._enumerate_irreps(space.oracle, cutoff):
        e = spectral._checked_spectrum(spectral._assemble(horizontal, combo))
        table.append(spectral.IrrepSpectrum(spectral._label(combo), combo, len(e), e))
    best, witness = None, ""
    for entry in table:
        low = float(entry.eigenvalues[0])
        if any(entry.two_js) and (best is None or low < best - 1e-12):
            best, witness = low, entry.label
    c, why = spectral._tail(horizontal)
    tail = float(c * (math.sqrt(cutoff + 0.25) - 0.5)) if c > 0 else None
    rigorous = tail is not None and tail >= best - 1e-9
    note = f"rigorous tail ({why})" if rigorous else f"heuristic tail ({why})"
    return SpectrumResult(best, witness, float(cutoff), table, 0, tail, rigorous, note)
