"""Shared helpers for randomized geometry tests.

Random spaces come from the packaged example families with randomized
parameters, or from a weighted so(4) frame that reaches the general asn
branch, optionally followed by a vertical metric rescaling and a blockwise
rotation of the adapted frame. Both operations preserve antisymmetry, the
Jacobi identity, step-2 generation, and the horizontal/vertical splitting, so
every generated space is valid by construction.  The step-2 nilpotent
algebras (Heisenberg, free) reach dimension 15 and have no positive curvature
constants, so no bound applies to them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from sublap import HomogeneousSpace, OracleConfig, OracleFactor, load_builtin, rescale_vertical
from sublap.bounds import invariants
from sublap.cli import main
from sublap.connection import _tor2_outer, canonical_connection, trace_tor2
from sublap.curvature import classify, rigidity, seminorm_grams, sub_ricci

# Every function that keeps its result for the most recent space or connection.
KEPT = (invariants, canonical_connection, trace_tor2, _tor2_outer,
        sub_ricci, rigidity, seminorm_grams, classify)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Start every test with the caches of `KEPT` empty, so no test reads a
    result that an earlier test left behind."""
    for kept in KEPT:
        kept.cache_clear()


def run(capsys, *argv):
    """Run the CLI in-process; return its exit code, stdout and stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotate_frame(
    space: HomogeneousSpace, oh: np.ndarray, ov: np.ndarray
) -> HomogeneousSpace:
    """Re-express the structure constants in the adapted frame whose vector i
    is sum_a o[a, i] e_a, o = diag(oh, ov).  The name, params, convention
    variants and spectral model carry over; row i of the model's frame map
    becomes sum_a o[a, i] (row a)."""
    n, d = space.dim, space.dim_h
    o = np.zeros((n, n))
    o[:d, :d] = oh
    o[d:, d:] = ov
    c = np.einsum("ai,bj,abg,gk->ijk", o, o, space.c, o)
    oracle = space.oracle
    if oracle is not None:
        rows = np.einsum("ai,afx->ifx", o, np.array(oracle.frame_map)).tolist()
        oracle = replace(oracle, frame_map=tuple(tuple(map(tuple, r)) for r in rows))
    return HomogeneousSpace(
        space.name, d, space.dim_v, c, dict(space.params), oracle, space.variants
    )


def _quaternion_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab for quaternions given by their coefficients on (1, i, j, k)."""
    vec = a[0] * b[1:] + b[0] * a[1:] + np.cross(a[1:], b[1:])
    return np.array([a[0] * b[0] - a[1:] @ b[1:], *vec])


def so4_weighted(
    sq_lengths: tuple[float, ...] = (1.0, 1.0, 1.0, 2.0, 1.0)
) -> HomogeneousSpace:
    """so(4) with V = span(M12) and H = (M13, M14, M23, M24, M34), where M_ij
    is the elementary rotation and the H vectors have the given squared
    lengths (M12 has length 1).  The default lengths give an almost strictly
    normal space whose asn product term is neither zero nor isotropic.

    The spectral model writes each M_ij as L(p) + R(q), left and right
    multiplication of R^4, read as the quaternions, by imaginary quaternions,
    and maps it to (2p, -2q) in su(2) + su(2) with [g1, g2] = g3, divided by
    the frame vector's length; with `integer_sum` it is SO(4)."""
    pairs = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)]
    scale = np.sqrt(np.append(np.asarray(sq_lengths, dtype=float), 1.0))
    mats = []
    for i, j in pairs:
        m = np.zeros((4, 4))
        m[i, j], m[j, i] = 1.0, -1.0
        mats.append(m)
    flat = np.array([m.ravel() for m in mats]).T
    c = np.zeros((6, 6, 6))
    for a, ma in enumerate(mats):
        for b, mb in enumerate(mats):
            coords = np.linalg.lstsq(flat, (ma @ mb - mb @ ma).ravel(), rcond=None)[0]
            c[a, b] = np.round(coords) * scale / (scale[a] * scale[b])
    # each M_ij on the basis L(i), L(j), L(k), -R(i), -R(j), -R(k): (p, -q)
    unit = np.eye(4)
    left = [np.array([_quaternion_product(u, e) for e in unit]).T for u in unit[1:]]
    right = [-np.array([_quaternion_product(e, u) for e in unit]).T for u in unit[1:]]
    lr = np.array([m.ravel() for m in left + right]).T
    two_pq = np.round(2.0 * np.linalg.lstsq(lr, flat, rcond=None)[0].T)
    rows = (two_pq / scale[:, None]).reshape(6, 2, 3).tolist()
    oracle = OracleConfig(
        factors=(OracleFactor("all"), OracleFactor("all")),
        frame_map=tuple(tuple(map(tuple, r)) for r in rows),
        integer_sum=True,
    )
    return HomogeneousSpace("so4_weighted", 5, 1, c, {}, oracle)


def random_space(rng: np.random.Generator) -> HomogeneousSpace:
    kind = int(rng.integers(0, 5))
    if kind == 0:
        space = load_builtin("so4_twisted", b=float(rng.uniform(-0.8, 0.8)))
    elif kind == 1:
        space = load_builtin("so3_twisted", c=float(rng.uniform(-0.9, 0.9)))
    elif kind == 2:
        space = load_builtin("so4_alt")
    elif kind == 3:
        space = load_builtin("twisted_spheres")
    else:
        space = so4_weighted()
    if rng.random() < 0.7:
        space = rescale_vertical(space, float(10.0 ** rng.uniform(-1.0, 1.0)))
    oh = random_orthogonal(rng, space.dim_h)
    ov = random_orthogonal(rng, space.dim_v)
    return rotate_frame(space, oh, ov)


def heisenberg(k: int) -> HomogeneousSpace:
    """H_{2k+1}: [X_i, Y_i] = Z, with the X_i, Y_i horizontal."""
    n = 2 * k + 1
    c = np.zeros((n, n, n))
    for i in range(k):
        c[i, k + i, n - 1] = 1.0
        c[k + i, i, n - 1] = -1.0
    return HomogeneousSpace(f"heisenberg{n}", 2 * k, 1, c)


def free_step2(r: int) -> HomogeneousSpace:
    """Free step-2 nilpotent algebra on r horizontal generators:
    [e_i, e_j] = e_ij, one vertical vector per pair i < j."""
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    n = r + len(pairs)
    c = np.zeros((n, n, n))
    for p, (i, j) in enumerate(pairs):
        c[i, j, r + p] = 1.0
        c[j, i, r + p] = -1.0
    return HomogeneousSpace(f"free_step2_r{r}", r, len(pairs), c)


def nilpotent_spaces() -> list[HomogeneousSpace]:
    """Heisenberg H3 to H15 and the free step-2 algebras on 3 to 5 generators."""
    return [heisenberg(k) for k in range(1, 8)] + [free_step2(r) for r in range(3, 6)]


# A solvable algebra, [e1, e2] = e3 and [e1, e3] = e3.  Its curvature forms
# vanish on H x H but not on H x V, so no bound applies either.  The trailing
# ';' leaves an empty bracket term.
SOLVABLE_SPEC = """\
name solv3
dim_h 2
dim_v 1
bracket 1 2 = 1 3
bracket 1 3 = 1 3;
"""


def spec_text(space: HomogeneousSpace) -> str:
    """The space as a spec whose coefficients are the repr of its constants."""
    n = space.dim
    lines = [f"dim_h {space.dim_h}", f"dim_v {space.dim_v}"]
    for i in range(n):
        for j in range(i + 1, n):
            terms = [f"{float(space.c[i, j, k])!r} {k + 1}" for k in range(n) if space.c[i, j, k]]
            if terms:
                lines.append(f"bracket {i + 1} {j + 1} = " + "; ".join(terms))
    return "\n".join(lines) + "\n"


def moved_frame(space: HomogeneousSpace, rng: np.random.Generator) -> HomogeneousSpace:
    """The space with its vertical metric rescaled by a random factor in
    [0.1, 10] and its adapted frame rotated blockwise at random."""
    space = rescale_vertical(space, float(10.0 ** rng.uniform(-1.0, 1.0)))
    oh = random_orthogonal(rng, space.dim_h)
    ov = random_orthogonal(rng, space.dim_v)
    return rotate_frame(space, oh, ov)
