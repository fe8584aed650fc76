"""Exact spectra of the horizontal Laplacian in unitary representations.

A spectral model attaches to each frame vector a linear combination of su(2)
generators across a finite product of factors.  Assembling the horizontal
Laplacian irrep by irrep gives the exact bottom of the spectrum up to a
Casimir cutoff; one closed bound c (sqrt(cutoff + 1/4) - 1/2), with c read
from the Gram of the horizontal coefficients, controls everything beyond it.
The same c bounds every irrep's bottom below by c sum_f j_f, so only the
irreps whose bound does not pass the least bottom found are assembled.

In the product spin basis G3 is diagonal and G1, G2 move one m by one, so
each frame image lies on 2F + 1 shifted diagonals for F factors; -sum_i X_i^2
is accumulated from their products, pair of shifts by pair, into one dense
matrix per irrep.  That matrix is checked and diagonalized whole, in real
arithmetic when no entry is imaginary.  The complex eigvalsh of an irrep of
200 or more rows can change in its last bits between one and two OpenBLAS
threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import HomogeneousSpace, OracleConfig
from .bounds import BoundReport

__all__ = [
    "IrrepSpectrum",
    "SpectrumResult",
    "CertifyEntry",
    "CertifyResult",
    "spin_matrices",
    "irrep_matrices",
    "hlap_matrix",
    "lambda1",
    "certify",
]

_ZERO_EIG = 1e-8
_HERM_TOL = 1e-10
# Largest irrep dimension that is built: `lambda1` refuses a cutoff whose
# factor spins reach past it, and `hlap_matrix` and `irrep_matrices` a larger
# irrep.  The benchmark's largest cutoffs give 281 (so3_twisted at 20000) and
# 24 x 24 = 576 (two factors at 150).
_MAX_IRREP_DIM = 1024


def _spin_bands(two_j, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries G[k, k - 1], G[k, k] and G[k, k + 1], stacked over (G1, G2, G3),
    of the spin generators in the basis m = j - k (two_j and k broadcast); an
    entry vanishes where k -+ 1 leaves the irrep."""
    j = two_j / 2.0
    m = j - k
    down = np.sqrt(j * (j + 1.0) - m * (m + 1.0))
    up = np.sqrt(j * (j + 1.0) - (m - 1.0) * m)
    zero = np.zeros_like(m)
    sub = np.array([-0.5j * down, 0.5 * down, zero])
    diag = np.array([zero, zero, -1j * m])
    sup = np.array([-0.5j * up, -0.5 * up, zero])
    return sub, diag, sup


def spin_matrices(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Skew-Hermitian spin generators (G1, G2, G3) of dimension two_j + 1
    with [G1, G2] = G3 and cyclic permutations."""
    if two_j < 0:
        raise ValueError("spin must be nonnegative")
    sub, diag, sup = _spin_bands(two_j, np.arange(two_j + 1))
    return tuple(
        np.diag(diag[a]) + np.diag(sub[a, 1:], -1) + np.diag(sup[a, :-1], 1)
        for a in range(3)
    )


def _check_homomorphism(space: HomogeneousSpace, coeffs: np.ndarray) -> None:
    """The frame map is a Lie algebra homomorphism iff the coefficient
    3-vectors close under the cross product factor by factor."""
    scale = max(1.0, float(np.abs(coeffs).max()) ** 2, float(np.abs(space.c).max()))
    i, j = np.triu_indices(space.dim, 1)
    want = np.einsum("pk,kfa->pfa", space.c[i, j], coeffs)
    got = np.cross(coeffs[i], coeffs[j])
    if (bad := np.flatnonzero(np.abs(got - want).max(axis=(1, 2)) > 1e-12 * scale)).size:
        raise ValueError(
            f"spectral model is not a Lie algebra homomorphism at "
            f"frame pair ({i[bad[0]] + 1}, {j[bad[0]] + 1})"
        )


def _embed(dims: list[int], ops: dict[int, np.ndarray]) -> np.ndarray:
    """Tensor product with ops[k] in slot k and the identity elsewhere."""
    return functools.reduce(
        np.kron, [ops[k] if k in ops else np.eye(dk) for k, dk in enumerate(dims)]
    )


def _oracle(space: HomogeneousSpace) -> OracleConfig:
    if space.oracle is None:
        raise ValueError(f"{space.name}: no spectral model attached")
    return space.oracle


def _model_coeffs(
    space: HomogeneousSpace, two_js: tuple[int, ...] | None = None
) -> np.ndarray:
    """The spectral model's frame coefficients as a (dim, factors, 3) array,
    checked to define a Lie algebra homomorphism; two_js, when given, must
    hold one nonnegative spin per factor, of dimension at most _MAX_IRREP_DIM."""
    config = _oracle(space)
    if two_js is not None:
        if len(two_js) != len(config.factors) or min(two_js) < 0:
            raise ValueError("one spin per factor required, none negative")
        if math.prod(t + 1 for t in two_js) > _MAX_IRREP_DIM:
            raise ValueError(f"irrep {two_js} has dimension above {_MAX_IRREP_DIM}")
    shape = (space.dim, len(config.factors), 3)
    try:
        coeffs = np.asarray(config.frame_map, dtype=float)
    except ValueError:  # ragged
        coeffs = None
    if coeffs is None or coeffs.shape != shape:
        raise ValueError(f"spectral model frame map must have shape {shape}")
    _check_homomorphism(space, coeffs)
    return coeffs


def irrep_matrices(
    space: HomogeneousSpace, two_js: tuple[int, ...]
) -> list[np.ndarray]:
    """Images of all frame vectors in the irrep with the given doubled spins."""
    coeffs = _model_coeffs(space, two_js)
    dims = [t + 1 for t in two_js]
    gens = [
        [_embed(dims, {f: g}) for g in spin_matrices(t)] for f, t in enumerate(two_js)
    ]
    dim = math.prod(dims)
    images = []
    for i in range(space.dim):
        op = np.zeros((dim, dim), dtype=complex)
        for f, triple in enumerate(coeffs[i]):
            for a in range(3):
                if triple[a] != 0.0:
                    op = op + triple[a] * gens[f][a]
        images.append(op)
    return images


def _assemble(coeffs: np.ndarray, two_js: tuple[int, ...]) -> np.ndarray:
    """-sum_i X_i^2, X_i = sum_{f,a} coeffs[i, f, a] G_a^{(f)}, in the irrep
    with doubled spins two_js, as a dense complex matrix.

    Basis vector p = sum_f k_f stride_f has m_f = j_f - k_f.  Each G_a^{(f)}
    keeps k_f or moves it by one, so X_i lives on the shifted diagonals
    s = 0, +-stride_f: X_i[p, p + s] = x[i, s, p], taken from the spin bands
    at k_f.  Then X_i^2 holds x[i, s, p] x[i, t, p + s] at (p, p + s + t) for
    every pair of shifts.  Pairs with equal s + t land on the same entries,
    as do the shifts of a spin-0 factor and the factor before it, so the
    entries accumulate in the order of (s, t, p).
    """
    factor_dims = np.array(two_js) + 1
    index = np.arange(dim := math.prod(t + 1 for t in two_js))
    strides = dim // np.cumprod(factor_dims)
    k = index // strides[:, None] % factor_dims[:, None]
    shifts = np.concatenate(([0], strides, -strides))
    x = np.zeros((len(coeffs), len(shifts), dim), dtype=complex)
    for f in range(nf := len(two_js)):
        sub, diag, sup = _spin_bands(two_js[f], k[f])
        x[:, 0] += coeffs[:, f] @ diag
        x[:, 1 + f] = coeffs[:, f] @ sup
        x[:, 1 + nf + f] = coeffs[:, f] @ sub
    # p + s leaves the irrep only where x[:, s, p] vanishes, so no such term
    # counts; one shift s at a time keeps the gathered x[:, :, p + s] small
    prod = np.empty((len(shifts), len(shifts), dim), dtype=complex)
    for s, shift in enumerate(shifts):
        np.einsum("ip,itp->tp", x[:, s], x[:, :, (index + shift) % dim], out=prod[s])
    s, t, p = np.nonzero(prod)  # every nonzero product lands inside the irrep
    lap = np.zeros((dim, dim), dtype=complex)
    np.subtract.at(lap, (p, p + shifts[s] + shifts[t]), prod[s, t, p])
    return lap


def _checked_spectrum(lap: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the irrep Laplacian `_assemble` returned,
    after checking at its scale max(1, max |entry|) that it is Hermitian,
    then that its spectrum is nonnegative.  An irrep with no imaginary entry
    is checked and diagonalized as a contiguous real copy, which halves the
    check's temporaries."""
    if not lap.imag.any():
        lap = np.ascontiguousarray(lap.real)
    scale = max(1.0, float(np.abs(lap).max()))
    if np.abs(lap - lap.T.conj()).max() > _HERM_TOL * scale:
        raise RuntimeError("assembled Laplacian is not Hermitian")
    eig = np.linalg.eigvalsh(lap)
    if eig[0] < -_HERM_TOL * scale:
        raise RuntimeError("assembled Laplacian is not positive semidefinite")
    return eig


def hlap_matrix(space: HomogeneousSpace, two_js: tuple[int, ...]) -> np.ndarray:
    """Horizontal Laplacian -sum_i X_i^2 in one irrep, by `lambda1`'s path:
    model validation, assembly, and the Hermitian and positivity checks."""
    coeffs = _model_coeffs(space, two_js)
    lap = _assemble(coeffs[: space.dim_h], two_js)
    _checked_spectrum(lap)
    return lap


def _top_two_j(kind: str, cutoff: float) -> int:
    """Largest 2j of the factor's spin kind with Casimir j(j+1) <= cutoff."""
    top = int(math.floor(2.0 * (-0.5 + math.sqrt(cutoff + 0.25))))
    return top - top % 2 if kind == "integer" else top


def _enumerate_irreps(config: OracleConfig, cutoff: float) -> list[tuple[int, ...]]:
    """Doubled spins of the irreps within the cutoff, ordered by Casimir sum,
    which is taken once per irrep, then by spins."""
    ranges = [
        range(0, _top_two_j(f.spins, cutoff) + 1, 2 if f.spins == "integer" else 1)
        for f in config.factors
    ]
    out = []
    for combo in itertools.product(*ranges):
        casimir = sum(t * (t + 2) / 4.0 for t in combo)
        if casimir <= cutoff and not (config.integer_sum and sum(combo) % 2):
            out.append((casimir, combo))
    return [combo for _, combo in sorted(out)]


def _label(two_js: tuple[int, ...]) -> str:
    return "(" + ", ".join(str(Fraction(t, 2)) for t in two_js) + ")"


@dataclass(frozen=True)
class IrrepSpectrum:
    label: str
    two_js: tuple[int, ...]
    dim: int
    eigenvalues: np.ndarray


@dataclass
class SpectrumResult:
    lambda1: float
    witness: str
    cutoff: float
    table: list[IrrepSpectrum]
    skipped: int
    tail_bound: float | None
    rigorous: bool
    tail_note: str


def _tail(horizontal: np.ndarray) -> tuple[float, str]:
    """Constant c, with its reason, such that the horizontal Laplacian is at
    least c s in every irrep, s = sum_f j_f, read from the horizontal rows
    alone; c is 0.0 when neither step below gives a positive constant.
    Beyond the Casimir cutoff s (s + 1) >= sum_f C_f > cutoff, so the tail
    there is at least c (sqrt(cutoff + 1/4) - 1/2).

    With T the 3F generators, C_f = -sum_a (G_a^(f))^2 = j_f (j_f + 1) and
    H = sum_k h_k u_k u_k^T the Gram of the rows over the generator slots,
    L_H = sum_k h_k (-(u_k.T)^2), each term nonnegative.  c_A = h_2: drop the
    k = 1 term, v = u_1, so L_H >= h_2 (sum_f C_f + (v.T)^2), and |v.T| <=
    sum_f |v^f| j_f <= (sum_f j_f^2)^(1/2) gives L_H >= h_2 s.
    c_B = min(a1, a2, (a1 + a2)/2 - a12), two factors only, when H has
    diagonal blocks a1 I, a2 I and a cross block X = a12 R, R in SO(3) (a12
    takes the sign of det X).  R G^(2) is again a spin-j_2 triple, so
    L_H = (a1 - a12) C_1 + (a2 - a12) C_2 + a12 C_J, with J least at the end
    |j1 - j2| or j1 + j2 of its range.  There the quadratic part is a form of
    a compression of H, so nonnegative, and the linear part is at least c_B s.
    Neither step uses the cutoff, so L_H >= c s holds in every irrep.
    A block defect e would add e (C_1 + C_2), growing like s^2, so structure
    screened on the float Gram is confirmed in the rationals of the floats.
    A pad of 1e-12 |H| covers forming H in floats, the eigensolver's backward
    error and c_B's rounding.
    """
    flat = horizontal.reshape(len(horizontal), -1)
    gram = flat.T @ flat
    h = np.linalg.eigvalsh(gram)
    c, why = h[1], "second Gram eigenvalue"

    def equivariant(g, tol):  # an int identity keeps Fraction entries exact
        x = g[:3, 3:]
        return all(np.abs(b - b[0, 0] * np.eye(3, dtype=int)).max() <= tol
                   for b in (g[:3, :3], g[3:, 3:], x.T @ x))

    if len(gram) == 6 and equivariant(gram / h[-1], 1e-10):
        exact = np.array([[Fraction(v) for v in row] for row in flat.tolist()])
        if equivariant(exact.T @ exact, 0):
            a1, a2, x = gram[0, 0], gram[3, 3], gram[:3, 3:]
            a12 = math.copysign(math.sqrt(x[:, 0] @ x[:, 0]), np.linalg.det(x))
            if (c_b := min(a1, a2, (a1 + a2) / 2 - a12)) > c:
                c, why = c_b, "equivariant two-factor frame"
    c -= 1e-12 * h[-1]
    return (c, why) if c > 0 else (0.0, "no closed tail control")


def lambda1(space: HomogeneousSpace, cutoff: float | None = None) -> SpectrumResult:
    """Smallest nonzero Laplacian eigenvalue over all irreps within the
    Casimir cutoff, with the tail beyond the cutoff bounded when possible.

    The oracle is validated once per call.  `_tail`'s constant c bounds the
    bottom of every irrep below by c sum_f j_f, so the irreps are visited in
    ascending bound, ties in Casimir order, and the visit stops at the first
    irrep whose bound exceeds the least nontrivial bottom found so far by
    more than 1e-9: no later irrep can hold lambda1, nor come within the
    witness's 1e-12 tie-break of it.  With c = 0 every irrep is visited, in
    Casimir order.  Each visited irrep is assembled, checked to be Hermitian
    and diagonalized once, and the positivity check reads that spectrum.  The table holds the visited
    irreps in Casimir order and `skipped` counts the others.  The trivial
    irrep is the 1 x 1 zero matrix, which carries the constants and is left
    out of the minimum; a zero eigenvalue anywhere else means the model is
    inconsistent and aborts (an irrep left unvisited has its bottom at least
    c s > 0).  A cutoff that is negative, infinite or NaN, or too large to
    enumerate, raises ValueError before any irrep is built.
    """
    coeffs = _model_coeffs(space)
    config = space.oracle
    if cutoff is None:
        cutoff = config.cutoff
    if not 0.0 <= cutoff < math.inf:
        raise ValueError(f"cutoff must be a finite nonnegative number, got {cutoff}")
    dim = math.prod(_top_two_j(f.spins, cutoff) + 1 for f in config.factors)
    if dim > _MAX_IRREP_DIM:
        raise ValueError(
            f"cutoff {cutoff:g} is too large to enumerate: its factor spins reach "
            f"an irrep dimension above {_MAX_IRREP_DIM}"
        )
    horizontal = coeffs[: space.dim_h]
    c, why = _tail(horizontal)

    irreps = _enumerate_irreps(config, cutoff)
    bound = [c * sum(two_js) / 2.0 for two_js in irreps]
    spectra, least = {}, math.inf
    for r in sorted(range(len(irreps)), key=bound.__getitem__):
        if bound[r] > least + 1e-9:
            break
        spectra[r] = _checked_spectrum(_assemble(horizontal, irreps[r]))
        if any(irreps[r]):
            least = min(least, float(spectra[r][0]))
    table = [IrrepSpectrum(_label(irreps[r]), irreps[r], len(e), e)
             for r, e in sorted(spectra.items())]
    best: float | None = None
    witness = ""
    for entry in table:
        if not any(entry.two_js):
            continue
        low = float(entry.eigenvalues[0])
        if low < _ZERO_EIG:
            raise RuntimeError(
                f"zero eigenvalue in nontrivial irrep {entry.label}; "
                "the spectral model does not descend to the quotient"
            )
        if best is None or low < best - 1e-12:
            best = low
            witness = entry.label
    if best is None:
        raise RuntimeError("no nontrivial irrep below the cutoff")

    tail = float(c * (math.sqrt(cutoff + 0.25) - 0.5)) if c > 0 else None
    rigorous = tail is not None and tail >= best - 1e-9
    note = f"rigorous tail ({why})" if rigorous else f"heuristic tail ({why})"
    return SpectrumResult(
        lambda1=best,
        witness=witness,
        cutoff=float(cutoff),
        table=table,
        skipped=len(irreps) - len(table),
        tail_bound=tail,
        rigorous=rigorous,
        tail_note=note,
    )


@dataclass
class CertifyEntry:
    theorem: str
    bound: float
    passed: bool


@dataclass
class CertifyResult:
    example: str
    lambda1: float
    witness: str
    rigorous: bool
    tail_note: str
    entries: list[CertifyEntry] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def certify(
    space: HomogeneousSpace, report: BoundReport, *, cutoff: float | None = None
) -> CertifyResult:
    """Check every reported bound (including alternate-convention variants)
    against the enumerated first eigenvalue."""
    candidates: list[tuple[str, float]] = [
        (e.theorem, e.value) for e in report.entries
    ]
    candidates += [
        (f"{n.theorem}-variant", n.variant) for n in report.discrepancies
    ]
    cutoff = float(_oracle(space).cutoff if cutoff is None else cutoff)
    top = max((v for _, v in candidates), default=0.0)
    if candidates and cutoff < 4.0 * top:
        raise ValueError(
            f"cutoff {cutoff} is below four times the candidate "
            f"bound {top}; raise it before certifying"
        )
    spectrum = lambda1(space, cutoff=cutoff)
    entries = [
        CertifyEntry(theorem=t, bound=v, passed=bool(v <= spectrum.lambda1 + 1e-9))
        for t, v in candidates
    ]
    return CertifyResult(
        example=space.name,
        lambda1=spectrum.lambda1,
        witness=spectrum.witness,
        rigorous=spectrum.rigorous,
        tail_note=spectrum.tail_note,
        entries=entries,
    )
