"""Exact spectra of the horizontal Laplacian in unitary representations.

A spectral model attaches to each frame vector a linear combination of su(2)
generators across a finite product of factors.  Assembling the horizontal
Laplacian irrep by irrep gives the exact bottom of the spectrum up to a
Casimir cutoff; a separate tail estimate (rigorous for untwisted frames,
advisory otherwise) controls everything beyond the cutoff.
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


def _spin_bands(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-, main and superdiagonals, stacked over (G1, G2, G3), of the
    spin generators, which are tridiagonal in the basis m = j, j - 1, ..., -j."""
    if two_j < 0:
        raise ValueError("spin must be nonnegative")
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    amp = np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0))
    zero_off, zero_diag = np.zeros_like(amp), np.zeros_like(m)
    sub = np.array([-0.5j * amp, 0.5 * amp, zero_off])
    diag = np.array([zero_diag, zero_diag, -1j * m])
    sup = np.array([-0.5j * amp, -0.5 * amp, zero_off])
    return sub, diag, sup


def spin_matrices(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Skew-Hermitian spin generators (G1, G2, G3) of dimension two_j + 1
    with [G1, G2] = G3 and cyclic permutations."""
    sub, diag, sup = _spin_bands(two_j)
    return tuple(
        np.diag(diag[a]) + np.diag(sub[a], -1) + np.diag(sup[a], 1) for a in range(3)
    )


def _coeff_array(config: OracleConfig, dim: int) -> np.ndarray:
    """Frame coefficients as an (n, factors, 3) array."""
    nf = len(config.factors)
    out = np.zeros((dim, nf, 3))
    for i, row in enumerate(config.frame_map):
        for f, triple in enumerate(row):
            out[i, f, :] = triple
    return out


def _check_homomorphism(space: HomogeneousSpace, coeffs: np.ndarray) -> None:
    """The frame map is a Lie algebra homomorphism iff the coefficient
    3-vectors close under the cross product factor by factor."""
    n = space.dim
    scale = max(1.0, float(np.abs(coeffs).max()) ** 2, float(np.abs(space.c).max()))
    for i in range(n):
        for j in range(i + 1, n):
            want = np.einsum("k,kfa->fa", space.c[i, j], coeffs)
            got = np.cross(coeffs[i], coeffs[j])
            if np.abs(got - want).max() > 1e-12 * scale:
                raise ValueError(
                    f"spectral model is not a Lie algebra homomorphism at "
                    f"frame pair ({i + 1}, {j + 1})"
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
    """The spectral model's frame coefficients, checked to define a Lie
    algebra homomorphism; two_js, when given, must hold one spin per factor."""
    config = _oracle(space)
    if two_js is not None and len(two_js) != len(config.factors):
        raise ValueError("one spin per factor required")
    coeffs = _coeff_array(config, space.dim)
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


def _horizontal_gram(coeffs: np.ndarray, dim_h: int) -> np.ndarray:
    """gram[f, a, g, b] = sum over horizontal i of coeffs[i, f, a] coeffs[i, g, b]."""
    return np.einsum("ifa,igb->fagb", coeffs[:dim_h], coeffs[:dim_h])


def _factor_block(m: np.ndarray, two_j: int) -> np.ndarray:
    """sum_{a,b} m[a, b] G_a G_b in the spin rep, built from the generators'
    bands: each product of two tridiagonal generators is pentadiagonal."""
    sub, diag, sup = _spin_bands(two_j)

    def q(x, y):
        return np.einsum("ab,ak,bk->k", m, x, y)

    # Band by band, (G_a G_b)[k, l] sums G_a[k, i] G_b[i, l] over the i with
    # |k - i| <= 1 and |i - l| <= 1.
    n = two_j + 1
    k = np.arange(n)
    out = np.zeros((n, n), dtype=complex)
    out[k, k] = q(diag, diag)
    out[k[1:], k[1:]] += q(sub, sup)
    out[k[:-1], k[:-1]] += q(sup, sub)
    out[k[:-1], k[1:]] = q(diag[:, :-1], sup) + q(sup, diag[:, 1:])
    out[k[1:], k[:-1]] = q(diag[:, 1:], sub) + q(sub, diag[:, :-1])
    out[k[:-2], k[2:]] = q(sup[:, :-1], sup[:, 1:])
    out[k[2:], k[:-2]] = q(sub[:, 1:], sub[:, :-1])
    return out


def _assemble(gram: np.ndarray, two_js: tuple[int, ...]) -> np.ndarray:
    """-sum_i X_i^2 over the horizontal frame in one irrep, from per-factor
    blocks and without products of full-size matrices.

    With X_i = sum_{f,a} c_i^{fa} G_a^{(f)}, the sum splits into the factor
    blocks A_f = sum_{a,b} gram[f,a,f,b] G_a G_b, each formed in its own spin
    rep, and the cross terms gram[f,a,g,b] G_a^{(f)} G_b^{(g)}; generators of
    different factors commute, so each pair f < g appears twice.
    """
    dims = [t + 1 for t in two_js]
    n = math.prod(dims)
    lap = np.zeros((n, n), dtype=complex)
    for f, two_j in enumerate(two_js):
        if gram[f, :, f, :].any():
            lap -= _embed(dims, {f: _factor_block(gram[f, :, f, :], two_j)})
    for f, g in itertools.combinations(range(len(two_js)), 2):
        block = gram[f, :, g, :]
        rows = [a for a in range(3) if block[a].any()]
        if not rows:
            continue
        gens_f = spin_matrices(two_js[f])
        # h[a] = 2 sum_b block[a, b] G_b in factor g.
        h = np.tensordot(2.0 * block, np.array(spin_matrices(two_js[g])), axes=1)
        for a in rows:
            lap -= _embed(dims, {f: gens_f[a], g: h[a]})
    return lap


def _checked_spectrum(lap: np.ndarray) -> np.ndarray:
    """Eigenvalues of an assembled Laplacian after checking that it is
    Hermitian, then that the spectrum is nonnegative."""
    scale = max(1.0, float(np.abs(lap).max()))
    if np.abs(lap - lap.conj().T).max() > _HERM_TOL * scale:
        raise RuntimeError("assembled Laplacian is not Hermitian")
    eig = np.linalg.eigvalsh(lap)
    if float(eig[0]) < -_HERM_TOL * scale:
        raise RuntimeError("assembled Laplacian is not positive semidefinite")
    return eig


def hlap_matrix(space: HomogeneousSpace, two_js: tuple[int, ...]) -> np.ndarray:
    """Horizontal Laplacian -sum_i X_i^2 in one irrep.

    The spectral model, the spin count and the homomorphism property are
    validated; the operator is assembled from per-factor su(2) blocks, as in
    `lambda1`, and verified to be Hermitian and positive semidefinite.
    """
    coeffs = _model_coeffs(space, two_js)
    lap = _assemble(_horizontal_gram(coeffs, space.dim_h), two_js)
    _checked_spectrum(lap)
    return lap


def _allowed_two_js(kind: str, cutoff: float) -> list[int]:
    top = int(math.floor(2.0 * (-0.5 + math.sqrt(cutoff + 0.25))))
    step = 2 if kind == "integer" else 1
    return list(range(0, top + 1, step))


def _casimir(two_j: int) -> float:
    return two_j * (two_j + 2) / 4.0


def _enumerate_irreps(config: OracleConfig, cutoff: float) -> list[tuple[int, ...]]:
    ranges = [_allowed_two_js(f.spins, cutoff) for f in config.factors]
    out = []
    for combo in itertools.product(*ranges):
        if sum(_casimir(t) for t in combo) > cutoff:
            continue
        if config.integer_sum and sum(combo) % 2 != 0:
            continue
        out.append(combo)
    out.sort(key=lambda c: (sum(_casimir(t) for t in c), c))
    return out


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
    tail_bound: float | None
    rigorous: bool
    tail_note: str


def _tail_estimate(
    space: HomogeneousSpace, config: OracleConfig, coeffs: np.ndarray, cutoff: float
) -> tuple[float | None, str]:
    """Lower bound for the spectrum in every irrep beyond the cutoff.

    Available when the full-frame coefficient Grams are isotropic per factor
    and vanish across factors: the full-frame Laplacian is then a weighted sum
    of factor Casimirs, so the horizontal part dominates that sum minus the
    vertical operator, which is controlled through the vertical coefficients.
    """
    nf = len(config.factors)
    d = space.dim_h
    scale = max(1.0, float(np.abs(coeffs).max()) ** 2)
    # Per-factor and cross-factor Grams of the full-frame coefficients.
    grams = np.einsum("ifa,igb->fagb", coeffs, coeffs)
    alphas = np.zeros(nf)
    for f in range(nf):
        g = grams[f, :, f, :]
        alphas[f] = np.trace(g) / 3.0
        if np.abs(g - alphas[f] * np.eye(3)).max() > 1e-10 * scale:
            return None, "frame Gram is anisotropic"
    for f in range(nf):
        for g in range(f + 1, nf):
            if np.abs(grams[f, :, g, :]).max() > 1e-10 * scale:
                return None, "frame couples the factors"
    if alphas.min() <= 0.0:
        return None, "degenerate factor weight"

    j_star = -0.5 + math.sqrt(cutoff / nf + 0.25)
    nu = np.linalg.norm(coeffs[d:], axis=2)  # vertical coefficient norms, m x F

    cvv = space.c[d:, d:, :]
    if np.abs(cvv).max(initial=0.0) <= 1e-12 * max(1.0, float(np.abs(space.c).max())):
        # Vertical images commute: their squares are bounded one by one.
        mq = np.diag(alphas) - nu.T @ nu
        if float(np.linalg.eigvalsh(mq)[0]) >= -1e-10 * scale:
            return float(alphas.min() * j_star), "commuting vertical images"
        return None, "vertical operators outgrow the frame weights"

    m = space.dim - d
    if m == 3:
        # A vertical su(2) triple with unit structure: the coupled spin is
        # bounded by the operator norm of any single vertical image.
        cvvv = space.c[d:, d:, d:]
        unit_triple = (
            np.abs(space.c[d:, d:, :d]).max(initial=0.0) <= 1e-12 * scale
            and all(
                np.sort(np.abs(cvvv[k, l]))[-1] == 1.0
                and np.count_nonzero(np.abs(cvvv[k, l]) > 1e-12) == 1
                for k in range(3)
                for l in range(k + 1, 3)
            )
        )
        if unit_triple:
            best = None
            for a in range(3):
                chat = nu[a]
                mq = np.diag(alphas) - np.outer(chat, chat)
                if float(np.linalg.eigvalsh(mq)[0]) < -1e-10 * scale:
                    continue
                slack = alphas - chat
                if slack.min() < -1e-10:
                    continue
                cand = float(max(slack.min(), 0.0) * j_star)
                if best is None or cand > best:
                    best = cand
            if best is not None:
                return best, "vertical su(2) triple"
    return None, "no closed tail control for this vertical structure"


def lambda1(space: HomogeneousSpace, cutoff: float | None = None) -> SpectrumResult:
    """Smallest nonzero Laplacian eigenvalue over all irreps within the
    Casimir cutoff, with the tail beyond the cutoff bounded when possible.

    The oracle is validated once per call.  Each irrep's Laplacian is
    assembled from per-factor su(2) blocks, as in `hlap_matrix`, checked to be
    Hermitian and diagonalized once; the positivity check reads that same
    spectrum.  The trivial irrep carries the constants (kernel dimension
    one); a zero eigenvalue anywhere else means the model is inconsistent and
    aborts.
    """
    coeffs = _model_coeffs(space)
    config = space.oracle
    if cutoff is None:
        cutoff = config.cutoff
    gram = _horizontal_gram(coeffs, space.dim_h)

    table: list[IrrepSpectrum] = []
    best: float | None = None
    witness = ""
    for combo in _enumerate_irreps(config, cutoff):
        eig = _checked_spectrum(_assemble(gram, combo))
        label = _label(combo)
        table.append(IrrepSpectrum(label, combo, len(eig), eig))
        if all(t == 0 for t in combo):
            kernel = int(np.count_nonzero(eig < _ZERO_EIG))
            if kernel != 1:
                raise RuntimeError(
                    f"trivial irrep carries a {kernel}-dimensional kernel"
                )
            continue
        low = float(eig[0])
        if low < _ZERO_EIG:
            raise RuntimeError(
                f"zero eigenvalue in nontrivial irrep {label}; "
                "the spectral model does not descend to the quotient"
            )
        if best is None or low < best - 1e-12:
            best = low
            witness = label
    if best is None:
        raise RuntimeError("no nontrivial irrep below the cutoff")

    tail, why = _tail_estimate(space, config, coeffs, cutoff)
    rigorous = tail is not None and tail >= best - 1e-9
    note = f"rigorous tail ({why})" if rigorous else f"heuristic tail ({why})"
    return SpectrumResult(
        lambda1=best,
        witness=witness,
        cutoff=float(cutoff),
        table=table,
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
