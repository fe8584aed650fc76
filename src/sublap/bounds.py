"""Lower bounds for the first eigenvalue of the horizontal Laplacian.

The bound machinery works with a one-parameter family of quadratic curvature
forms Q(x) on the frame, two distortion tensors, and a handful of scalar
constants derived from them.  Every theorem reduces to finite linear algebra
plus a scalar optimization; the optimizer sweeps deterministic grids and then
refines the best abscissas by golden section, so identical inputs always give
identical output.  At each x the vertical block of Q(x) is eliminated once,
and every theorem reads its Schur complements from that elimination: main,
t1zero and asn take Q(x)'s, and when q_tt2 is nonzero asn takes those of
Q(x) + q_tt2, which differ only on H x H.  The theorems sweep x in lockstep,
and a single golden-section pass refines the winning abscissas of all of
them; no x is evaluated again after it.  A space where `_theorems` finds no
theorem is not swept.

`_evaluate` takes a request, each theorem with the x it asks, and returns
plain columns; only the results `optimize` reports become `BoundResult`s.
Each sweep round and each golden call is one `_evaluate` call, whatever x
each theorem asks.  Of a three-x golden call, about half is the vertical
elimination, a quarter the visited candidates and the rest picking them, and
most of it is per call, not per x.  So the golden pass evaluates each step's
point with both points the next step can take: two steps per call, 31 calls
for its 60 steps.  Every step takes the point it would have computed itself,
bit for bit, and a point no step takes never reaches a result.  asn's
duality search over t keeps one point per step: each of its points costs a
matrix per live candidate.

The x sweep evaluates only the x whose cap can still beat the best value
found.  A cap bounds rho1 by r, the Rayleigh quotient of the Schur complement
at the bottom eigenvector of Q_HH plus a rounding pad, by Courant-Fischer.
Over candidates rho2 <= b, main is at most (r - m_floor)/(Delta + kappa/b), as
m >= m_floor = 2 sqrt(omega chi) = 2 sqrt(kappa sup T2+); so is asn with r on
Q + q_tt2 and coeff for m_floor, its semi-norm Grams being PSD; and so is
t1zero when sup T2 <= 0.  Otherwise t1zero needs r > m_floor, as rho1^2 -
4 omega chi = rho1^2 - m_floor^2; its case 2 is at most r/(Delta + kappa/b),
and its case 1 is below rho1/(2 Delta + 1) for rho1^2 < 4 chi (omega + Delta)
only.  The root cap of an x takes r = lambda_min(Q_HH) + pad, every weight
1/(mu_j - rho2) being nonnegative, and b = mu_min; the cap of a cell of
consecutive base candidates takes r at its first, as r falls with rho2, and b
its last; a leaf is one candidate.  Each level is computed only where the
level above can still beat the best.

The leaf caps of every candidate of the x of one call are taken in one
pass per form.  A candidate is pending while its leaf cap reaches its x's
best value, and complements are diagonalized only for the pending candidates
of largest leaf cap over the x a theorem asks, in growing batches that a
partition picks.  A cap equal to the best is still visited, so the first
candidate wins a tie.  The schedule is free: a result is the first argmax
over the visited candidates, the only ones whose closed forms are kept, and
every schedule visits each candidate whose leaf cap reaches the final best.
asn's duality search runs only where (lambda_min(S) + pad)/(Delta + omega)
reaches its best.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import VARIANT_NAMES, ZERO_TOL, HomogeneousSpace, eval_coefficient
from .connection import (
    _nabla_tor_vh,
    _tor2_inner_vh,
    _tor2_outer,
    canonical_connection,
    trace_nabla_torsion,
    trace_nabla_torsion_vertical,
    trace_tor2,
)
from .curvature import (
    SeminormGrams,
    StructureFlags,
    classify,
    rigidity,
    seminorm_grams,
    sub_ricci,
)

__all__ = [
    "DistortionPack",
    "Invariants",
    "MConstant",
    "BoundResult",
    "DiscrepancyNote",
    "BoundReport",
    "PseudohermitianBound",
    "distortion",
    "invariants",
    "m_constant",
    "bound_main",
    "bound_t1zero",
    "bound_asn",
    "bound_sntf",
    "bound_pseudohermitian",
    "optimize",
    "report_text",
    "report_csv",
    "CSV_COLUMNS",
]

# The columns from x on are the BoundResult fields of the same name.
CSV_COLUMNS = (
    "example",
    "theorem",
    "bound",
    "x",
    "rho1",
    "rho2",
    "omega",
    "chi",
    "psi",
    "m",
)

_PSD_TOL = 1e-12
# Half-width of the log t bracket of the asn duality search, centred on
# sqrt(tr G2 / tr G1).  Every t gives a sound value; the bracket only limits
# how close the search gets to a supremum that lies far out, which happens
# when a Gram is singular on the minimizing direction.
_LOG_T_SPAN = 23.0
_RHO2_DECADES = 6  # span of the base rho2 grid, centred on kappa
_RHO2_PER_DECADE = 200  # base rho2 grid density of the evaluators and `optimize`
_GOLDEN_ITERS = 60  # golden-section steps after the first two evaluations
# Widths, in base-grid rho2 candidates, of the nested cells that refine the
# caps pruning `optimize`: a live cell splits into ten of the next width.
_CELLS = (100, 10, 1)
_NEAR = 1.0 - np.power(10.0, -np.arange(2.0, 11.0))  # rho2 = mu_min * _NEAR near the edge
_BATCH = 8  # the first batch of Schur complements in `_evaluate`
_AUX = {"main": "s", "t1zero": "case"}  # the aux field each theorem reports


# ---------------------------------------------------------------------------
# Quadratic form and distortion tensors


@dataclass(frozen=True)
class DistortionPack:
    """Distortion tensors: t1 is the m-by-d mixed form (vertical argument
    first), t2 the symmetric d-by-d pure form on horizontal vectors."""

    t1: np.ndarray
    t2: np.ndarray


@dataclass(frozen=True)
class Invariants:
    """Curvature and torsion data of a space, computed once by `invariants`.

    The bound evaluators, `distortion` and the CLI read every quantity from
    here.  The curvature family is affine in x:
    Q(x) = (1-x) q_src + (1+x) q_nt + (1+3x)/4 q_tauh, padded to the frame,
    and the refined (asn) form adds q_tt2.
    """

    space: HomogeneousSpace
    flags: StructureFlags
    src: np.ndarray  # sub-Riemannian Ricci form
    grams: SeminormGrams
    rig: np.ndarray  # rigidity one-form
    dist: DistortionPack
    kappa: float  # top eigenvalue of the horizontal-paired torsion Gram on H
    sigma: float  # top singular value of t1
    sup_t2: float  # top eigenvalue of t2
    t1_zero: bool
    trnt_h_zero: bool  # horizontal torsion-derivative trace vanishes
    product: tuple[str, float]  # asn semi-norm product term: kind, coefficient
    q_src: np.ndarray  # sub-Ricci minus the vertical/horizontal coupling
    q_nt: np.ndarray  # symmetrized torsion-derivative trace
    q_tauh: np.ndarray  # horizontal-torsion Gram
    q_tt2: np.ndarray  # 2 * symmetrized horizontal trace of TOR2
    tt2: bool  # q_tt2 is nonzero, so asn reads the complements of Q(x) + q_tt2

    @property
    def d(self) -> int:
        return self.space.dim_h

    def q(self, x):
        """Q(x), or a stack of forms for an array of x."""
        x = np.asarray(x, dtype=float)[..., None, None]
        return (
            (1.0 - x) * self.q_src
            + (1.0 + x) * self.q_nt
            + (1.0 + 3.0 * x) / 4.0 * self.q_tauh
        )

    def delta(self, x):
        """Delta(x) = (1-x)(d-1)/d, the x-dependent part of the denominators."""
        return (1.0 - x) * (self.d - 1) / self.d


def _asn_product(g1: np.ndarray, g2: np.ndarray, tol: float) -> tuple[str, float]:
    """Classify the semi-norm product term: zero, isotropic, or general."""
    d = g1.shape[0]
    if np.abs(g1).max(initial=0.0) <= tol or np.abs(g2).max(initial=0.0) <= tol:
        return "zero", 0.0
    a1 = np.trace(g1) / d
    a2 = np.trace(g2) / d
    if (
        np.abs(g1 - a1 * np.eye(d)).max() <= tol
        and np.abs(g2 - a2 * np.eye(d)).max() <= tol
    ):
        return "isotropic", 2.0 * math.sqrt(a1 * a2)
    return "general", 0.0


@functools.lru_cache(maxsize=1)
def invariants(space: HomogeneousSpace) -> Invariants:
    """Build the adapted connection and derive every invariant from its
    torsion.  The traces and blocks of the torsion derivative and of the
    iterated torsion are contracted directly; neither tensor is formed.
    The result for the most recent space object is kept and returned again;
    every array in it is read-only."""
    conn = canonical_connection(space)
    d, n = space.dim_h, space.dim
    t = conn.tor
    trnt = trace_nabla_torsion(conn)
    trt2 = trace_tor2(conn)
    outer = _tor2_outer(conn)
    src = sub_ricci(conn)
    grams = seminorm_grams(conn)
    rig = rigidity(conn)

    t1 = (outer[:, d:, :d] - _nabla_tor_vh(conn)).sum(axis=0)
    t1 = t1 + _tor2_inner_vh(conn) + 4.0 * trt2[d:, :d]
    trv = trace_nabla_torsion_vertical(conn)
    w3 = np.einsum("puq,u->pq", t[:d, d:, :d], rig[d:])
    t2m = 2.0 * grams.tau_vh[:d, :d] + trv[:d, :d] + w3
    dist = DistortionPack(t1=t1, t2=0.5 * (t2m + t2m.T))

    msrc = np.zeros((n, n))
    msrc[:d, :d] = src[:d, :d]
    v = np.zeros((n, n))
    v[:d, :] = trnt[:d, :]
    w = np.zeros((n, n))
    w[d:, :d] = trt2[:d, d:].T
    tt = np.zeros((n, n))
    tt[:d, :d] = trt2[:d, :d] + trt2[:d, :d].T

    cmax = max(1.0, float(np.abs(space.c).max()))
    zero_cut = ZERO_TOL * cmax**3
    kappa = float(np.linalg.eigvalsh(grams.tau_hv[:d, :d])[-1])
    inv = Invariants(
        space=space,
        flags=classify(conn),
        src=src,
        grams=grams,
        rig=rig,
        dist=dist,
        kappa=max(kappa, 0.0),
        sigma=float(np.linalg.svd(t1, compute_uv=False)[0]) if t1.size else 0.0,
        sup_t2=float(np.linalg.eigvalsh(dist.t2)[-1]) if d else 0.0,
        t1_zero=bool(np.abs(t1).max(initial=0.0) <= zero_cut),
        trnt_h_zero=bool(np.abs(trnt[:d, :]).max(initial=0.0) <= zero_cut),
        product=_asn_product(
            grams.tau_vh[:d, :d], grams.tau_hv[:d, :d], 1e-12 * cmax**2
        ),
        q_src=msrc - 0.5 * (w + w.T),
        q_nt=0.5 * (v + v.T),
        q_tauh=grams.tau_h,
        q_tt2=tt,
        tt2=bool(np.any(tt)),
    )
    for a in (t1, dist.t2, inv.q_src, inv.q_nt, tt):
        a.flags.writeable = False
    return inv


def distortion(space: HomogeneousSpace) -> DistortionPack:
    """Mixed and pure distortion tensors of the space."""
    return invariants(space).dist


# ---------------------------------------------------------------------------
# The penalty constant m


@dataclass(frozen=True)
class MConstant:
    """Value of the torsion penalty m, its minimizer s (None when the
    infimum is only attained in the limit), and a degeneracy flag."""

    value: float
    s: float | None
    degenerate: bool


def _m_arrays(omega: np.ndarray, chi: np.ndarray, psi: np.ndarray):
    """m = inf_{s>0} (s*omega + chi/s + psi/s**2) with minimizer, elementwise
    over arrays of one shape."""
    omega, chi, psi = (np.asarray(a, dtype=float) for a in (omega, chi, psi))
    m, s = np.zeros(omega.shape), np.full(omega.shape, np.nan)

    pos, chi_pos, psi_pos = omega > 0.0, chi > 0.0, psi > 0.0
    chi0 = pos & (chi <= 0.0) & psi_pos
    psi0 = pos & (psi <= 0.0) & chi_pos
    both = pos & chi_pos & psi_pos
    # omega = 0, or chi = psi = 0: the infimum is 0 in a limit, m stays 0.

    if np.count_nonzero(chi0):
        sc = np.cbrt(2.0 * psi[chi0] / omega[chi0])
        s[chi0] = sc
        m[chi0] = np.cbrt(27.0 / 4.0 * omega[chi0] ** 2 * psi[chi0])
    if np.count_nonzero(psi0):
        sc = np.sqrt(chi[psi0] / omega[psi0])
        s[psi0] = sc
        m[psi0] = 2.0 * np.sqrt(omega[psi0] * chi[psi0])
    if np.count_nonzero(both):
        w, c, p = omega[both], chi[both], psi[both]
        # Unique positive root of w*s^3 - c*s - 2p = 0 (depressed cubic).
        pp = -c / w
        qq = -2.0 * p / w
        disc = (qq / 2.0) ** 2 + (pp / 3.0) ** 3
        r = np.sqrt(-pp / 3.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            arg = np.clip(3.0 * qq / (2.0 * pp) / np.maximum(r, 1e-300), -1.0, 1.0)
            trig = 2.0 * r * np.cos(np.arccos(arg) / 3.0)
            root = np.sqrt(np.maximum(disc, 0.0))
            card = np.cbrt(-qq / 2.0 + root) + np.cbrt(-qq / 2.0 - root)
        sc = np.where(disc < 0.0, trig, card)
        for _ in range(3):  # Newton cleanup on the cubic
            f = w * sc**3 - c * sc - 2.0 * p
            df = 3.0 * w * sc**2 - c
            sc = sc - np.where(df != 0.0, f / df, 0.0)
        s[both] = sc
        m[both] = sc * w + c / sc + p / sc**2
    return m, s


def m_constant(omega: float, chi: float, psi: float) -> MConstant:
    """Torsion penalty m(omega, chi, psi) = inf over s > 0 of
    s*omega + chi/s + psi/s**2, with the minimizing s when attained."""
    if omega < 0 or chi < 0 or psi < 0:
        raise ValueError("m constant requires nonnegative omega, chi, psi")
    m, s = _m_arrays(omega, chi, psi)
    if np.isnan(s):  # the infimum 0 is only reached in a limit
        return MConstant(value=0.0, s=None, degenerate=True)
    return MConstant(value=float(m), s=float(s), degenerate=False)


# ---------------------------------------------------------------------------
# Eliminating the vertical block


def _rho2_base_grid(kappa: float, per_decade: int) -> np.ndarray:
    count = _RHO2_DECADES * per_decade + 1
    half = _RHO2_DECADES / 2.0
    return kappa * np.power(10.0, np.linspace(-half, half, count))


def _pad(q: np.ndarray) -> np.ndarray:
    """The rounding pad _PSD_TOL * max(1, |q|max) of a form, or of each in a stack."""
    return _PSD_TOL * np.maximum(1.0, np.abs(q).max(axis=(-2, -1)))


def _vertical(q: np.ndarray, d: int, base: np.ndarray, pad) -> tuple[np.ndarray, ...]:
    """The elimination of the vertical block of q, or of each form in a stack,
    whose `_pad` is pad.

    Returns the rho2 candidates (the base grid below the vertical minimum
    mu_min, the near-boundary refinements mu_min(1 - 10^-k) and, for a
    decoupled block, mu_min itself; NaN in unused slots, and none when
    mu_min <= 0), mu_min, and the eigenvalues mu of Q_VV with the coupling
    w = Q_HV U in its eigenbasis U.  Only Q_VV, Q_HV and |q|max enter, so a
    form that differs from q only on H x H shares the elimination.
    """
    qvv, qhv = q[..., d:, d:], q[..., :d, d:]
    mu, u = np.linalg.eigh(qvv)
    w = qhv @ u
    # The candidates take mu_min from eigvalsh, which can differ from mu[0]
    # in the last bit on a degenerate block.  The best rho2 sits at the
    # boundary there, and the golden refinement follows such bits: with
    # mu[0], rotated twisted_spheres frames report 0.54545454541 in place
    # of 0.545454545455.
    mu_min = np.linalg.eigvalsh(qvv)[..., :1]
    top = np.where(mu_min > 0.0, mu_min, np.nan)
    coupling = np.abs(qhv).max(axis=(-2, -1), initial=0.0)[..., None]
    base = base[(base > 0.0) & (base < mu_min.max() * (1.0 - 1e-12))]  # columns some form keeps
    below = np.where(base < mu_min * (1.0 - 1e-12), base, np.nan)
    edge = np.where(coupling <= pad[..., None], top, np.nan)
    return np.concatenate([below, top * _NEAR, edge], axis=-1), mu_min, mu, w


def _weights(mu: np.ndarray, coupled: np.ndarray, rho2: np.ndarray) -> tuple:
    """The weights 1/(mu_j - rho2) indexed [..., j, candidate] (0 on
    decoupled directions j, which never penalize H, and off the mask), and
    the mask where the elimination is valid: every coupled gap is positive
    and rho2 is at most mu_min, so the valid candidates are those below a
    threshold."""
    # mu is ascending, so every coupled gap is positive below the lowest
    # coupled eigenvalue (this also rejects the NaN padding)
    top = np.nextafter(np.where(coupled, mu, np.inf).min(axis=-1, keepdims=True), -np.inf)
    low = mu[..., :1]
    ok = rho2 <= np.minimum(top, low + _PSD_TOL * np.maximum(1.0, np.abs(low)))
    keep = coupled[..., :, None] & ok[..., None, :]
    return 1.0 / np.where(keep, mu[..., :, None] - rho2[..., None, :], np.inf), ok


def _schur(q: np.ndarray, d: int, base: np.ndarray, pad) -> tuple[np.ndarray, ...]:
    """The elimination of one form q, or of each form in a stack, whose
    `_pad` is pad, at its sorted valid rho2 candidates: the candidates (NaN
    past the last valid one of a form), the coupling w = Q_HV U, the weights
    1/(mu_j - rho2) indexed [..., j, candidate] and the mask where the
    elimination is valid.

    Q_HH - w diag(weights[:, r]) w' is the Schur complement of the vertical
    block of q - diag(0 on H, rho2_r on V), and of every form that differs
    from q only on H x H.  Where the mask holds, its lambda_min is the largest
    rho1 keeping that form minus diag(rho1, rho2) positive semidefinite, the
    value the PSD bisection `feasible_rho1` of `tests/oracles.py` gives.
    """
    rho2, _, mu, w = _vertical(q, d, base, pad)
    rho2 = np.sort(rho2, axis=-1)[..., : rho2.shape[-1] - np.isnan(rho2).sum(axis=-1).min()]
    return rho2, w, *_weights(mu, (np.abs(w) > 0.0).any(axis=-2), rho2)


def _forms(inv: Invariants, names: list[str], q: np.ndarray) -> dict[bool, np.ndarray]:
    """q, and q + q_tt2 where asn reads it, keyed by `name == "asn" and inv.tt2`."""
    return {o: q + inv.q_tt2 if o else q for o in {n == "asn" and inv.tt2 for n in names}}


def _ray(f: np.ndarray, d: int, w: np.ndarray, pad) -> tuple[np.ndarray, np.ndarray]:
    """`_rayleigh`'s top = lambda_min(f_HH) + pad, pad = `_pad(f)`, and
    proj_j = (e'w_j)^2 at the bottom eigenvector e of f_HH, for a form or a stack."""
    lam, vec = np.linalg.eigh(f[..., :d, :d])
    proj = np.einsum("...a,...aj->...j", vec[..., 0], w) ** 2
    return lam[..., :1] + pad[..., None], proj


def _rayleigh(top: np.ndarray, proj: np.ndarray, weights: np.ndarray, ok: np.ndarray):
    """r = top - sum_j proj_j weights_j >= rho1 at each candidate, -inf where
    the elimination is invalid (see the module docstring).  Each rounded step
    is monotone, so r does not grow with rho2 over the valid candidates."""
    return np.where(ok, top - (proj[..., :, None] * weights).sum(axis=-2), -np.inf)


def _golden_max(fun, lo, hi, speculate: bool):
    """Golden-section maximization of a unimodal fun on [lo, hi], elementwise
    over arrays of brackets; returns the best (argument, value) among the
    points the steps take, so it never regresses.

    fun maps a stack of points, one per leading index, to their values.  The
    first call takes both interior points.  With speculate, each later call
    takes a step's point together with both points the next step can take,
    so two steps cost one call; the point the next step drops never enters
    the result.
    """
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = fun(np.array([c, d]))
    best_x, best_f = np.where(fd > fc, d, c), np.where(fd > fc, fd, fc)
    ahead = None  # [points, values] of this step if its test holds, and if not
    for k in range(_GOLDEN_ITERS):
        left = fc >= fd  # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        if ahead:
            x, fx = (np.where(left, *pair) for pair in ahead)
        else:
            x = np.where(left, b - ratio * (b - a), a + ratio * (b - a))
        c, d = np.where(left, x, d), np.where(left, c, x)
        if ahead:
            ahead = None
        elif speculate and k + 1 < _GOLDEN_ITERS:
            # the next step's point if its test holds and if not, by the
            # expressions that step computes itself
            more = [d - ratio * (d - a), c + ratio * (b - c)]
            fx, *rest = fun(np.array([x, *more]))
            ahead = [more, rest]
        else:
            fx = fun(x[None])[0]
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        better = fx > best_f
        best_x, best_f = np.where(better, x, best_x), np.where(better, fx, best_f)
    return best_x, best_f


def _asn_rho1(inv: Invariants, s: np.ndarray, lam, cap, floor) -> np.ndarray:
    """rho1 for the refined bound at Schur complements s, lam = lambda_min(s):
    the minimum over unit horizontal h of h'Sh - 2 sqrt(h'G1h * h'G2h).

    A zero or isotropic product term makes this an eigenvalue.  Otherwise
    2 sqrt(ab) <= t*a + b/t gives the weak-duality value
    max_t lambda_min(S - t G1 - G2/t), never above the minimum and concave
    in t; it is maximized by golden section in log t where cap, the value's
    bound from lam (G1 and G2 are PSD), reaches floor (NaN elsewhere).
    """
    kind, coeff = inv.product
    if kind != "general":
        return lam - coeff
    g1, g2 = inv.grams.tau_vh[: inv.d, : inv.d], inv.grams.tau_hv[: inv.d, : inv.d]
    live, rho1, s = cap >= floor, np.full(lam.shape, np.nan), s[cap >= floor]

    def bottom(log_t: np.ndarray) -> np.ndarray:
        t = np.exp(log_t)[..., None, None]
        return np.linalg.eigvalsh(s - t * g1 - g2 / t)[..., 0]

    if s.size:
        # one point per step: a call's cost is its matrices, not its overhead
        lo = np.full(s.shape[0], 0.5 * math.log(np.trace(g2) / np.trace(g1)) - _LOG_T_SPAN)
        rho1[live] = _golden_max(bottom, lo, lo + 2.0 * _LOG_T_SPAN, False)[1]
    return rho1


# ---------------------------------------------------------------------------
# Reported results


@dataclass
class BoundResult:
    theorem: str
    value: float
    x: float
    rho1: float
    rho2: float
    omega: float
    chi: float
    psi: float
    m: float
    aux: dict[str, float] = field(default_factory=dict)


@dataclass
class DiscrepancyNote:
    """A second value for the same theorem under an alternate normalization,
    declared by a `variant` line of the spec; reported next to ours, never
    merged."""

    theorem: str
    value: float
    variant: float
    convention: str


@dataclass
class BoundReport:
    example: str
    entries: list[BoundResult]
    best: BoundResult | None
    discrepancies: list[DiscrepancyNote] = field(default_factory=list)


def _t1zero_values(
    rho1: np.ndarray, delta: float, omega: np.ndarray, chi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two-case closed form available when the mixed distortion vanishes.

    Requires rho1^2 > 4*omega*chi.  Below the threshold 4*chi*delta the
    penalty enters through the denominator; at or above it the bound is the
    larger root of the underlying quadratic.  Returns the values (NaN where
    inapplicable or rho1 is not finite and positive) and the mask where they
    take the first case.
    """
    rho1 = np.asarray(rho1, dtype=float)
    omega = np.asarray(omega, dtype=float)
    chi = np.asarray(chi, dtype=float)
    base, chi4 = rho1**2 - 4.0 * omega * chi, 4.0 * chi
    threshold = chi4 * delta
    with np.errstate(invalid="ignore", divide="ignore"):
        case1 = rho1 / (delta * (2.0 + chi4 / base))
        case2 = (rho1 + np.sqrt(np.maximum(base - threshold, 0.0))) / (2.0 * (delta + omega))
    pos = (base > 0.0) & np.isfinite(rho1) & (rho1 > 0.0)
    in1 = pos & (base < threshold)
    return np.where(in1, case1, np.where(pos, case2, np.nan)), in1


def _theorems(inv: Invariants) -> list[str]:
    """The x-dependent theorems whose preconditions the space meets.  None
    when kappa <= 0 or when the HH blocks of q_src, q_nt, q_tauh and q_tt2
    are all zero: Q is affine in x, so every Schur complement is then
    -w diag(weights) w' with weights >= 0, whose diagonal and so lambda_min
    are at most 0, while main needs rho1 > m >= 0, t1zero rho1 > 0 and asn
    rho1 - coeff > 0.  sntf's rho1, lambda_min of q_src's HH block, is 0."""
    forms = (inv.q_src, inv.q_nt, inv.q_tauh, inv.q_tt2)
    if inv.kappa <= 0.0 or not any(f[: inv.d, : inv.d].any() for f in forms):
        return []
    names = ["main", "t1zero"] if inv.t1_zero else ["main"]
    return names + ["asn"] if inv.flags.almost_strictly_normal else names


def _visit(leaf: np.ndarray, floor: np.ndarray, count: int) -> tuple[np.ndarray, float]:
    """The ascending flat indices of the count pending candidates of largest
    leaf cap (all when fewer), ties to the lowest index, as a stable sort of
    the pending caps puts them first, and the largest pending cap left (-inf
    when none).  A candidate of row k is pending while its cap reaches floor[k]."""
    pending = np.flatnonzero(leaf >= floor[:, None])
    if pending.size <= count:
        return pending, -np.inf
    cap, n = leaf.reshape(-1)[pending], pending.size - count
    rest, cut = np.partition(cap, [n - 1, n])[n - 1 : n + 1]
    keep = cap >= cut
    if rest == cut:  # more than count tie at the cut: drop the last of them
        keep[np.flatnonzero(cap == cut)[count - np.count_nonzero(cap > cut) :]] = False
    return pending[keep], rest


def _evaluate(inv: Invariants, asks: dict[str, list[float]], grid: np.ndarray) -> dict:
    """Each theorem of asks at each x it asks, maximized over its rho2
    candidates with the first winning a tie: the value, rho1, rho2, omega,
    chi, psi, m and aux (`_AUX`) of the theorem at x (see `_result`), keyed
    by (theorem, x), all NaN when no candidate gives a finite value.

    The vertical block of Q(x) is eliminated once for each distinct x asked
    (asn reads the complements of Q(x) + q_tt2), each form's Rayleigh pass
    runs only at the x that a theorem reading it asks, and each `_formulas`
    group visits the pending candidates of largest leaf cap over the x its
    theorems ask, in rounds of growing size, taking each lambda_min(S) at
    most once and each closed form only where it visits.
    """
    names = list(asks)
    xs = list(dict.fromkeys(x for points in asks.values() for x in points))
    d, delta, q0 = inv.d, inv.delta(np.asarray(xs, dtype=float)), inv.q(xs)
    forms = _forms(inv, names, q0)
    pad = {own: _pad(f) for own, f in {False: q0, **forms}.items()}
    rho2, w, weights, ok = _schur(q0, d, grid, pad[False])
    width = rho2.shape[1]

    def closed(name: str, rho1, dl, o, c, b) -> list:
        """name's columns from rho1, Delta, omega, chi and rho2 at some candidates."""
        if name == "main":
            psi = b * inv.sigma**2
            m, s = _m_arrays(o, c, psi)
            return [np.where(rho1 > m, (rho1 - m) / (dl + o), np.nan), rho1, b, o, c, psi, m, s]
        if name == "t1zero":
            vals, in1 = _t1zero_values(rho1, dl, o, c)
            zero = np.zeros(rho1.shape)
            return [vals, rho1, b, o, c, zero, zero, np.where(in1, 1.0, 2.0)]
        nan = np.full(rho1.shape, np.nan)
        return [np.where(rho1 > 0.0, rho1 / (dl + o), nan), rho1, b, o, nan, nan, nan, nan]

    # lambda_min(S) per form, read where visited and NaN elsewhere, and its
    # Rayleigh bounds at the x a theorem reading it asks (views where all do)
    lam, r, out = {own: np.full(rho2.size, np.nan) for own in forms}, {}, {}
    for own, f in forms.items():
        some = {x for n in names if (n == "asn" and inv.tt2) == own for x in asks[n]}
        at = [x in some for x in xs] if len(some) < len(xs) else slice(None)
        r[own] = np.full(rho2.shape, -np.inf)
        r[own][at] = _rayleigh(*_ray(f[at], d, w[at], pad[own][at]), weights[at], ok[at])
    for (own, lift), group in _formulas(inv, names).items():
        f, rows = forms[own], np.arange(len(group))[:, None]
        leaf = _cap(inv, lift, r[own], rho2, delta[:, None], pad[False][:, None], True)
        # each theorem's best value per x: from 0 where it asks, +inf where not
        tops = np.array([[0.0 if x in asks[n] else np.inf for x in xs] for n in group])
        count, rest = _BATCH * len({x for n in group for x in asks[n]}), np.inf
        # each round's candidates and the group's columns there, after one
        # all-NaN column that a theorem with no value at an x reads
        takes, gots = [np.array([-1])], [np.full((len(group), 8, 1), np.nan)]
        # A candidate is pending while its leaf cap reaches its x's group
        # floor; each round visits the count pending ones of largest leaf
        # cap and retires them, until none is left.
        while rest >= tops.min():
            take, rest = _visit(leaf, tops.min(axis=0), count)
            (k, i), count = np.divmod(take, width), 4 * count
            leaf[k, i], b, wk = -np.inf, rho2[k, i], w[k]
            sc = f[k, :d, :d] - np.einsum("naj,nbj,nj->nab", wk, wk, weights[k, :, i])
            if np.count_nonzero(new := np.isnan(lam_ki := lam[own][take])):
                lam_ki[new] = np.linalg.eigvalsh(sc[new])[:, 0]
                lam[own][take] = lam_ki
            here, got = (delta[k], inv.kappa / b, np.maximum(b * inv.sup_t2, 0.0), b), []
            for g, name in enumerate(group):
                rho1 = lam_ki
                if name == "asn":
                    cap = (rho1 + pad[own][k]) / (here[0] + here[1])
                    rho1 = _asn_rho1(inv, sc, rho1, cap, tops[g, k])
                got += closed(name, rho1, *here)
            takes.append(take)
            gots.append(got := np.concatenate(got).reshape(len(group), 8, -1))
            np.fmax.at(tops, (rows, k), got[:, 0])
        # each theorem's first best candidate at each x: the lowest flat
        # index among its largest finite values, or else the all-NaN column
        take, got = np.concatenate(takes), np.concatenate(gots, axis=-1)
        value = np.full((len(group), len(xs), take.size), -np.inf)
        at = np.where(np.isfinite(got[:, 0, 1:]), got[:, 0, 1:], -np.inf)
        value[:, take[1:] // width, np.arange(1, take.size)] = at
        best = np.where(value == value.max(axis=-1, keepdims=True), take, rho2.size)
        cols = got[rows, :, best.argmin(axis=-1)].tolist()  # [theorem][x] -> column
        for name, col in zip(group, cols):
            out.update(((name, x), col[xs.index(x)]) for x in asks[name])
    return out


def _result(name: str, x: float, col: list[float]) -> BoundResult | None:
    """name's result at x from its `_evaluate` column, None where that is NaN."""
    if math.isnan(col[0]):
        return None
    aux = {} if math.isnan(col[7]) else {_AUX[name]: col[7]}
    return BoundResult(name, col[0], x, *col[1:7], aux)


def _sntf(inv: Invariants) -> BoundResult | None:
    flags = inv.flags
    applicable = flags.strictly_normal and inv.trnt_h_zero and flags.vm_integrable
    if not applicable or inv.kappa <= 0.0:
        return None
    d = inv.d
    rho1 = float(np.linalg.eigvalsh(inv.src[:d, :d])[0])
    rho2 = float(np.linalg.eigvalsh(inv.grams.tau_h[d:, d:])[0]) / 4.0
    if rho2 <= 0.0 or rho1 <= 0.0:
        return None
    omega = inv.kappa / rho2
    value = rho1 / ((d - 1) / d + 0.75 * omega)
    return BoundResult("sntf", value, 1.0 / 3.0, rho1, rho2, omega, 0.0, 0.0, 0.0, {})


# ---------------------------------------------------------------------------
# Public theorem evaluators


def _bound_at(space: HomogeneousSpace, x: float, name: str) -> BoundResult | None:
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x must lie in [0, 1), got {x!r}")
    inv = invariants(space)
    if name not in _theorems(inv):
        return None
    col = _evaluate(inv, {name: [x]}, _rho2_base_grid(inv.kappa, _RHO2_PER_DECADE))[name, x]
    return _result(name, x, col)


def bound_main(space: HomogeneousSpace, x: float) -> BoundResult | None:
    """General eigenvalue bound (rho1 - m)/(Delta + omega) at parameter x,
    maximized over the rho2 grid.  Returns None when no feasible pair gives
    rho1 above the penalty m."""
    return _bound_at(space, x, "main")


def bound_t1zero(space: HomogeneousSpace, x: float) -> BoundResult | None:
    """Sharpened two-case bound available when the mixed distortion tensor
    vanishes; inapplicable (None) otherwise or when rho1^2 <= 4*omega*chi
    for every feasible pair."""
    return _bound_at(space, x, "t1zero")


def bound_asn(space: HomogeneousSpace, x: float) -> BoundResult | None:
    """Refined bound rho1/(Delta + omega) for almost strictly normal spaces,
    maximized over the rho2 grid.

    rho1 bounds from below the minimum over unit horizontal vectors of the
    modified curvature form minus the product of the two mixed torsion
    semi-norms.  With a zero or isotropic product term it is that minimum;
    otherwise it is the weak-duality value max over t > 0 of
    lambda_min(S - t G1 - G2/t), which is always sound and can fall below
    the minimum.  None when the space is not almost strictly normal.
    """
    return _bound_at(space, x, "asn")


def bound_sntf(space: HomogeneousSpace) -> BoundResult | None:
    """Closed-form bound rho1/((d-1)/d + 3*omega/4) for strictly normal
    spaces with vanishing horizontal torsion-derivative trace and integrable
    vertical distribution; the x-optimization is solved exactly at x = 1/3."""
    return _sntf(invariants(space))


@dataclass(frozen=True)
class PseudohermitianBound:
    value: float
    x: float


def bound_pseudohermitian(n, rho, c) -> PseudohermitianBound:
    """Closed-form bound for the homogeneous pseudohermitian model with
    dimension parameter n, curvature constant rho, and torsion bound c.

    Exact (Fraction-preserving) in the two rational regimes: c = 0 gives
    n*rho/(n+1) at x = 1/3, and c >= 8/(2n+11) gives 2n*rho*(1-c)/(2n+3)
    at x = 0.  In between, x solves the stationarity quadratic.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0 <= c < 1:
        raise ValueError("c must lie in [0, 1)")
    exact = isinstance(rho, (int, Fraction)) and isinstance(c, (int, Fraction))
    if c == 0:
        x = Fraction(1, 3) if exact else 1.0 / 3.0
        return PseudohermitianBound(value=n * rho / (n + 1), x=x)
    if c >= Fraction(8, 2 * n + 11):
        zero = 0 if exact else 0.0
        return PseudohermitianBound(value=2 * n * rho * (1 - c) / (2 * n + 3), x=zero)
    cf = float(c)
    a = 9.0 * cf * (2 * n - 1)
    b = 24.0 + 6.0 * (2 * n - 1) * cf
    c0 = (2 * n + 11) * cf - 8.0
    x = (-b + math.sqrt(b * b - 4.0 * a * c0)) / (2.0 * a)
    num = 2 * n * float(rho) * (-3.0 * x * x + (2.0 - 3.0 * cf) * x + 1.0 - cf)
    den = -3.0 * (2 * n - 1) * x * x + 2.0 * (2 * n - 1) * x + 2 * n + 3
    return PseudohermitianBound(value=num / den, x=x)


# ---------------------------------------------------------------------------
# Sweep optimizer


def _t1zero_cap(
    r: np.ndarray, delta: np.ndarray, omega: np.ndarray, chi: np.ndarray, pad: np.ndarray
) -> np.ndarray:
    """Supremum of the t1zero closed form over rho1 <= r, one case at a time.

    Each case increases in rho1.  Case 1 holds only while
    rho1^2 - 4 omega chi < 4 chi delta, and there its value stays below
    rho1/(2 delta + 1), so past that threshold it is capped at the threshold.
    """
    vals, in1 = _t1zero_values(r, delta, omega, chi)
    top1 = (np.sqrt(4.0 * chi * (omega + delta)) + pad) / (2.0 * delta + 1.0)
    return np.where(np.isnan(vals), -np.inf, np.where(in1, vals, np.maximum(vals, top1)))


def _formulas(inv: Invariants, names: list[str]) -> dict[tuple, list[str]]:
    """The named theorems grouped by cap, keyed by the form whose r they read
    (True for Q + q_tt2) and the lift `_cap` takes from r ("t1zero": its own)."""
    m_floor = 2.0 * math.sqrt(inv.kappa * max(inv.sup_t2, 0.0))
    groups: dict[tuple, list[str]] = {}
    for n in names:
        lift = inv.product[1] if n == "asn" else m_floor
        lift = "t1zero" if n == "t1zero" and inv.sup_t2 > 0.0 else lift
        groups.setdefault((n == "asn" and inv.tt2, lift), []).append(n)
    return groups


def _cap(inv: Invariants, lift, r, b, delta, pad, leaf: bool = False) -> np.ndarray:
    """Cap over candidates rho2 <= b where r >= rho1 for a `_formulas` lift,
    -inf where none counts (see the module docstring); a leaf has b = rho2."""
    if lift == "t1zero":
        if leaf:
            return _t1zero_cap(r, delta, inv.kappa / b, b * inv.sup_t2, pad)
        top = np.fmin(r, np.sqrt(4.0 * b * inv.sup_t2 * (inv.kappa / b + delta)))
        top = np.maximum(r / (delta + inv.kappa / b), (top + pad) / (2.0 * delta + 1.0))
        return np.where(r > 2.0 * math.sqrt(inv.kappa * inv.sup_t2), top, -np.inf)
    return np.where(r > lift, (r - lift) / (delta + inv.kappa / b), -np.inf)


def _group_caps(inv: Invariants, names: list[str], r: dict, *at) -> dict[str, np.ndarray]:
    """`_cap` once per group of `_formulas` (r keyed by form), shared by its theorems."""
    groups = _formulas(inv, names)
    caps = {key: _cap(inv, key[1], r[key[0]], *at) for key in groups}
    return {n: caps[key] for key, group in groups.items() for n in group}


def _caps(inv: Invariants, names: list[str], xs: np.ndarray) -> dict[str, np.ndarray]:
    """The root caps: `_cap` at each x for r = lambda_min(Q_HH) + pad, b = mu_min."""
    q, d = inv.q(xs), inv.d
    mu_min = np.linalg.eigvalsh(q[:, d:, d:])[:, 0]
    b = np.where(mu_min > 0.0, mu_min, np.nan)  # no candidate where mu_min <= 0
    r = {}
    for own, f in _forms(inv, names, q).items():
        r[own] = np.where(b > 0, np.linalg.eigvalsh(f[:, :d, :d])[:, 0] + _pad(f), -np.inf)
    caps = _group_caps(inv, names, r, b, inv.delta(xs), _pad(q))
    return {n: c.copy() for n, c in caps.items()}  # optimize lowers each in place


def _cells(inv: Invariants, names: list[str], xs: np.ndarray, grid: np.ndarray):
    """Each theorem's largest leaf cap at the near-boundary and edge candidates
    of each x of xs, and `cell(rows, lo, width)`: its caps over the base
    candidates grid[lo : lo + width] at xs[rows] (see the module docstring)."""
    q, d = inv.q(xs), inv.d
    pad = _pad(q)
    near, mu_min, mu, w = _vertical(q, d, grid[:0], pad)
    coupled, mu_min, pad = (np.abs(w) > 0.0).any(axis=1), mu_min[:, 0], pad[:, None]
    delta = inv.delta(xs)[:, None]
    rays = {own: _ray(f, d, w, _pad(f)) for own, f in _forms(inv, names, q).items()}

    def caps(rows, rho2, b, leaf) -> dict[str, np.ndarray]:
        weights, ok = _weights(mu[rows], coupled[rows], rho2)
        r = {own: _rayleigh(t[rows], p[rows], weights, ok) for own, (t, p) in rays.items()}
        return _group_caps(inv, names, r, b, delta[rows], pad[rows], leaf)

    def cell(rows: np.ndarray, lo: np.ndarray, width: int) -> dict[str, np.ndarray]:
        a = np.append(grid, np.nan)[np.minimum(lo, grid.size)]
        a = np.where(a < mu_min[rows, None] * (1.0 - 1e-12), a, np.nan)
        if width == 1:
            return caps(rows, a, a, True)
        b = np.minimum(grid[np.minimum(lo + width, grid.size) - 1], mu_min[rows, None])
        return caps(rows, a, b, False)

    near = caps(np.arange(xs.size), near, near, True)
    return {n: c.max(axis=1) for n, c in near.items()}, cell


def _refine(inv: Invariants, caps: dict, floors: dict, xs: np.ndarray, grid: np.ndarray):
    """Lower in place each named theorem's caps above its floor, in one batch
    over those x, to the largest leaf cap in its cells above the floor: the
    exact cap where that exceeds the floor, and the floor elsewhere."""
    above = {n: caps[n] > f for n, f in floors.items()}
    idx = np.flatnonzero(np.any(list(above.values()), axis=0))
    if not idx.size:
        return
    top, cell = _cells(inv, list(floors), xs[idx], grid)
    starts = np.arange(0, grid.size, _CELLS[0])
    rows, lo = np.arange(idx.size), np.broadcast_to(starts, (idx.size, starts.size))
    for width in _CELLS[:-1]:  # lo[k, j] starts a cell of xs[idx[rows[k]]]
        got = cell(rows, lo, width)
        live = [(c > floors[n]) & above[n][idx][rows, None] for n, c in got.items()]
        row, col = np.nonzero(np.any(live, axis=0))
        rows, lo = rows[row], lo[row, col][:, None] + width // 10 * np.arange(10)
        del got, live
    for n, c in cell(rows, lo, 1).items():
        np.maximum.at(top[n], rows, c.max(axis=1))
    for n, f in floors.items():
        caps[n][idx] = np.where(above[n][idx], np.maximum(top[n], f), caps[n][idx])


def optimize(
    space: HomogeneousSpace,
    *,
    x_points: int = 2000,
    rho2_per_decade: int = _RHO2_PER_DECADE,
) -> BoundReport:
    """Evaluate every applicable theorem over the (x, rho2) grids, refine the
    winning x of all of them in one golden-section pass, and report
    per-theorem bests; a space where none applies gets no sweep.

    The theorems sweep the x grid in lockstep, each in decreasing order of its
    sound cap (root, cell or leaf; see the module docstring) until the cap
    cannot beat its best value, so pruning never changes the result.  Each
    theorem first visits its top root-cap x; once it has a best, every cap
    above that best is made exact in one batch.  Each sweep round and each
    golden call is one `_evaluate` call, whatever x each theorem asks, and no
    x is evaluated after the golden pass.
    Raises ValueError when a grid size is below 1.
    """
    if x_points < 1 or rho2_per_decade < 1:
        raise ValueError(
            f"grid sizes must be at least 1, got x_points={x_points!r}, "
            f"rho2_per_decade={rho2_per_decade!r}"
        )
    inv = invariants(space)
    report = BoundReport(example=space.name, entries=[], best=None)
    names = _theorems(inv)
    if not names:
        return report
    grid = _rho2_base_grid(inv.kappa, rho2_per_decade)
    xs = np.arange(x_points, dtype=float) / x_points
    caps = _caps(inv, names, xs)

    best: dict[str, tuple] = {}  # each theorem's best value, its x and `_evaluate` column

    def keep(name: str, x: float, col: list[float]) -> None:
        """Keep a positive value when it beats its theorem's best."""
        if col[0] > (best[name][0] if name in best else 0.0):
            best[name] = (col[0], x, col)

    # The theorems step down their own caps together, one `_evaluate` call per
    # round for the x each asks; each stops once its cap cannot beat its best.
    # Caps above floor[name] are exact; a top cap at or below it is visited
    # while the theorem has no best, and otherwise first refined against it.
    floor, live = dict.fromkeys(names, math.inf), list(names)
    while live:
        points, todo = {}, {}
        for name in list(live):
            i = int(np.argmax(caps[name]))
            ub = caps[name][i]
            if not 0.0 < ub < math.inf or (name in best and ub <= best[name][0] + 1e-15):
                live.remove(name)
            elif ub > floor[name] or name not in best:
                points[name], caps[name][i] = [float(xs[i])], -math.inf
            else:
                todo[name] = best[name][0] + 1e-15
        _refine(inv, caps, todo, xs, grid)
        floor.update(todo)
        if points:  # empty when no theorem has an x to visit this round
            for (name, x), col in _evaluate(inv, points, grid).items():
                keep(name, x, col)

    # One golden-section pass refines every winning abscissa together, two
    # steps per call, and each call is one `_evaluate` call.  It returns the
    # first best along the points its steps take; the result there replaces a
    # theorem's best when strictly better, as it would have in step order, and
    # a point no step took is never read.
    if won := list(best):
        center = np.array([best[name][1] for name in won])
        step, seen = 1.0 / x_points, {}

        def values(points: np.ndarray) -> np.ndarray:
            seen.update(_evaluate(inv, dict(zip(won, points.T.tolist())), grid))
            got = [[seen[n, x][0] for n, x in zip(won, row)] for row in points.tolist()]
            return np.fmax(got, -np.inf)  # -inf where a theorem has no value

        lo = np.maximum(center - step, 0.0)
        top = _golden_max(values, lo, np.minimum(center + step, 1.0 - 1e-12), True)[0]
        for name, x in zip(won, top.tolist()):
            keep(name, x, seen[name, x])

    entries = {name: _result(name, x, col) for name, (_, x, col) in best.items()}
    if (sntf := _sntf(inv)) is not None:
        entries["sntf"] = sntf

    report.entries = [entries[k] for k in sorted(entries)]
    if report.entries:
        report.best = max(report.entries, key=lambda r: r.value)
    _append_discrepancies(inv, report)
    return report


def _largest_psd_x(inv: Invariants) -> float | None:
    """Largest x in [0, 1] with Q(x) positive semidefinite, to the tolerance
    `_vertical` allows mu_min; None when no x qualifies.  Q is affine in x, so
    lambda_min(Q(x)) is concave and the admissible x form an interval: golden
    section finds a point of it when x = 0 is not one, and bisection from
    there finds its right end to the last bit."""

    def margin(x):
        lam = np.linalg.eigvalsh(inv.q(x))[..., 0]
        return lam + _PSD_TOL * np.maximum(1.0, np.abs(lam))

    if margin(1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    if margin(lo) < 0.0:
        lo, top = (float(v) for v in _golden_max(margin, 0.0, 1.0, True))
        if top < 0.0:
            return None
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if margin(mid) >= 0.0 else (lo, mid)
    return lo


def _append_discrepancies(inv: Invariants, report: BoundReport) -> None:
    """Evaluate each convention variant the spec declares on its theorem's
    reported entry, and report both values."""
    for theorem, formula, convention in inv.space.variants:
        e = next((e for e in report.entries if e.theorem == theorem), None)
        if e is None:
            continue
        values = (inv.d, e.rho1, e.rho2, e.omega)
        try:
            variant = eval_coefficient(formula, dict(zip(VARIANT_NAMES, values)))
        except ArithmeticError as exc:
            raise ValueError(f"variant {theorem} = {formula}: {exc}") from None
        report.discrepancies.append(DiscrepancyNote(theorem, e.value, variant, convention))


# ---------------------------------------------------------------------------
# Serialization


def _fmt(v: float) -> str:
    return "" if math.isnan(v) else format(v, ".12g")


def report_text(report: BoundReport) -> str:
    lines = [f"example = {report.example}"]
    if not report.entries:
        lines.append("bounds = none (no positive curvature constants)")
        return "\n".join(lines) + "\n"
    for e in report.entries:
        lines.append("")
        lines.append(f"theorem = {e.theorem}")
        lines.append(f"bound = {_fmt(e.value)}")
        lines += [f"{k} = {_fmt(getattr(e, k))}" for k in CSV_COLUMNS[3:]]
        for k in sorted(e.aux):
            lines.append(f"{k} = {_fmt(e.aux[k])}")
    for note in report.discrepancies:
        lines.append("")
        lines.append(f"theorem = {note.theorem} [{note.convention}]")
        lines.append(f"bound = {_fmt(note.variant)}")
        lines.append(f"reference = {_fmt(note.value)}")
    if report.best is not None:
        lines.append("")
        lines.append(f"best = {_fmt(report.best.value)} ({report.best.theorem})")
    return "\n".join(lines) + "\n"


def _csv_row(example: str, theorem: str, e: BoundResult, value: float) -> str:
    cells = [_fmt(value)] + [_fmt(getattr(e, k)) for k in CSV_COLUMNS[3:]]
    return ",".join([example, theorem, *cells])


def report_csv(report: BoundReport, header: bool = True) -> str:
    rows = [",".join(CSV_COLUMNS)] if header else []
    for e in report.entries:
        rows.append(_csv_row(report.example, e.theorem, e, e.value))
    for note in report.discrepancies:
        src = next(e for e in report.entries if e.theorem == note.theorem)
        rows.append(
            _csv_row(report.example, f"{note.theorem}-variant", src, note.variant)
        )
    return "\n".join(rows) + "\n"
