"""Lower bounds for the first eigenvalue of the horizontal Laplacian.

The bound machinery works with a one-parameter family of quadratic curvature
forms Q(x) on the frame, two distortion tensors, and a handful of scalar
constants derived from them.  Every theorem reduces to finite linear algebra
plus a scalar optimization; the optimizer sweeps deterministic grids and then
refines the best abscissas by golden section, so identical inputs always give
identical output.  At each x, main, t1zero and asn read one Schur curve of
Q(x) (asn a second one, on Q(x) + q_tt2, only when q_tt2 is nonzero).  The
theorems sweep x in lockstep, so those that reach the same x share its curve;
a single golden-section pass refines the winning abscissas of all of them,
and no x is evaluated again after it.

The x sweep evaluates only the x whose cap can still beat the best value
found.  The cap bounds rho1 by the Rayleigh quotient of the Schur complement
at the bottom eigenvector of Q_HH, over the same rho2 candidates the
evaluators use.  It is sound for three reasons: that quotient is at least the
complement's bottom eigenvalue (Courant-Fischer); the torsion penalty obeys
m >= 2 sqrt(omega chi) = 2 sqrt(kappa sup T2+); and the asn semi-norm Grams
are positive semidefinite, so the asn rho1 never exceeds that eigenvalue.
"""

from __future__ import annotations

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
    _classify,
    _sub_ricci,
    rigidity,
    seminorm_grams,
)

__all__ = [
    "BGForm",
    "DistortionPack",
    "Invariants",
    "MConstant",
    "BoundResult",
    "DiscrepancyNote",
    "BoundReport",
    "PseudohermitianBound",
    "bg_form",
    "distortion",
    "invariants",
    "feasible_rho1",
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
_BISECT_TOL = 1e-10
# Half-width of the log t bracket of the asn duality search, centred on
# sqrt(tr G2 / tr G1).  Every t gives a sound value; the bracket only limits
# how close the search gets to a supremum that lies far out, which happens
# when a Gram is singular on the minimizing direction.
_LOG_T_SPAN = 23.0
# Entries of one (x, rho2 candidate, vertical direction) array in the cap
# pass of `optimize`: 2^14 float64 values (128 KB), so that its transient
# arrays together stay near 1 MB.  Larger chunks ran no faster and raised
# the peak RSS of a 2000-point sweep by up to 7 MB.
_CHUNK_ENTRIES = 1 << 14


# ---------------------------------------------------------------------------
# Quadratic form and distortion tensors


@dataclass(frozen=True)
class BGForm:
    """Curvature quadratic form at parameter x: A @ q @ A over the frame."""

    x: float
    dim_h: int
    q: np.ndarray


@dataclass(frozen=True)
class DistortionPack:
    """Distortion tensors: t1 is the m-by-d mixed form (vertical argument
    first), t2 the symmetric d-by-d pure form on horizontal vectors."""

    t1: np.ndarray
    t2: np.ndarray


@dataclass(frozen=True)
class Invariants:
    """Curvature and torsion data of a space, computed once by `invariants`.

    The bound evaluators, `bg_form`, `distortion` and the CLI read every
    quantity from here.  The curvature family is affine in x:
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
    tt2: bool  # q_tt2 is nonzero, so asn needs a curve of its own

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


def invariants(space: HomogeneousSpace) -> Invariants:
    """Build the adapted connection and derive every invariant from its
    torsion.  The traces and blocks of the torsion derivative and of the
    iterated torsion are contracted directly; neither tensor is formed."""
    conn = canonical_connection(space)
    d, n = space.dim_h, space.dim
    t = conn.tor
    trnt = trace_nabla_torsion(conn)
    trt2 = trace_tor2(conn)
    outer = _tor2_outer(conn)
    src = _sub_ricci(conn, outer, trt2)
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
    return Invariants(
        space=space,
        flags=_classify(conn, rig, ZERO_TOL),
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


def _check_x(x: float) -> None:
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x must lie in [0, 1), got {x!r}")


def bg_form(space: HomogeneousSpace, x: float) -> BGForm:
    """Quadratic form of the curvature family at parameter x in [0, 1).

    The form combines the sub-Ricci term weighted (1-x), the symmetrized
    torsion-derivative trace weighted (1+x), the horizontal-torsion Gram
    weighted (1+3x)/4, and the vertical/horizontal coupling weighted -(1-x).
    """
    _check_x(x)
    return BGForm(x=float(x), dim_h=space.dim_h, q=invariants(space).q(x))


def distortion(space: HomogeneousSpace) -> DistortionPack:
    """Mixed and pure distortion tensors of the space."""
    return invariants(space).dist


# ---------------------------------------------------------------------------
# Feasible curvature constants and the penalty constant m


def feasible_rho1(form: BGForm, rho2: float) -> float | None:
    """Largest rho1 with q - diag(rho1 on H, rho2 on V) positive semidefinite.

    Bisection against the minimum eigenvalue to absolute tolerance 1e-10.
    Returns None when even rho1 = 0 is infeasible.
    """
    d = form.dim_h
    n = form.q.shape[0]
    scale = max(1.0, float(np.abs(form.q).max()))

    def feasible(rho1: float) -> bool:
        shift = np.zeros(n)
        shift[:d] = rho1
        shift[d:] = rho2
        w = np.linalg.eigvalsh(form.q - np.diag(shift))
        return bool(w[0] >= -_PSD_TOL * scale)

    if not feasible(0.0):
        return None
    lo = 0.0
    hi = float(np.linalg.eigvalsh(form.q[:d, :d])[0]) + 1.0
    if feasible(hi):  # cannot happen for finite forms, but stay defensive
        return hi
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class MConstant:
    """Value of the torsion penalty m, its minimizer s (None when the
    infimum is only attained in the limit), and a degeneracy flag."""

    value: float
    s: float | None
    degenerate: bool


def _m_arrays(omega: np.ndarray, chi: np.ndarray, psi: np.ndarray):
    """Vectorized m = inf_{s>0} (s*omega + chi/s + psi/s**2) with minimizer."""
    omega = np.asarray(omega, dtype=float)
    chi = np.asarray(chi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    m = np.zeros(np.broadcast(omega, chi, psi).shape)
    s = np.full_like(m, np.nan)
    omega, chi, psi = np.broadcast_arrays(omega, chi, psi)

    pos = omega > 0.0
    chi0 = pos & (chi <= 0.0) & (psi > 0.0)
    psi0 = pos & (psi <= 0.0) & (chi > 0.0)
    both = pos & (chi > 0.0) & (psi > 0.0)
    # omega = 0, or chi = psi = 0: the infimum is 0 in a limit, m stays 0.

    if chi0.any():
        sc = np.cbrt(2.0 * psi[chi0] / omega[chi0])
        s[chi0] = sc
        m[chi0] = np.cbrt(27.0 / 4.0 * omega[chi0] ** 2 * psi[chi0])
    if psi0.any():
        sc = np.sqrt(chi[psi0] / omega[psi0])
        s[psi0] = sc
        m[psi0] = 2.0 * np.sqrt(omega[psi0] * chi[psi0])
    if both.any():
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
    if omega == 0.0 or (chi == 0.0 and psi == 0.0):
        # Decreasing (or increasing from 0) in s: infimum 0, never attained.
        return MConstant(value=0.0, s=None, degenerate=True)
    m, s = _m_arrays(np.array(omega), np.array(chi), np.array(psi))
    return MConstant(value=float(m), s=float(s), degenerate=False)


# ---------------------------------------------------------------------------
# Eliminating the vertical block


def _rho2_base_grid(kappa: float, per_decade: int, decades: int = 6) -> np.ndarray:
    count = decades * per_decade + 1
    half = decades / 2.0
    return kappa * np.power(10.0, np.linspace(-half, half, count))


def _vertical(
    q: np.ndarray, d: int, base: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertical block of q, or of each form in a stack, as the one place
    that serves both the elimination and the rho2 candidates.

    Returns its ascending eigenvalues mu, the coupling w = Q_HV U in its
    eigenbasis, and the admissible rho2 candidates: the base grid below the
    vertical minimum mu_min, the near-boundary refinements mu_min(1 - 10^-k)
    and, for a decoupled block, mu_min itself, with NaN in unused slots;
    mu_min <= 0 leaves none.
    """
    mu, u = np.linalg.eigh(q[..., d:, d:])
    w = q[..., :d, d:] @ u
    # The candidates take mu_min from eigvalsh, which can differ from mu[0]
    # in the last bit on a degenerate block.  The best rho2 sits at the
    # boundary there, and the golden refinement follows such bits: with
    # mu[0], rotated twisted_spheres frames report 0.54545454541 in place
    # of 0.545454545455.
    mu_min = np.linalg.eigvalsh(q[..., d:, d:])[..., :1]
    scale = np.maximum(1.0, np.abs(q).max(axis=(-2, -1)))[..., None]
    coupling = np.abs(q[..., :d, d:]).max(axis=(-2, -1), initial=0.0)[..., None]
    base = base[base < mu_min.max() * (1.0 - 1e-12)]  # columns some form keeps
    below = np.where(base < mu_min * (1.0 - 1e-12), base, np.nan)
    near = mu_min * (1.0 - np.power(10.0, -np.arange(2.0, 11.0)))
    edge = np.where(coupling <= _PSD_TOL * scale, mu_min, np.nan)
    rho2 = np.concatenate([below, near, edge], axis=-1)
    return mu, w, np.where((mu_min > 0.0) & (rho2 > 0.0), rho2, np.nan)


def _weights(
    mu: np.ndarray, w: np.ndarray, rho2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weights 1/(mu_j - rho2) of the coupled vertical directions j at each
    candidate, indexed [..., j, candidate] (0 on decoupled directions, which
    never penalize H), and the mask where the elimination is valid: every
    coupled gap is positive and rho2 is at most mu_min.  Works on one form
    or on a stack."""
    coupled = (np.abs(w) > 0.0).any(axis=-2)
    # mu is ascending, so every coupled gap is positive below the lowest
    # coupled eigenvalue (this also rejects the NaN padding)
    bad = ~(rho2 < np.where(coupled, mu, np.inf).min(axis=-1, keepdims=True))
    keep = coupled[..., :, None] & ~bad[..., None, :]
    with np.errstate(divide="ignore"):
        inv = np.where(keep, 1.0 / (mu[..., :, None] - rho2[..., None, :]), 0.0)
    mu_min = mu[..., :1]
    ok = ~bad & (rho2 <= mu_min + _PSD_TOL * np.maximum(1.0, np.abs(mu_min)))
    return inv, ok


def _schur(
    q: np.ndarray, d: int, base: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Schur curve of one form q: the sorted rho2 candidates, the Schur
    complements S of the vertical block of q - diag(0 on H, rho2 on V), one
    per candidate, and lambda_min(S) where the elimination is valid (NaN
    elsewhere).

    There lambda_min(S) is the largest rho1 keeping q - diag(rho1, rho2)
    positive semidefinite: the PSD bisection `feasible_rho1` gives the same
    value.
    """
    mu, w, rho2 = _vertical(q, d, base)
    rho2 = np.sort(rho2[~np.isnan(rho2)])
    inv, ok = _weights(mu, w, rho2)
    stack = q[None, :d, :d] - np.einsum("aj,bj,jr->rab", w, w, inv)
    if rho2.size == 0:  # no candidate, nothing to diagonalize
        return rho2, stack, rho2
    return rho2, stack, np.where(ok, np.linalg.eigvalsh(stack)[:, 0], np.nan)


def _rayleigh(
    q: np.ndarray, d: int, base: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of forms: an upper bound r on rho1 at every rho2 candidate,
    and the candidates.

    r is the Rayleigh quotient of the Schur complement at the bottom
    eigenvector e of Q_HH, lambda_min(Q_HH) - sum_j (e.w_j)^2 / (mu_j - rho2),
    padded for rounding.  By Courant-Fischer it is at least the bottom
    eigenvalue of the complement.  r is -inf where the elimination is invalid.
    """
    lam, vec = np.linalg.eigh(q[:, :d, :d])
    mu, w, rho2 = _vertical(q, d, base)
    inv, ok = _weights(mu, w, rho2)
    proj = np.einsum("xa,xaj->xj", vec[:, :, 0], w) ** 2
    top = lam[:, :1] + _PSD_TOL * np.maximum(1.0, np.abs(q).max(axis=(1, 2)))[:, None]
    return np.where(ok, top - (proj[:, :, None] * inv).sum(axis=1), -np.inf), rho2


def _golden_max(fun, lo, hi, iters: int = 60):
    """Golden-section maximization of a unimodal fun on [lo, hi], elementwise
    over arrays of brackets; returns the best (argument, value) among every
    evaluation, so it never regresses."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc = fun(c)
    fd = fun(d)
    best_x, best_f = np.where(fd > fc, d, c), np.where(fd > fc, fd, fc)
    for _ in range(iters):
        left = fc >= fd  # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - ratio * (b - a), a + ratio * (b - a))
        fx = fun(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        better = fx > best_f
        best_x, best_f = np.where(better, x, best_x), np.where(better, fx, best_f)
    return best_x, best_f


def _asn_rho1_curve(
    inv: Invariants, qt: np.ndarray, stack: np.ndarray, lam: np.ndarray, den: np.ndarray
) -> np.ndarray:
    """rho1(rho2) for the refined bound: the minimum over unit horizontal h
    of h'Sh - 2 sqrt(h'G1h * h'G2h), with S the Schur complement at rho2 and
    lam = lambda_min(S) from `_schur` (NaN where the elimination fails).

    A zero or isotropic product term makes this an eigenvalue.  Otherwise
    2 sqrt(ab) <= t*a + b/t gives the weak-duality value
    max_t lambda_min(S - t G1 - G2/t), never above the minimum and concave
    in t; it is maximized by golden section in log t.  That search runs only
    where rho1/den can still reach the best of the curve (NaN elsewhere).
    """
    d = inv.d
    kind, coeff = inv.product
    if kind != "general":
        return lam - coeff
    g1, g2 = inv.grams.tau_vh[:d, :d], inv.grams.tau_hv[:d, :d]
    center = 0.5 * math.log(np.trace(g2) / np.trace(g1))

    def search(s: np.ndarray) -> np.ndarray:
        def bottom(log_t: np.ndarray) -> np.ndarray:
            t = np.exp(log_t)[:, None, None]
            return np.linalg.eigvalsh(s - t * g1 - g2 / t)[:, 0]

        lo = np.full(s.shape[0], center - _LOG_T_SPAN)
        return _golden_max(bottom, lo, lo + 2.0 * _LOG_T_SPAN)[1]

    # G1 and G2 are PSD, so lambda_min(S) caps rho1 up to rounding; den > 0.
    slack = _PSD_TOL * max(1.0, float(np.abs(qt).max()))
    cap = np.where(np.isnan(lam), -np.inf, (lam + slack) / den)
    top = int(np.argmax(cap))
    live = cap >= search(stack[top : top + 1])[0] / den[top]
    rho1 = np.full(lam.shape, np.nan)
    rho1[live] = search(stack[live])
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
    larger root of the underlying quadratic.  Returns the values and the
    below-threshold mask (NaN where inapplicable).
    """
    rho1 = np.asarray(rho1, dtype=float)
    omega = np.asarray(omega, dtype=float)
    chi = np.asarray(chi, dtype=float)
    base = rho1**2 - 4.0 * omega * chi
    with np.errstate(invalid="ignore", divide="ignore"):
        case1 = rho1 / (delta * (2.0 + 4.0 * chi / base))
        case2 = (rho1 + np.sqrt(np.maximum(base - 4.0 * delta * chi, 0.0))) / (
            2.0 * (delta + omega)
        )
    in1 = (base > 0.0) & (base < 4.0 * chi * delta)
    in2 = (base > 0.0) & (base >= 4.0 * chi * delta)
    vals = np.where(in1, case1, np.where(in2, case2, np.nan))
    vals = np.where(np.isfinite(rho1) & (rho1 > 0.0), vals, np.nan)
    return vals, in1


def _theorems(inv: Invariants) -> list[str]:
    """The x-dependent theorems whose preconditions the space meets."""
    if inv.kappa <= 0.0:
        return []
    names = ["main", "t1zero"] if inv.t1_zero else ["main"]
    return names + ["asn"] if inv.flags.almost_strictly_normal else names


def _evaluate(
    inv: Invariants, names: list[str], x: float, grid: np.ndarray
) -> dict[str, BoundResult | None]:
    """Each named theorem at x, maximized over its rho2 candidates (None when
    no candidate gives a finite value).

    main, t1zero and asn all read one Schur curve of Q(x); asn builds its own
    on Q(x) + q_tt2 only when q_tt2 is nonzero.
    """
    delta = inv.delta(x)
    curves: dict[bool, tuple] = {}
    out: dict[str, BoundResult | None] = {}
    for name in names:
        own = name == "asn" and inv.tt2
        if own not in curves:
            q = inv.q(x) + inv.q_tt2 if own else inv.q(x)
            curves[own] = (q, *_schur(q, inv.d, grid))
        q, rho2, stack, rho1 = curves[own]
        omega = inv.kappa / rho2
        chi = np.maximum(rho2 * inv.sup_t2, 0.0)
        if name == "main":
            psi = rho2 * inv.sigma**2
            m, s = _m_arrays(omega, chi, psi)
            vals = np.where(rho1 > m, (rho1 - m) / (delta + omega), np.nan)
            aux = {"s": s}
        elif name == "t1zero":
            vals, in1 = _t1zero_values(rho1, delta, omega, chi)
            psi = m = 0.0
            aux = {"case": np.where(in1, 1.0, 2.0)}
        else:
            if rho2.size:
                rho1 = _asn_rho1_curve(inv, q, stack, rho1, delta + omega)
            vals = np.where(rho1 > 0.0, rho1 / (delta + omega), np.nan)
            chi = psi = m = math.nan
            aux = {}
        finite = np.isfinite(vals)
        if not finite.any():
            out[name] = None
            continue
        i = int(np.argmax(np.where(finite, vals, -np.inf)))
        cols = (rho1, rho2, omega, chi, psi, m)
        row = [float(np.broadcast_to(a, rho2.shape)[i]) for a in cols]
        aux = {k: float(a[i]) for k, a in aux.items() if not math.isnan(a[i])}
        out[name] = BoundResult(name, float(vals[i]), x, *row, aux)
    return out


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


def _bound_at(
    space: HomogeneousSpace, x: float, name: str, rho2_per_decade: int
) -> BoundResult | None:
    _check_x(x)
    inv = invariants(space)
    if name not in _theorems(inv):
        return None
    return _evaluate(inv, [name], x, _rho2_base_grid(inv.kappa, rho2_per_decade))[name]


def bound_main(
    space: HomogeneousSpace,
    x: float,
    *,
    rho2_per_decade: int = 200,
) -> BoundResult | None:
    """General eigenvalue bound (rho1 - m)/(Delta + omega) at parameter x,
    maximized over the rho2 grid.  Returns None when no feasible pair gives
    rho1 above the penalty m."""
    return _bound_at(space, x, "main", rho2_per_decade)


def bound_t1zero(
    space: HomogeneousSpace,
    x: float,
    *,
    rho2_per_decade: int = 200,
) -> BoundResult | None:
    """Sharpened two-case bound available when the mixed distortion tensor
    vanishes; inapplicable (None) otherwise or when rho1^2 <= 4*omega*chi
    for every feasible pair."""
    return _bound_at(space, x, "t1zero", rho2_per_decade)


def bound_asn(
    space: HomogeneousSpace,
    x: float,
    *,
    rho2_per_decade: int = 200,
) -> BoundResult | None:
    """Refined bound rho1/(Delta + omega) for almost strictly normal spaces,
    maximized over the rho2 grid.

    rho1 bounds from below the minimum over unit horizontal vectors of the
    modified curvature form minus the product of the two mixed torsion
    semi-norms.  With a zero or isotropic product term it is that minimum;
    otherwise it is the weak-duality value max over t > 0 of
    lambda_min(S - t G1 - G2/t), which is always sound and can fall below
    the minimum.  None when the space is not almost strictly normal.
    """
    return _bound_at(space, x, "asn", rho2_per_decade)


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


def _ratio_cap(
    r: np.ndarray, rho2: np.ndarray, delta: np.ndarray, kappa: float, lift: float
) -> np.ndarray:
    """Per-x maximum over the candidates of (r - lift)/(Delta + kappa/rho2),
    -inf where r <= lift at every candidate."""
    return np.where(r > lift, (r - lift) / (delta + kappa / rho2), -np.inf).max(axis=1)


def _caps(
    inv: Invariants, names: list[str], xs: np.ndarray, grid: np.ndarray
) -> dict[str, np.ndarray]:
    """Per-x upper bound on each theorem's value over its rho2 candidates.

    Built from the Rayleigh-quotient bound r >= rho1 of `_rayleigh`:
    main is capped by (r - 2 sqrt(kappa sup T2+))/(Delta + omega), since
    m >= 2 sqrt(omega chi) = 2 sqrt(kappa sup T2+); t1zero by `_t1zero_cap`,
    which is main's cap when sup T2 <= 0 (then chi = 0 and the closed form
    is rho1/(Delta + omega)); asn by (r - coeff)/(Delta + omega) with r taken
    on Q + q_tt2, since the Grams G1 and G2 are PSD and so the weak-duality
    rho1 is at most the bottom eigenvalue of the complement.  The x grid is
    processed in chunks of `_CHUNK_ENTRIES` (x, candidate) entries.
    """
    caps = {name: np.full(xs.size, -np.inf) for name in names}
    m_floor = 2.0 * math.sqrt(inv.kappa * max(inv.sup_t2, 0.0))
    coeff = inv.product[1]
    step = max(1, _CHUNK_ENTRIES // ((grid.size + 10) * inv.space.dim_v))
    for lo in range(0, xs.size, step):
        x = xs[lo : lo + step]
        rows = slice(lo, lo + x.size)
        q = inv.q(x)
        delta = inv.delta(x)[:, None]
        r, rho2 = _rayleigh(q, inv.d, grid)
        main = caps["main"][rows] = _ratio_cap(r, rho2, delta, inv.kappa, m_floor)
        if "t1zero" in caps:
            if inv.sup_t2 <= 0.0:
                caps["t1zero"][rows] = main
            else:
                pad = _PSD_TOL * np.maximum(1.0, np.abs(q).max(axis=(1, 2)))[:, None]
                chi = rho2 * inv.sup_t2
                cap = _t1zero_cap(r, delta, inv.kappa / rho2, chi, pad)
                caps["t1zero"][rows] = cap.max(axis=1)
        if "asn" in caps:
            if inv.tt2:
                r, rho2 = _rayleigh(q + inv.q_tt2, inv.d, grid)
            if inv.tt2 or coeff != m_floor:
                caps["asn"][rows] = _ratio_cap(r, rho2, delta, inv.kappa, coeff)
            else:
                caps["asn"][rows] = main
    return caps


def optimize(
    space: HomogeneousSpace,
    *,
    x_points: int = 2000,
    rho2_per_decade: int = 200,
) -> BoundReport:
    """Evaluate every applicable theorem over the (x, rho2) grids, refine the
    winning x of all of them in one golden-section pass, and report
    per-theorem bests.

    The theorems sweep the x grid in lockstep, each in decreasing order of its
    sound cap (see the module docstring) until the cap cannot beat its best
    value, so pruning never changes the result.  Each x is evaluated once for
    all the theorems that reach it, and none again after the golden pass.
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
    caps = _caps(inv, names, xs, grid)

    best: dict[str, BoundResult] = {}

    def run(points: dict[str, float]) -> dict[str, BoundResult | None]:
        """Evaluate each distinct x once, for every theorem that asks for it,
        and keep a positive result when it beats its theorem's best."""
        out: dict[str, BoundResult | None] = {}
        for x in dict.fromkeys(points.values()):
            out.update(_evaluate(inv, [n for n in points if points[n] == x], x, grid))
        for name, res in out.items():
            if res is not None and res.value > (best[name].value if name in best else 0.0):
                best[name] = res
        return out

    # The theorems step through their own cap orders together, sharing the curve
    # of any x they meet at; each stops once its cap cannot beat its best.
    live = {name: iter(np.argsort(caps[name])[::-1]) for name in names}
    while live:
        points = {}
        for name, order in list(live.items()):
            i = next(order, None)
            ub = -math.inf if i is None else caps[name][i]
            if not 0.0 < ub < math.inf or (name in best and ub <= best[name].value + 1e-15):
                del live[name]
            else:
                points[name] = float(xs[i])
        run(points)

    # One golden-section pass refines every winning abscissa together.  `run`
    # keeps the strictly better points in the order `_golden_max` does.
    won = list(best)
    center = np.array([best[name].x for name in won])
    step = 1.0 / x_points

    def values(points: np.ndarray) -> np.ndarray:
        res = run(dict(zip(won, points.tolist())))
        return np.array([-math.inf if res[n] is None else res[n].value for n in won])

    lo = np.maximum(center - step, 0.0)
    _golden_max(values, lo, np.minimum(center + step, 1.0 - 1e-12))

    if (sntf := _sntf(inv)) is not None:
        best["sntf"] = sntf

    report.entries = [best[k] for k in sorted(best)]
    if report.entries:
        report.best = max(report.entries, key=lambda r: r.value)
    _append_discrepancies(inv, report)
    return report


def _largest_psd_x(inv: Invariants) -> float | None:
    """Largest x in [0, 1] with Q(x) positive semidefinite, to the tolerance
    `_weights` allows mu_min; None when no x qualifies.  Q is affine in x, so
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
        lo, top = (float(v) for v in _golden_max(margin, 0.0, 1.0))
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


def _fmt(v: float | None) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return ""
    return format(v, ".12g")


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
