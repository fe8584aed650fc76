"""The three benchmark workloads: seeded inputs, the timed pipeline per item,
and the checks on every output.

A workload is a list of rounds. Every round has the same composition (the
same spaces and parameter slots), and only seeded jitter, Casimir cutoffs and
frame rotations differ between rounds, so the cost of a round and the mean
bound of round 0 do not depend on the seed beyond that jitter. A workload's
``round_seconds`` is the wall time of one round at the seed commit on the
machine in BASELINE.json; it only sets how many rounds a run covers.

Each pipeline calls the public API in the order the CLI commands use and
wraps every call in a tracer span named ``<layer>.<what>``; the spans cost
nothing in an untraced run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import sublap
from tracing import NullTracer

CHECK_TOL = 1e-9

# Exact values the bounds and spectra must reproduce (README, acceptance tests).
GATES = {
    ("so4_twisted", (("b", 0.0),)): {"best": 20.0 / 31.0, "lambda1": 2.0},
    ("so4_alt", ()): {"best": 6.0 / 11.0, "lambda1": 1.0},
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Item:
    key: str  # short label, unique within a run
    builtin: str | None = None
    params: tuple[tuple[str, float], ...] = ()
    cutoff: float | None = None
    spec_text: str | None = None
    ref: tuple | None = None  # (base index, t) of the unrotated reference frame


@dataclass
class Outcome:
    """What one item produced: its best bound (None if it reports none)."""

    bound: float | None
    outputs: dict = field(default_factory=dict)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _checked(tr, space):
    with tr.span("algebra.validate"):
        problems = sublap.validate(space)
    require(not problems, f"{space.name}: validate reported {problems}")
    with tr.span("connection.build"):
        conn = sublap.canonical_connection(space)
    with tr.span("curvature.classify"):
        flags = sublap.classify(conn)
    return conn, flags


def _optimize(tr, space, **grids):
    with tr.span("bounds.optimize") as attrs:
        report = sublap.optimize(space, **grids)
        attrs["empty"] = not report.entries
    return report


def _report(tr, report):
    with tr.span("bounds.report"):
        return sublap.report_csv(report)


def _check_report(report, csv: str) -> None:
    """Entries are positive and finite, best is their maximum, and the CSV
    carries every entry and variant with its value."""
    values = [e.value for e in report.entries]
    require(all(math.isfinite(v) and v > 0.0 for v in values), f"bad bound values {values}")
    if report.entries:
        require(report.best is not None and report.best.value == max(values),
                "best is not the maximum")
    else:
        require(report.best is None, "best set without entries")
    rows = csv.strip().splitlines()
    require(rows[0].split(",") == list(sublap.bounds.CSV_COLUMNS), "CSV header changed")
    expect = [(e.theorem, e.value) for e in report.entries]
    expect += [(f"{n.theorem}-variant", n.variant) for n in report.discrepancies]
    got = [row.split(",") for row in rows[1:]]
    require(len(got) == len(expect), "CSV row count differs from the report")
    for (theorem, value), row in zip(expect, got):
        require(row[1] == theorem and abs(float(row[2]) - value) <= 1e-11 * max(1.0, value),
                f"CSV row {row[:3]} differs from {theorem}={value}")


def _best(report) -> float | None:
    return None if report.best is None else report.best.value


# ---------------------------------------------------------------------------
# sweep-twisted: report-style sweeps, one cold optimize per point


class SweepTwisted:
    name = "sweep-twisted"
    round_seconds = 26.0
    B_POINTS = (0.1, 0.2, 0.3, 0.4)
    C_POINTS = (0.1, 0.5, 0.9)
    JITTER = 0.005

    def __init__(self, seed: int):
        self.seed = seed
        self._lambda1: dict[Item, float] = {}

    def round(self, r: int) -> list[Item]:
        rng = _rng(self.seed, 1, r)
        db, dc = (float(v) for v in rng.uniform(0.0, self.JITTER, 2))
        items = [Item(f"r{r}:so4_twisted:b={b + db:.6f}", "so4_twisted", (("b", b + db),))
                 for b in self.B_POINTS]
        items += [Item(f"r{r}:so3_twisted:c={c + dc:.6f}", "so3_twisted", (("c", c + dc),))
                  for c in self.C_POINTS]
        return items

    def prepare(self, items: list[Item]) -> None:
        """Exact first eigenvalues for the soundness check, computed untimed."""
        for item in items:
            space = sublap.load_builtin(item.builtin, **dict(item.params))
            self._lambda1[item] = sublap.lambda1(space).lambda1

    def run(self, item: Item, tr) -> Outcome:
        with tr.span("algebra.parse"):
            space = sublap.load_builtin(item.builtin, **dict(item.params))
        _checked(tr, space)
        report = _optimize(tr, space)
        csv = _report(tr, report)
        return Outcome(_best(report), {"report": report, "csv": csv})

    def check(self, item: Item, out: Outcome) -> None:
        _check_report(out.outputs["report"], out.outputs["csv"])
        if item.builtin == "so4_twisted":
            require(out.bound is not None, f"{item.key}: no bound reported")
        lam = self._lambda1[item]
        for e in out.outputs["report"].entries:
            require(e.value <= lam + CHECK_TOL,
                    f"{item.key}: {e.theorem} bound {e.value} exceeds lambda1 {lam}")


# ---------------------------------------------------------------------------
# certify-symmetric: optimize + certify where pruning succeeds


class CertifySymmetric:
    name = "certify-symmetric"
    round_seconds = 7.5
    # Cutoff ranges are raised per space so that every job costs about the
    # same (1.5-2.5 s on the baseline machine); so3_twisted has one su(2)
    # factor, so its irreps are few and its range is far higher.
    SPACES = (
        ("so4_twisted", (("b", 0.0),), (125.0, 150.0)),
        ("so4_alt", (), (80.0, 100.0)),
        ("twisted_spheres", (), (80.0, 100.0)),
        ("so3_twisted", (("c", 0.0),), (16000.0, 20000.0)),
    )
    GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, seed: int):
        self.seed = seed
        offsets = _rng(seed, 2).uniform(0.0, 1.0, len(self.SPACES))
        self._offsets = [float(u) for u in offsets]
        self._reference: dict[str, float] = {}

    def round(self, r: int) -> list[Item]:
        items = []
        for (name, params, (lo, hi)), u0 in zip(self.SPACES, self._offsets):
            # Golden-ratio steps spread the cutoffs evenly over the range for
            # any number of rounds, and never repeat one.
            u = (u0 + r * self.GOLDEN) % 1.0
            cutoff = lo + (hi - lo) * u
            items.append(Item(f"r{r}:{name}:cutoff={cutoff:.6f}", name, params, cutoff))
        return items

    def prepare(self, items: list[Item]) -> None:
        """lambda1 at each space's default cutoff, which every raised cutoff
        must reproduce."""
        for item in items:
            if item.builtin not in self._reference:
                space = sublap.load_builtin(item.builtin, **dict(item.params))
                self._reference[item.builtin] = sublap.lambda1(space).lambda1

    def run(self, item: Item, tr) -> Outcome:
        with tr.span("algebra.parse"):
            space = sublap.load_builtin(item.builtin, **dict(item.params))
        _checked(tr, space)
        report = _optimize(tr, space)
        with tr.span("spectral.certify"):
            cert = sublap.certify(space, report, cutoff=item.cutoff)
        csv = _report(tr, report)
        return Outcome(_best(report), {"report": report, "csv": csv, "cert": cert})

    def check(self, item: Item, out: Outcome) -> None:
        report, cert = out.outputs["report"], out.outputs["cert"]
        _check_report(report, out.outputs["csv"])
        require(out.bound is not None, f"{item.key}: no bound reported")
        require(cert.all_passed, f"{item.key}: certify reported FAIL: {cert.entries}")
        for e in cert.entries:
            require(e.bound <= cert.lambda1 + CHECK_TOL, f"{item.key}: {e.theorem} exceeds lambda1")
        ref = self._reference[item.builtin]
        require(abs(cert.lambda1 - ref) <= CHECK_TOL,
                f"{item.key}: lambda1 {cert.lambda1} != {ref}")
        gate = GATES.get((item.builtin, item.params))
        if gate is not None:
            require(abs(out.bound - gate["best"]) <= CHECK_TOL,
                    f"{item.key}: best {out.bound} != {gate['best']}")
            require(abs(cert.lambda1 - gate["lambda1"]) <= CHECK_TOL,
                    f"{item.key}: lambda1 {cert.lambda1} != {gate['lambda1']}")


# ---------------------------------------------------------------------------
# invariants-scan: parse, validate, classify and the analyze invariants


def heisenberg(k: int) -> tuple[np.ndarray, int]:
    """H_{2k+1}: [X_i, Y_i] = Z."""
    n = 2 * k + 1
    c = np.zeros((n, n, n))
    for i in range(k):
        c[i, k + i, n - 1] = 1.0
        c[k + i, i, n - 1] = -1.0
    return c, 2 * k


def free_step2(r: int) -> tuple[np.ndarray, int]:
    """Free step-2 nilpotent algebra on r generators: [e_i, e_j] = e_ij."""
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    n = r + len(pairs)
    c = np.zeros((n, n, n))
    for p, (i, j) in enumerate(pairs):
        c[i, j, r + p] = 1.0
        c[j, i, r + p] = -1.0
    return c, r


def _builtin_frame(name: str, **params: float) -> tuple[np.ndarray, int]:
    space = sublap.load_builtin(name, **params)
    return space.c, space.dim_h


def base_frames() -> list[tuple[str, np.ndarray, int]]:
    """(name, structure constants, dim_h) of every base algebra, up to dim 15."""
    bases = [
        ("so4_twisted", *_builtin_frame("so4_twisted")),
        ("so4_twisted_b03", *_builtin_frame("so4_twisted", b=0.3)),
        ("so3_twisted", *_builtin_frame("so3_twisted")),
        ("so3_twisted_c05", *_builtin_frame("so3_twisted", c=0.5)),
        ("so4_alt", *_builtin_frame("so4_alt")),
        ("twisted_spheres", *_builtin_frame("twisted_spheres")),
    ]
    bases += [(f"heisenberg{2 * k + 1}", *heisenberg(k)) for k in range(1, 8)]
    bases += [(f"free_step2_r{r}", *free_step2(r)) for r in range(3, 6)]
    return bases


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def transform_frame(c: np.ndarray, d: int, t: float, rng: np.random.Generator | None) -> np.ndarray:
    """Rescale the vertical metric by t, then rotate the horizontal and the
    vertical block of the frame by independent random orthogonal matrices
    (no rotation when rng is None). Returns exactly antisymmetric constants."""
    n = c.shape[0]
    f = np.ones(n)
    f[d:] = 1.0 / math.sqrt(t)
    c = c * f[:, None, None] * f[None, :, None] / f[None, None, :]
    if rng is not None:
        o = np.zeros((n, n))
        o[:d, :d] = random_orthogonal(rng, d)
        o[d:, d:] = random_orthogonal(rng, n - d)
        c = np.einsum("ai,bj,abg,gk->ijk", o, o, c, o, optimize=True)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None]
    c = np.where(upper, c, 0.0)
    return c - c.transpose(1, 0, 2)


def spec_text(name: str, c: np.ndarray, d: int) -> str:
    """Serialize structure constants to spec text; floats are written with
    repr() so that parse_spec_text reproduces them bit for bit."""
    n = c.shape[0]
    lines = [f"name {name}", f"dim_h {d}", f"dim_v {n - d}"]
    for i in range(n):
        for j in range(i + 1, n):
            terms = [f"{float(c[i, j, k])!r} {k + 1}" for k in range(n) if c[i, j, k] != 0.0]
            if terms:
                lines.append(f"bracket {i + 1} {j + 1} = " + "; ".join(terms))
    return "\n".join(lines) + "\n"


def _spectrum(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def invariant_fingerprint(out: Outcome, d: int) -> dict[str, object]:
    """Frame-independent summary of an item's outputs: flags, the spectra of
    the Gram, sub-Ricci and distortion forms, the norms of the two rigidity
    blocks and the sntf bound."""
    o = out.outputs
    grams, dist, rig = o["grams"], o["distortion"], o["rigidity"]
    return {
        "flags": o["flags"],
        "tau_vh": _spectrum(grams.tau_vh),
        "tau_hv": _spectrum(grams.tau_hv),
        "tau_h": _spectrum(grams.tau_h),
        "sub_ricci": _spectrum(o["sub_ricci"][:d, :d]),
        "t1": np.linalg.svd(dist.t1, compute_uv=False) if dist.t1.size else np.zeros(0),
        "t2": _spectrum(dist.t2),
        "rigidity": np.array([np.linalg.norm(rig[:d]), np.linalg.norm(rig[d:])]),
        "sntf": out.bound,
    }


class InvariantsScan:
    name = "invariants-scan"
    round_seconds = 0.7
    SCALES = (0.5, 1.0, 2.0)

    def __init__(self, seed: int):
        self.seed = seed
        self.bases = base_frames()
        self._reference: dict[tuple, dict] = {}

    def round(self, r: int) -> list[Item]:
        items = []
        for b, (name, c, d) in enumerate(self.bases):
            for s, t in enumerate(self.SCALES):
                rng = _rng(self.seed, 3, r, b, s)
                frame = transform_frame(c, d, t, rng)
                key = f"r{r}:{name}:t={t}"
                items.append(Item(key, spec_text=spec_text(key, frame, d), ref=(b, t)))
        return items

    def prepare(self, items: list[Item]) -> None:
        """Invariants of every unrotated reference frame, computed untimed."""
        null = NullTracer()
        for item in items:
            if item.ref in self._reference:
                continue
            b, t = item.ref
            name, c, d = self.bases[b]
            frame = transform_frame(c, d, t, None)
            ref = Item(f"{name}:t={t}", spec_text=spec_text(name, frame, d))
            self._reference[item.ref] = invariant_fingerprint(self.run(ref, null), d)

    def run(self, item: Item, tr) -> Outcome:
        with tr.span("algebra.parse"):
            space = sublap.parse_spec_text(item.spec_text)
        conn, flags = _checked(tr, space)
        with tr.span("curvature.invariants"):
            grams = sublap.seminorm_grams(conn)
            src = sublap.sub_ricci(conn)
            rig = sublap.rigidity(conn)
        with tr.span("bounds.distortion"):
            dist = sublap.distortion(space)
        with tr.span("bounds.sntf"):
            sntf = sublap.bound_sntf(space)
        return Outcome(
            None if sntf is None else sntf.value,
            {"space": space, "flags": flags, "grams": grams, "sub_ricci": src,
             "rigidity": rig, "distortion": dist},
        )

    def check(self, item: Item, out: Outcome) -> None:
        _, c, d = self.bases[item.ref[0]]
        space = out.outputs["space"]
        require(space.c.shape == c.shape and space.dim_h == d, f"{item.key}: wrong dimensions")
        require(spec_text(item.key, space.c, d) == item.spec_text,
                f"{item.key}: spec text does not round-trip")
        got, ref = invariant_fingerprint(out, d), self._reference[item.ref]
        require(got["flags"] == ref["flags"], f"{item.key}: flags {got['flags']} != {ref['flags']}")
        require((got["sntf"] is None) == (ref["sntf"] is None),
                f"{item.key}: sntf applicability differs")
        for key, value in got.items():
            if key == "flags" or value is None:
                continue
            want = np.asarray(ref[key], dtype=float)
            value = np.asarray(value, dtype=float)
            scale = max(1.0, float(np.abs(want).max(initial=0.0)))
            same = value.shape == want.shape and np.allclose(value, want, 0.0, 1e-8 * scale)
            require(same, f"{item.key}: {key} is not frame-invariant: {value} vs {want}")


class WarmUp:
    """The untimed item every run starts with. It passes through every layer
    once, on the smallest builtin, so the first eigen/SVD call pays numpy's lazy
    LAPACK initialization here; a traced run keeps its spans, so every layer
    reads a measured time on every workload. A second, coarse optimize at a
    twist where no theorem applies covers the empty-report path."""

    ITEM = Item("warm-up:so3_twisted", "so3_twisted", (("c", 0.0),), 40.0)
    EMPTY = (("c", 0.9),)

    def run(self, item: Item, tr) -> Outcome:
        with tr.span("algebra.parse"):
            space = sublap.load_builtin(item.builtin, **dict(item.params))
        conn, _ = _checked(tr, space)
        with tr.span("curvature.invariants"):
            sublap.seminorm_grams(conn)
            sublap.sub_ricci(conn)
            sublap.rigidity(conn)
        with tr.span("bounds.distortion"):
            sublap.distortion(space)
        with tr.span("bounds.sntf"):
            sublap.bound_sntf(space)
        report = _optimize(tr, space)
        with tr.span("spectral.certify"):
            cert = sublap.certify(space, report, cutoff=item.cutoff)
        csv = _report(tr, report)
        with tr.span("algebra.parse"):
            twisted = sublap.load_builtin(item.builtin, **dict(self.EMPTY))
        empty = _optimize(tr, twisted, x_points=100, rho2_per_decade=20)
        return Outcome(_best(report), {"report": report, "csv": csv, "cert": cert, "empty": empty})

    def check(self, item: Item, out: Outcome) -> None:
        _check_report(out.outputs["report"], out.outputs["csv"])
        require(out.outputs["cert"].all_passed, f"{item.key}: certify reported FAIL")
        require(not out.outputs["empty"].entries, f"{item.key}: a bound at {self.EMPTY}")


WORKLOADS = {cls.name: cls for cls in (SweepTwisted, CertifySymmetric, InvariantsScan)}
