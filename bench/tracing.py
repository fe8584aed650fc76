"""In-memory spans for the traced run, and the per-layer metrics built from them.

A span is (name, start, end, parent, item). Its layer is the part of the name
before the first dot. A layer's self time is its span minus the time its child
spans cover. The benchmark opens spans around its own calls into each layer;
`instrument` also wraps, for the duration of a traced run, the callables that
the package looks up at call time, so that spans appear inside `optimize`,
`certify` and around every eigenvalue kernel.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time

import numpy as np

import sublap


class _Span:
    __slots__ = ("tracer", "index", "attrs")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index
        self.attrs: dict = {}

    def __enter__(self) -> dict:
        return self.attrs

    def __exit__(self, *exc) -> bool:
        tr = self.tracer
        rec = tr.spans[self.index]
        rec["end"] = time.perf_counter()
        if self.attrs:
            rec["attrs"] = self.attrs
        tr._stack.pop()
        return False


class _NullSpan:
    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> bool:
        return False


class NullTracer:
    """Tracer for untraced runs: every span is a shared no-op."""

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def item_span(self, key: str) -> _NullSpan:
        return self._span


class Tracer:
    """Collects spans while an item is open (`item` is not None)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.item: str | None = None

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "item": self.item})
        self._stack.append(index)
        return _Span(self, index)

    @contextlib.contextmanager
    def item_span(self, key: str):
        """Open the root span of one item; spans inside it carry its key."""
        self.item = key
        try:
            with self.span("item"):
                yield
        finally:
            self.item = None


def _eig_attrs(name: str, args: tuple) -> dict:
    a = np.asarray(args[0])
    mats = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
    m, n = a.shape[-2:]
    per = m * n * min(m, n) if name == "svd" else n**3
    return {"mats": mats, "flop": mats * per}


def _spectrum_attrs(result) -> dict:
    return {"irreps": len(result.table), "irrep_dims": sum(t.dim for t in result.table),
            "rigorous": bool(result.rigorous)}


def _wrap(tracer: Tracer, fn, span_name: str, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.item is None:
            return fn(*args, **kwargs)
        with tracer.span(span_name) as attrs:
            if before is not None:
                attrs.update(before(args))
            out = fn(*args, **kwargs)
            if after is not None:
                attrs.update(after(out))
            return out

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's late-bound callables and numpy's eigen/SVD kernels
    with spans; restore the originals on exit."""
    targets = [
        (sublap.bounds, "bound_asn", "bounds.asn_polish", None, None),
        (sublap.bounds, "bound_sntf", "bounds.sntf", None, None),
        (sublap.spectral, "lambda1", "spectral.lambda1", None, _spectrum_attrs),
    ]
    targets += [(np.linalg, k, f"linalg.{k}", functools.partial(_eig_attrs, k), None)
                for k in ("eigvalsh", "eigh", "svd")]
    saved = []
    try:
        for module, attr, span_name, before, after in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, span_name, before, after))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# Per-layer metrics: name -> unit. The order is the order they are printed.
LAYER_METRICS = {
    "algebra.parse_s": "s",
    "algebra.validate_s": "s",
    "algebra.calls": "count",
    "connection.build_s": "s",
    "connection.calls": "count",
    "curvature.classify_s": "s",
    "curvature.invariants_s": "s",
    "bounds.distortion_s": "s",
    "bounds.sntf_s": "s",
    "bounds.optimize_s": "s",
    "bounds.optimize_self_s": "s",
    "bounds.optimize_calls": "count",
    "bounds.asn_polish_s": "s",
    "bounds.empty_frac": "frac",
    "bounds.empty_s": "s",
    "bounds.eig_calls": "count",
    "bounds.eig_mats": "count",
    "bounds.report_s": "s",
    "spectral.lambda1_s": "s",
    "spectral.certify_self_s": "s",
    "spectral.irreps": "count",
    "spectral.irrep_dim_sum": "count",
    "spectral.eig_mats": "count",
    "spectral.tail_rigorous_frac": "frac",
    "linalg.busy_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_mats": "count",
    "linalg.eig_flop_est": "flop",
    "trace.overhead_frac": "frac",
}

# Counts that must repeat exactly for a given seed and run length.
DETERMINISTIC = [k for k, unit in LAYER_METRICS.items() if unit == "count"] + ["bounds.empty_frac"]


def _layer(name: str) -> str:
    return name.partition(".")[0]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Aggregate closed spans into the per-layer metrics of LAYER_METRICS;
    the caller adds trace.overhead_frac."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d

    def total(name: str) -> float:
        return math.fsum(d for s, d in zip(spans, dur) if s["name"] == name)

    def self_time(name: str) -> float:
        return math.fsum(d - c for s, d, c in zip(spans, dur, child) if s["name"] == name)

    def count(pred) -> int:
        return sum(1 for s in spans if pred(s))

    eig = [s for s in spans if _layer(s["name"]) == "linalg"]

    def eig_sum(key: str, layer: str | None = None) -> int:
        return sum(s["attrs"][key] for s in eig
                   if layer is None or _layer(spans[s["parent"]]["name"]) == layer)

    optimizes = [(s, d) for s, d in zip(spans, dur) if s["name"] == "bounds.optimize"]
    empty = [d for s, d in optimizes if s["attrs"]["empty"]]
    lambdas = [s["attrs"] for s in spans if s["name"] == "spectral.lambda1"]
    return {
        "algebra.parse_s": total("algebra.parse"),
        "algebra.validate_s": total("algebra.validate"),
        "algebra.calls": count(lambda s: _layer(s["name"]) == "algebra"),
        "connection.build_s": total("connection.build"),
        "connection.calls": count(lambda s: s["name"] == "connection.build"),
        "curvature.classify_s": total("curvature.classify"),
        "curvature.invariants_s": total("curvature.invariants"),
        "bounds.distortion_s": total("bounds.distortion"),
        "bounds.sntf_s": total("bounds.sntf"),
        "bounds.optimize_s": total("bounds.optimize"),
        "bounds.optimize_self_s": self_time("bounds.optimize"),
        "bounds.optimize_calls": len(optimizes),
        "bounds.asn_polish_s": total("bounds.asn_polish"),
        "bounds.empty_frac": len(empty) / len(optimizes) if optimizes else 0.0,
        "bounds.empty_s": math.fsum(empty),
        "bounds.eig_calls": sum(1 for s in eig if _layer(spans[s["parent"]]["name"]) == "bounds"),
        "bounds.eig_mats": eig_sum("mats", "bounds"),
        "bounds.report_s": total("bounds.report"),
        "spectral.lambda1_s": total("spectral.lambda1"),
        "spectral.certify_self_s": self_time("spectral.certify"),
        "spectral.irreps": sum(a["irreps"] for a in lambdas),
        "spectral.irrep_dim_sum": sum(a["irrep_dims"] for a in lambdas),
        "spectral.eig_mats": eig_sum("mats", "spectral"),
        "spectral.tail_rigorous_frac": (sum(a["rigorous"] for a in lambdas) / len(lambdas)
                                        if lambdas else 0.0),
        "linalg.busy_s": math.fsum(d for s, d in zip(spans, dur) if _layer(s["name"]) == "linalg"),
        "linalg.eig_calls": len(eig),
        "linalg.eig_mats": eig_sum("mats"),
        "linalg.eig_flop_est": eig_sum("flop"),
    }
