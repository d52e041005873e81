"""In-memory spans around calls into membranesim's public functions.

The benchmark, not the package, records the spans: `Tracer.installed()`
replaces each traced function with a timing wrapper at every place the
package looks the name up, and puts the originals back on exit. A span
holds its name, the id of the span that caused it, the thread it ran in,
start and end times and a few counts taken from the call's arguments
or result.

Parents are tracked per thread. A span opened in a pool worker whose own
stack is empty takes as parent the innermost open span of the thread
that installed the tracer; the benchmark is a closed loop with a single
caller, so that span is the `estimate` call that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

_MISSING = object()


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    batch: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi].

    Overlapping intervals (child spans running at once on two threads)
    count once.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Collects spans from wrapped functions; one instance per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.batch = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caller_ident = threading.get_ident()
        self._caller_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._caller_ident:
            return self._caller_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, attrs=None):
        """Timing wrapper around `fn`. `name` is a string or a function of
        the call's arguments; `attrs(args, kwargs, result)` returns the
        counts to store on the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._caller_stack:
                parent = tracer._caller_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            span = Span(
                sid,
                parent,
                name(args) if callable(name) else name,
                threading.get_ident(),
                start,
                end,
                tracer.batch,
                attrs(args, kwargs, result) if attrs else {},
            )
            with tracer._lock:
                tracer.spans.append(span)
            return result

        return traced

    def patch(self, owner, attr: str, name, attrs=None) -> None:
        original = owner.__dict__.get(attr, _MISSING)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self, batch: int):
        """Trace membranesim calls made inside the block as batch `batch`;
        the original functions are back in place when it exits."""
        self.batch = batch
        try:
            install_membranesim(self)
            yield self
        finally:
            self.restore()


def _kw(args, kwargs, index: int, key: str, default):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _classify_attrs(args, kwargs, result):
    return {"points": len(args[0]), "boundary": int(result[1].sum())}


def _estimate_attrs(args, kwargs, result):
    return {
        "n_samples": int(_kw(args, kwargs, 2, "n_samples", 0)),
        "threads": int(_kw(args, kwargs, 4, "threads", 1)),
        "n_outcomes": int(_kw(args, kwargs, 0, "x", None).n_outcomes),
        "density": type(_kw(args, kwargs, 1, "rho", None)).__name__,
    }


def _universal_attrs(args, kwargs, result):
    return {"n_mask_draws": int(_kw(args, kwargs, 2, "n_mask_draws", 0))}


def _sample_attrs(args, kwargs, result):
    return {"size": int(_kw(args, kwargs, 2, "size", 0))}


def _n_attrs(args, kwargs, result):
    return {"n": int(args[0])}


def _main_attrs(args, kwargs, result):
    argv = list(_kw(args, kwargs, 0, "argv", None) or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"out_bytes": os.path.getsize(path)}
    return {"out_bytes": 0}


_TRUNCATED_KIND = {
    "CentroidNeighborhood": "centroid",
    "BallComplement": "balls",
    "IntervalControl": "intervals",
}


def _truncated_name(args) -> str:
    kind = type(args[0].control).__name__
    return "density.trunc_" + _TRUNCATED_KIND.get(kind, "other")


def install_membranesim(tracer: Tracer) -> None:
    """Wrap each traced entry point where the package looks it up.

    `montecarlo` and `cli` bind several names at import time, so the
    module that calls a function is patched, not only the one that
    defines it.
    """
    from membranesim import cli, density, montecarlo, robustness, simplex, universal

    for module in (simplex, montecarlo):
        tracer.patch(
            module, "classify_batch", "simplex.classify_batch", _classify_attrs
        )
    tracer.patch(montecarlo, "substream", "montecarlo.substream")
    for module in (montecarlo, cli, robustness):
        tracer.patch(module, "estimate", "montecarlo.estimate", _estimate_attrs)
    tracer.patch(
        montecarlo,
        "estimate_universal",
        "montecarlo.estimate_universal",
        _universal_attrs,
    )
    for cls, name in (
        (density.UniformDensity, "density.uniform"),
        (density.Cellular1DDensity, "density.cellular1d"),
        (density.DiracMixtureDensity, "density.dirac"),
        (density.CellularGridDensity, "density.grid"),
        (density.TruncatedUniformDensity, _truncated_name),
    ):
        tracer.patch(cls, "sample_batch", name, _sample_attrs)
    tracer.patch(density.CellularGridDensity, "__init__", "density.grid.build")
    for module in (universal, cli):
        tracer.patch(
            module,
            "universal_average_1d",
            "universal.universal_average_1d",
            _n_attrs,
        )
        tracer.patch(module, "theorem_report", "universal.theorem_report")
    tracer.patch(
        universal, "recurrence_step_check", "universal.recurrence_step_check", _n_attrs
    )
    for fn in ("binomial_identity_a", "binomial_identity_b"):
        tracer.patch(universal, fn, "universal.identities")
    for fn in ("robustness_sweep", "dirac_limit_demo"):
        tracer.patch(cli, fn, f"robustness.{fn}")
    tracer.patch(cli, "main", "cli.main", _main_attrs)


#: spans that each enumerate every nonzero mask once
ENUMERATIONS = frozenset(
    {"universal.universal_average_1d", "universal.recurrence_step_check"}
)
ENUMERATE_SPANS = ENUMERATIONS | {"universal.theorem_report"}
ROBUSTNESS_SPANS = frozenset(
    {"robustness.robustness_sweep", "robustness.dirac_limit_demo"}
)
DENSITY_FAMILIES = (
    "uniform",
    "grid",
    "cellular1d",
    "dirac",
    "trunc_centroid",
    "trunc_balls",
)


class SpanIndex:
    """Spans of one batch, with children looked up by parent id."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, names) -> list[Span]:
        names = {names} if isinstance(names, str) else names
        return [s for s in self.spans if s.name in names]

    def busy(self, names) -> float:
        """Summed duration of the spans in `names`, across threads,
        leaving out spans nested inside another span of the same set."""
        names = {names} if isinstance(names, str) else names
        total = 0.0
        for s in self.named(names):
            parent = self.by_id.get(s.parent)
            while parent is not None and parent.name not in names:
                parent = self.by_id.get(parent.parent)
            if parent is None:
                total += s.duration
        return total

    def self_time(self, span: Span) -> float:
        """Duration of `span` minus the union of its direct children."""
        kids = self.children.get(span.id, [])
        return span.duration - union_length(
            [(k.start, k.end) for k in kids], span.start, span.end
        )

    def self_total(self, names) -> float:
        return sum(self.self_time(s) for s in self.named(names))

    def child_busy(self, span: Span) -> float:
        return sum(k.duration for k in self.children.get(span.id, []))


def layer_metrics(index: SpanIndex) -> dict[str, float]:
    """Per-layer figures of one traced batch (one pass over the tasks)."""
    classify = index.named("simplex.classify_batch")
    estimates = index.named("montecarlo.estimate")
    capacity = sum(s.attrs["threads"] * s.duration for s in estimates)
    out = {
        "simplex.classify_batch.busy_s": index.busy("simplex.classify_batch"),
        "simplex.classify_batch.points": sum(s.attrs["points"] for s in classify),
        "simplex.boundary_hits": sum(s.attrs["boundary"] for s in classify),
    }
    for family in DENSITY_FAMILIES:
        out[f"density.{family}.busy_s"] = index.busy(f"density.{family}")
    out.update(
        {
            "density.grid.build_s": index.busy("density.grid.build"),
            "montecarlo.estimate.calls": len(estimates),
            "montecarlo.estimate.busy_s": index.busy("montecarlo.estimate"),
            "montecarlo.estimate.self_s": index.self_total("montecarlo.estimate"),
            "montecarlo.blocks": len(index.named("montecarlo.substream")),
            "montecarlo.substream.busy_s": index.busy("montecarlo.substream"),
            "montecarlo.parallel_eff": (
                sum(index.child_busy(s) for s in estimates) / capacity
                if capacity
                else 0.0
            ),
            "montecarlo.estimate_universal.self_s": index.self_total(
                "montecarlo.estimate_universal"
            ),
            "universal.enumerate.busy_s": index.busy(ENUMERATE_SPANS),
            "universal.enumerate.calls": len(index.named(ENUMERATIONS)),
            "universal.identities.busy_s": index.busy("universal.identities"),
            "robustness.self_s": index.self_total(ROBUSTNESS_SPANS),
            "cli.main.self_s": index.self_total("cli.main"),
            "cli.out_bytes": sum(s.attrs["out_bytes"] for s in index.named("cli.main")),
        }
    )
    return out


def hand_profile_comparison(index: SpanIndex) -> list[tuple[str, str, float | None]]:
    """Traced figures for the quantities of ROADMAP's hand profile.

    Each row is (quantity, hand-profile value, traced value or None when
    this batch did not run it).
    """

    def per(total: float, count: float, scale: float):
        return total / count * scale if count else None

    rows = []
    uniform3 = [
        s
        for s in index.named("montecarlo.estimate")
        if s.attrs["n_outcomes"] == 3 and s.attrs["density"] == "UniformDensity"
    ]
    for threads in sorted({s.attrs["threads"] for s in uniform3}) or [1]:
        est = [s for s in uniform3 if s.attrs["threads"] == threads]
        capacity = sum(threads * s.duration for s in est)
        classify = sum(
            k.duration
            for s in est
            for k in index.children.get(s.id, [])
            if k.name == "simplex.classify_batch"
        )
        rows += [
            (
                f"estimate, uniform N=3, {threads} thread(s), s per 1M samples",
                "0.22",
                per(
                    sum(s.duration for s in est),
                    sum(s.attrs["n_samples"] for s in est),
                    1e6,
                ),
            ),
            (
                "classify_batch share of that estimate's thread-seconds",
                "0.75",
                classify / capacity if capacity else None,
            ),
        ]
    grid = index.named("density.grid")
    avg24 = [
        s for s in index.named("universal.universal_average_1d") if s.attrs["n"] == 24
    ]
    univ = index.named("montecarlo.estimate_universal")
    return rows + [
        (
            "grid sample_batch, s per 65536 points",
            "0.23",
            per(
                sum(s.duration for s in grid),
                sum(s.attrs["size"] for s in grid),
                65536,
            ),
        ),
        (
            "universal_average_1d(24, i), s per call (_suffix_sums + reduction)",
            "0.47",
            per(sum(s.duration for s in avg24), len(avg24), 1),
        ),
        (
            "estimate_universal, s per 1M draws",
            "0.48",
            per(
                sum(s.duration for s in univ),
                sum(s.attrs["n_mask_draws"] for s in univ),
                1e6,
            ),
        ),
    ]


def median_of(batches: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(b[key] for b in batches) for key in batches[0]}
