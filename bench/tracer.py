"""Outside-in tracer: spans around the package's public functions, recorded
from the benchmark's own files.

The package binds names with `from .groebner import buchberger`, so a wrapper
must replace a function in every module that holds it; otherwise, say,
`ideal_ops.height`'s calls into `buchberger` go unseen.  `Tracer.install`
rebinds each wrapped function wherever it appears in the package and
`uninstall` puts the originals back.  The package itself is not edited.

Each span records its name, start, end, parent span and the request it
belongs to, plus the pairs the process-wide pair meter
(`groebner.pair_meter_total`) advanced while it was open.  A `buchberger`
call is a cache hit when the meter did not move yet the returned basis has
`pairs_processed > 0`; a cached basis that took no pairs to compute is
indistinguishable from a miss and counts as one.  Self time is a span's
duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter
from time import perf_counter

# Functions given a span, as (module, attribute); the metric prefix is
# "module.attribute".
SPANNED = (
    ("groebner", "normal_form"),
    ("groebner", "buchberger"),
    ("groebner", "ideal_member"),
    ("ideal_ops", "intersect_ideals"),
    ("ideal_ops", "radical_member"),
    ("ideal_ops", "is_minimal_generating_set"),
    ("ideal_ops", "height"),
    ("ideal_ops", "monomial_dim"),
    ("graphs", "tree_classes"),
    ("graphs", "enumerate_rooted_labelings"),
    ("hankel", "verify_minimal_primes"),
    ("hankel", "property_report"),
    ("hankel", "run_instance"),
    ("cli", "main"),
)

# Functions only counted: a timer would cost more than the work they do.
COUNTED = (("groebner", "s_polynomial"),)
COUNTED_METHODS = (("ring", "Polynomial", "leading_term"),)

# Every per-layer metric a traced run reports: (name, unit, better).
_CALLS = "count", "lower"
_PAIRS = "count", "lower"
_TIME = "s", "lower"
PER_LAYER = (
    ("groebner.normal_form.calls", *_CALLS),
    ("groebner.normal_form.self_s", *_TIME),
    ("groebner.normal_form.zero_reductions", "count", "lower"),
    ("groebner.normal_form.zero_ratio", "ratio", "lower"),
    ("groebner.buchberger.calls", *_CALLS),
    ("groebner.buchberger.cache_hits", "count", "higher"),
    ("groebner.buchberger.budgeted_calls", *_CALLS),
    ("groebner.buchberger.self_s", *_TIME),
    ("groebner.buchberger.pairs", *_PAIRS),
    ("groebner.s_polynomial.calls", *_CALLS),
    ("groebner.ideal_member.calls", *_CALLS),
    ("groebner.ideal_member.pairs", *_PAIRS),
    ("ring.leading_term.calls", *_CALLS),
    ("ideal_ops.intersect_ideals.calls", *_CALLS),
    ("ideal_ops.intersect_ideals.total_s", *_TIME),
    ("ideal_ops.intersect_ideals.pairs", *_PAIRS),
    ("ideal_ops.radical_member.calls", *_CALLS),
    ("ideal_ops.radical_member.total_s", *_TIME),
    ("ideal_ops.radical_member.pairs", *_PAIRS),
    ("ideal_ops.is_minimal_generating_set.calls", *_CALLS),
    ("ideal_ops.is_minimal_generating_set.total_s", *_TIME),
    ("ideal_ops.is_minimal_generating_set.pairs", *_PAIRS),
    ("ideal_ops.height.calls", *_CALLS),
    ("ideal_ops.height.total_s", *_TIME),
    ("ideal_ops.height.pairs", *_PAIRS),
    ("ideal_ops.monomial_dim.calls", *_CALLS),
    ("ideal_ops.monomial_dim.self_s", *_TIME),
    ("graphs.tree_classes.calls", *_CALLS),
    ("graphs.tree_classes.self_s", *_TIME),
    ("graphs.enumerate_rooted_labelings.calls", *_CALLS),
    ("graphs.enumerate_rooted_labelings.self_s", *_TIME),
    ("hankel.verify_minimal_primes.total_s", *_TIME),
    ("hankel.verify_minimal_primes.pairs", *_PAIRS),
    ("hankel.property_report.total_s", *_TIME),
    ("hankel.property_report.pairs", *_PAIRS),
    ("hankel.run_instance.calls", *_CALLS),
    ("hankel.run_instance.p50_s", *_TIME),
    ("hankel.run_instance.p90_s", *_TIME),
    ("cli.main.self_s", *_TIME),
    ("requests.budgeted.pairs", *_PAIRS),
    ("requests.budgeted.cache_hits", "count", "higher"),
    ("requests.unbudgeted.pairs", *_PAIRS),
    ("requests.unbudgeted.cache_hits", "count", "higher"),
    ("trace.overhead_s", *_TIME),
)


class Span:
    __slots__ = ("name", "parent", "request", "start", "end", "children", "pairs", "zero", "hit", "budgeted")

    def __init__(self, name: str, parent: "Span | None", request: int):
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = self.children = 0.0
        self.pairs = 0
        self.zero = self.hit = self.budgeted = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory while installed; `request` tags new spans."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[Span] = []
        self._restore: list = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for module, attr in SPANNED:
            original = getattr(self.modules[module], attr)
            self._rebind(original, self._spanned(f"{module}.{attr}", original))
        for module, attr in COUNTED:
            original = getattr(self.modules[module], attr)
            self._rebind(original, self._counted(f"{module}.{attr}", original))
        for module, cls_name, attr in COUNTED_METHODS:
            cls = getattr(self.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._counted(f"{module}.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, original, wrapper) -> None:
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack
        meter = self.modules["groebner"].pair_meter_total
        is_normal_form = name == "groebner.normal_form"
        is_buchberger = name == "groebner.buchberger"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.request)
            spans.append(span)
            stack.append(span)
            before = meter()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.pairs = meter() - before
                stack.pop()
            if is_normal_form:
                span.zero = result.is_zero
            elif is_buchberger:
                span.budgeted = kwargs.get("budget") is not None
                span.hit = span.pairs == 0 and result.pairs_processed > 0
            return result

        return wrapper


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(tracer: Tracer, budgeted_requests: set[int], request_pairs: list[int]) -> dict:
    """Per-layer metrics for one traced pass, except `trace.overhead_s`.

    `budgeted_requests` holds the indices of the requests that passed a
    budget and `request_pairs` each request's reported pair count.
    """
    for span in tracer.spans:
        if span.parent is not None:
            span.parent.children += span.seconds
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    out: dict[str, float] = {}
    for module, attr in SPANNED:
        name = f"{module}.{attr}"
        group = by_name.get(name, [])
        out[f"{name}.calls"] = len(group)
        out[f"{name}.total_s"] = sum(s.seconds for s in group)
        out[f"{name}.self_s"] = sum(s.seconds - s.children for s in group)
        out[f"{name}.pairs"] = sum(s.pairs for s in group)
    for name in [f"{m}.{a}" for m, a in COUNTED] + [f"{m}.{a}" for m, _, a in COUNTED_METHODS]:
        out[f"{name}.calls"] = tracer.counts[name]

    under_gb = [
        s
        for s in by_name.get("groebner.normal_form", [])
        if s.parent is not None and s.parent.name == "groebner.buchberger"
    ]
    zeros = sum(s.zero for s in under_gb)
    out["groebner.normal_form.zero_reductions"] = zeros
    out["groebner.normal_form.zero_ratio"] = zeros / len(under_gb) if under_gb else 0.0
    gb_spans = by_name.get("groebner.buchberger", [])
    out["groebner.buchberger.cache_hits"] = sum(s.hit for s in gb_spans)
    out["groebner.buchberger.budgeted_calls"] = sum(s.budgeted for s in gb_spans)
    instances = [s.seconds for s in by_name.get("hankel.run_instance", [])]
    out["hankel.run_instance.p50_s"] = percentile(instances, 50)
    out["hankel.run_instance.p90_s"] = percentile(instances, 90)

    hits = Counter(s.request for s in gb_spans if s.hit)
    for half, budgeted in (("budgeted", True), ("unbudgeted", False)):
        members = [k for k in range(len(request_pairs)) if (k in budgeted_requests) == budgeted]
        out[f"requests.{half}.pairs"] = sum(request_pairs[k] for k in members)
        out[f"requests.{half}.cache_hits"] = sum(hits[k] for k in members)
    names = {name for name, _, _ in PER_LAYER}
    return {k: v for k, v in out.items() if k in names}
