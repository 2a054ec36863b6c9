"""In-memory span tracer and the per-layer instrumentation of loophom.

`Tracer` records spans (name, start, end, parent) around calls into the
public functions of each loophom module and keeps per-name aggregates:
calls, total time and self time, where self time is a span's duration minus
the time its child spans cover.  Aggregates are exact over every span; the
span records themselves are kept in memory up to a cap (a `verify` run makes
millions of calls) and written out once, when the traced process ends.

`install` wraps the layer boundaries from outside the package, so the code
under test is unchanged: nothing under `src/` knows it is being traced.
Cache hit ratios are computed here from the keys each wrapper has already
seen in this process, never from loophom's private memo attributes.
"""

from __future__ import annotations

import json
import time
import weakref

SUITE_NAMES = (
    "algebra",
    "presentation",
    "maps",
    "gysin",
    "transfer",
    "quotient-product",
    "main-theorem",
    "theta-vs-vartheta",
    "a-products",
    "quotient-homs",
)

# (span name, fields reported for it)
SPAN_METRICS = (
    ("core.basis", ("calls", "self_s")),
    ("core.normalize", ("calls", "self_s")),
    ("core.Element.mul", ("calls", "self_s")),
    ("core.Element.pow", ("self_s",)),
    ("spaces.Space.betti", ("calls", "self_s")),
    ("maps.LinearMap.call", ("calls", "self_s")),
    ("equivariant.Quotient.project", ("calls", "self_s")),
    ("equivariant.Quotient.transfer", ("calls", "self_s")),
    ("equivariant.Quotient.product", ("calls", "self_s")),
    ("equivariant.Quotient.invariants", ("calls", "self_s")),
    ("equivariant.Quotient.action_sum", ("self_s",)),
    ("equivariant.QElement.pow", ("self_s",)),
    ("expr.parse", ("self_s",)),
    ("expr.evaluate", ("self_s",)),
    ("cli.render", ("self_s",)),
)

# counters reported as they are; a counter "X.hits" pairs with "X.calls"
COUNT_METRICS = (
    "core.basis.monomials_out",
    "core.normalize.terms_in",
    "core.mul_monomials.calls",
)
HIT_RATIOS = ("core.basis", "core.mul_monomials", "maps.image_of_monomial")


class Tracer:
    """Span stack with exact self-time aggregates and a capped span log."""

    def __init__(self, clock=time.perf_counter, keep: int = 200_000):
        self.clock = clock
        self.keep = keep
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.dropped = 0
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.counts: dict = {}
        self._stack: list = []  # frames: [name, start, child_s, span index]

    def enter(self, name: str) -> list:
        start = self.clock()
        if len(self.spans) < self.keep:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, start, None, parent])
        else:
            index = -1
            self.dropped += 1
        frame = [name, start, 0.0, index]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        duration = end - frame[1]
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end
        if self._stack:
            self._stack[-1][2] += duration
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame[2]

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def write(self, path: str, extra: dict) -> None:
        payload = {
            "stats": self.stats,
            "counts": self.counts,
            "spans_dropped": self.dropped,
            "spans": self.spans,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def merge(summaries) -> dict:
    """Sum the aggregates of several traced processes."""
    stats: dict = {}
    counts: dict = {}
    for s in summaries:
        for name, (calls, total, own) in s["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for name, k in s["counts"].items():
            counts[name] = counts.get(name, 0) + k
    return {"stats": stats, "counts": counts}


def layer_metrics(merged: dict) -> dict:
    """Per-layer metric values from merged aggregates (zero where unused)."""
    stats, counts = merged["stats"], merged["counts"]
    out = {}
    for name, fields in SPAN_METRICS:
        calls, _total, own = stats.get(name, (0, 0.0, 0.0))
        if "calls" in fields:
            out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    for prefix in HIT_RATIOS:
        calls = counts.get(f"{prefix}.calls", 0)
        out[f"{prefix}.hit_ratio"] = counts.get(f"{prefix}.hits", 0) / calls if calls else 0.0
    for suite in SUITE_NAMES:
        _calls, total, _own = stats.get(f"verify.{suite}", (0, 0.0, 0.0))
        out[f"verify.{suite}.wall_s"] = total
        out[f"verify.{suite}.checks"] = counts.get(f"verify.{suite}.checks", 0)
    return out


class _Seen:
    """Keys already seen per owner object, held weakly so owners can die."""

    def __init__(self):
        self._by_owner = weakref.WeakKeyDictionary()

    def hit(self, owner, key) -> bool:
        seen = self._by_owner.get(owner)
        if seen is None:
            seen = self._by_owner[owner] = set()
        if key in seen:
            return True
        seen.add(key)
        return False


def _span(tracer: Tracer, name: str, fn):
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        frame = enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(frame)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public layer boundaries of an imported loophom."""
    from loophom import cli, core, equivariant, expr, maps, spaces, verify

    count = tracer.count

    normalize = core.Algebra.normalize

    def counted_normalize(self, terms):
        terms = list(terms)
        count("core.normalize.terms_in", len(terms))
        return normalize(self, terms)

    core.Algebra.normalize = _span(tracer, "core.normalize", counted_normalize)

    mul_monomials = core.Algebra.mul_monomials
    mul_seen = _Seen()

    def counted_mul_monomials(self, m1, m2):
        count("core.mul_monomials.calls")
        if mul_seen.hit(self, (m1, m2)):
            count("core.mul_monomials.hits")
        return mul_monomials(self, m1, m2)

    core.Algebra.mul_monomials = counted_mul_monomials

    basis = core.Algebra.basis
    basis_seen = _Seen()

    def counted_basis(self, degree):
        count("core.basis.calls")
        if basis_seen.hit(self, degree):
            count("core.basis.hits")
        out = basis(self, degree)
        count("core.basis.monomials_out", len(out))
        return out

    core.Algebra.basis = _span(tracer, "core.basis", counted_basis)
    core.Element.__mul__ = _span(tracer, "core.Element.mul", core.Element.__mul__)
    core.Element.__pow__ = _span(tracer, "core.Element.pow", core.Element.__pow__)
    spaces.Space.betti = _span(tracer, "spaces.Space.betti", spaces.Space.betti)

    maps.LinearMap.__call__ = _span(
        tracer, "maps.LinearMap.call", maps.LinearMap.__call__
    )
    image_of_monomial = maps.LinearMap.image_of_monomial
    image_seen = _Seen()

    def counted_image(self, mono):
        count("maps.image_of_monomial.calls")
        if image_seen.hit(self, mono):
            count("maps.image_of_monomial.hits")
        return image_of_monomial(self, mono)

    maps.LinearMap.image_of_monomial = counted_image

    for method in ("project", "transfer", "product", "invariants", "action_sum"):
        name = f"equivariant.Quotient.{method}"
        setattr(
            equivariant.Quotient,
            method,
            _span(tracer, name, getattr(equivariant.Quotient, method)),
        )
    equivariant.QElement.__pow__ = _span(
        tracer, "equivariant.QElement.pow", equivariant.QElement.__pow__
    )

    # evaluate looks `parse` up in its module; the CLI imported `evaluate`
    expr.parse = _span(tracer, "expr.parse", expr.parse)
    cli.evaluate = _span(tracer, "expr.evaluate", expr.evaluate)

    for fn in ("betti_to_ascii", "betti_to_json", "format_value"):
        setattr(cli, fn, _span(tracer, "cli.render", getattr(cli, fn)))
    verify.Report.render = _span(tracer, "cli.render", verify.Report.render)

    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = _counted_suite(tracer, suite, fn)


def _counted_suite(tracer: Tracer, suite: str, fn):
    traced = _span(tracer, f"verify.{suite}", fn)

    def run_suite(*args, **kwargs):
        checks = traced(*args, **kwargs)
        tracer.count(f"verify.{suite}.checks", len(checks))
        return checks

    return run_suite
