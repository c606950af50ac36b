"""Spans recorded from outside the program, and the per-layer metrics.

`instrument` wraps the public functions of each `ringprob` module, in
every module namespace that refers to them, so that calls between layers
are timed without changing the program.  Spans are kept in memory as
`[name, start, end, parent, request, work]` and written out once, at the
end of a run.  `work` is the size of the call: |R|^2 for a ring build or
an enumeration, 1 for a `prob_auto` call answered by a closed form.

Metric definitions:

* `<layer>.<fn>_s`: total self time, i.e. span duration minus the time
  its child spans cover;
* `<layer>.<fn>_ms_p50` / `_us_p50`: median span duration;
* `<layer>.<fn>_calls`: span count;
* `corpus.build_s` and `verify.suite.<id>_s`: total duration, child spans
  included, since they group work done by the other layers.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

# (module, public function) -> span name.  The span name is the layer the
# call does its work in: parse_ring_spec lives in specparse, but its cost
# is ring construction (the regex parse inside it is negligible).
TARGETS = {
    ("ringprob.specparse", "parse_ring_spec"): "rings.build",
    ("ringprob.finfield", "galois_field_of_order"): "finfield.field",
    ("ringprob.specparse", "parse_element"): "specparse.element",
    ("ringprob.structure", "structure_report"): "structure.report",
    ("ringprob.probability", "prob_brute"): "probability.brute",
    ("ringprob.probability", "prob_annsum"): "probability.annsum",
    ("ringprob.probability", "pair_counts"): "probability.pair_counts",
    ("ringprob.probability", "spectrum"): "probability.spectrum",
    ("ringprob.closedform", "prob_auto"): "closedform.auto",
    ("ringprob.closedform", "prob_formula"): "closedform.formula",
    ("ringprob.corpus", "corpus_from_file"): "corpus.build",
}

def _work(name: str, args: tuple, result) -> int:
    if name == "rings.build":
        return result.size ** 2
    if name in ("probability.brute", "probability.annsum"):
        return args[0].size ** 2
    if name == "closedform.auto":
        return int(result.formula != "annsum")
    return 0


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request = None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request, 0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, work: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = work
        self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (one with no children)."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, end, parent, self.request, 0])

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            work = 0
            try:
                result = fn(*args, **kwargs)
                work = _work(name, args, result)
            finally:
                self.end(index, work)
            return result
        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every call to a TARGETS function, and every verify suite,
    through `tracer` until the block exits."""
    import ringprob.verify

    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ringprob" or name.startswith("ringprob."))]
    for (mod_name, attr), span_name in TARGETS.items():
        original = getattr(sys.modules[mod_name], attr)
        traced = tracer.wrap(span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    undo.append((module, key, original))
    suites = ringprob.verify.SUITES
    saved = dict(suites)
    for suite_id, (description, runner) in saved.items():
        suites[suite_id] = (description, tracer.wrap(f"verify.suite.{suite_id}", runner))
    try:
        yield tracer
    finally:
        suites.update(saved)
        for module, key, original in reversed(undo):
            setattr(module, key, original)


def summarize(spans: list[list]) -> list[tuple[str, float, float, int]]:
    """(name, duration, self time, work) per span of one process."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(s[0], s[2] - s[1], s[2] - s[1] - covered[i], s[5]) for i, s in enumerate(spans)]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(records: list[tuple[str, float, float, int]],
                  verify_counts: dict, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit); 0 for a layer
    the workload never reached."""
    by_name: dict[str, list[tuple[float, float, int]]] = {}
    for name, dur, self_s, work in records:
        by_name.setdefault(name, []).append((dur, self_s, work))

    def self_s(name):
        return sum(r[1] for r in by_name.get(name, ()))

    def total_s(name):
        return sum(r[0] for r in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def work(name):
        return sum(r[2] for r in by_name.get(name, ()))

    def p50(name, scale):
        return _median([r[0] for r in by_name.get(name, ())]) * scale

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    out: dict[str, tuple[float, str]] = {
        "rings.build_s": (self_s("rings.build"), "s"),
        "rings.build_ms_p50": (p50("rings.build", 1e3), "ms"),
        "rings.build_calls": (calls("rings.build"), "count"),
        "rings.pairs_per_s": (rate(work("rings.build"), self_s("rings.build")), "1/s"),
        "finfield.field_s": (self_s("finfield.field"), "s"),
        "finfield.field_calls": (calls("finfield.field"), "count"),
        "specparse.element_s": (self_s("specparse.element"), "s"),
        "specparse.element_calls": (calls("specparse.element"), "count"),
        "structure.report_s": (self_s("structure.report"), "s"),
        "structure.report_ms_p50": (p50("structure.report", 1e3), "ms"),
        "structure.report_calls": (calls("structure.report"), "count"),
    }
    for fn in ("brute", "annsum", "pair_counts", "spectrum"):
        out[f"probability.{fn}_s"] = (self_s(f"probability.{fn}"), "s")
        out[f"probability.{fn}_calls"] = (calls(f"probability.{fn}"), "count")
    scanned = work("probability.brute") + work("probability.annsum")
    scan_s = self_s("probability.brute") + self_s("probability.annsum")
    out["probability.pairs_per_s"] = (rate(scanned, scan_s), "1/s")
    auto_calls = calls("closedform.auto")
    out.update({
        "closedform.auto_s": (self_s("closedform.auto"), "s"),
        "closedform.auto_calls": (auto_calls, "count"),
        "closedform.auto_us_p50": (p50("closedform.auto", 1e6), "us"),
        "closedform.formula_s": (self_s("closedform.formula"), "s"),
        "closedform.formula_calls": (calls("closedform.formula"), "count"),
        "closedform.formula_hits": (work("closedform.auto"), "count"),
        "closedform.formula_hit_ratio": (rate(work("closedform.auto"), auto_calls), "ratio"),
        "corpus.build_s": (total_s("corpus.build"), "s"),
    })
    from ringprob.verify import SUITES

    for suite_id in SUITES:
        out[f"verify.suite.{suite_id}_s"] = (total_s(f"verify.suite.{suite_id}"), "s")
    for key in ("cases", "failed", "skipped"):
        out[f"verify.{key}"] = (verify_counts.get(key, 0), "count")
    out["cli.import_s"] = (self_s("cli.import"), "s")
    out["cli.main_s"] = (self_s("cli.main"), "s")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
