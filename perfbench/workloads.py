"""The three workloads.  Each runs closed-loop with one client and no
threads, one process at a time, and returns an Outcome.

Untraced runs (trace=False) measure whole passes of the seeded inputs
until `seconds` have gone by and report the end-to-end metrics.  Traced
runs replay a fixed amount of work (one pass for cli-cold, ENGINE_TRACE_
PASSES for engine-warm, one verify for verify-corpus), so that per-layer
totals compare across commits, and run the same work untraced beside it
to report the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

import inputs
import procs
from checks import CliChecker, check_verify
from spans import layer_metrics

# setup_s probes: one before every PROBE_EVERY cli-cold requests, and
# PROBES_PER_VERIFY before each verify-corpus run.
PROBE_EVERY = 5
PROBES_PER_VERIFY = 3
# engine-warm set-up is timed once per worker; the stream is split between them.
ENGINE_WORKERS = 3
ENGINE_TRACE_PASSES = 8


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    refusals: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    # Printed beside the metrics but not gated in BENCHMARK.json.
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 100])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _latency_metrics(outcome: Outcome, latencies_ms: list[float], count: int, busy_s: float,
                     pass_walls: list[float], peak_rss: float, setup_s: float) -> None:
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "latency_ms_p50": (percentile(latencies_ms, 50), "ms"),
        "latency_ms_p90": (percentile(latencies_ms, 90), "ms"),
        "ops_per_s": (count / busy_s, "1/s"),
        "wall_s": (statistics.median(pass_walls), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    # Fewer than ten samples lie beyond the 99th percentile on cli-cold and
    # verify-corpus, so it is reported but not gated.
    outcome.extra = {"latency_ms_p99": (percentile(latencies_ms, 99), "ms"),
                     "samples": (len(latencies_ms), "count")}


class ImportProbe:
    """setup_s for the CLI workloads: wall time of a fresh interpreter
    importing ringprob.cli.  Probes are spread through the run, between
    requests, so that their median covers the whole measured window."""

    ARGV = procs.python("-c", "import ringprob.cli")

    def __init__(self, launch: procs.Launcher, outcome: Outcome):
        self.launch = launch
        self.outcome = outcome
        self.walls: list[float] = []
        self.peak_rss = 0.0
        self._run()  # untimed: writes the bytecode caches

    def _run(self) -> procs.Finished:
        finished = self.launch.run(self.ARGV)
        self.outcome.attempted += 1
        if finished.exit != 0:
            self.outcome.failures.append(
                f"import ringprob.cli: exit {finished.exit}: {finished.err.strip()[-200:]}")
        self.peak_rss = max(self.peak_rss, finished.maxrss_mb)
        return finished

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.walls.append(self._run().wall_s)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.walls)


def _cli_argv(request: dict) -> list[str]:
    return procs.python("-m", "ringprob.cli", *request["argv"])


def cli_cold(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    launch = procs.Launcher()
    outcome = Outcome()
    checker = CliChecker()

    def record(request, finished) -> None:
        outcome.attempted += 1
        reason, refused = checker.check(request, finished.exit, finished.out, finished.err)
        outcome.refusals += refused
        if reason:
            outcome.failures.append(f"{' '.join(request['argv'])}: {reason}")

    if trace:
        plain_s = traced_s = 0.0
        records = []
        for number, request in enumerate(inputs.cli_requests(seed, 0, tiny)):
            plain = launch.run(_cli_argv(request))
            traced = launch.run(procs.python(str(procs.BENCH / "child.py"), "cli",
                                            json.dumps(dict(request, id=number))))
            plain_s += plain.wall_s
            traced_s += traced.wall_s
            record(request, plain)
            try:
                payload = json.loads(traced.out)
            except json.JSONDecodeError:
                record(request, procs.Finished(traced.exit, "", traced.err, 0.0, 0.0))
                continue
            record(request, procs.Finished(payload["exit"], payload["out"], payload["err"],
                                           traced.wall_s, traced.maxrss_mb))
            records.extend(payload["records"])
            outcome.spans.extend(payload["spans"])
        outcome.metrics = layer_metrics(records, {}, 100.0 * (traced_s - plain_s) / plain_s)
        return outcome

    probe = ImportProbe(launch, outcome)
    latencies, rss, pass_walls, answers = [], [probe.peak_rss], [], []
    start = time.perf_counter()
    pass_no = 0
    while pass_no == 0 or time.perf_counter() - start < seconds:
        pass_wall = 0.0
        for number, request in enumerate(inputs.cli_requests(seed, pass_no, tiny)):
            if number % PROBE_EVERY == 0:
                probe.sample()
            finished = launch.run(_cli_argv(request))
            latencies.append(finished.wall_s * 1e3)
            rss.append(finished.maxrss_mb)
            answers.append((request, finished))
            pass_wall += finished.wall_s
        pass_walls.append(pass_wall)
        pass_no += 1
    for request, finished in answers:
        record(request, finished)
    _latency_metrics(outcome, latencies, len(latencies), sum(latencies) / 1e3, pass_walls,
                     max(rss + [probe.peak_rss]), probe.setup_s)
    return outcome


def _engine(launch: procs.Launcher, seed: int, worker: int, seconds: float, passes: int,
            trace: bool, tiny: bool) -> tuple[dict, procs.Finished]:
    argv = procs.python(str(procs.BENCH / "engine.py"), str(seed), str(worker), str(seconds),
                        str(passes), "1" if trace else "0", "1" if tiny else "0")
    finished = launch.run(argv)
    try:
        report = json.loads(finished.out)
    except json.JSONDecodeError:
        report = {"failures": [f"engine worker exit {finished.exit}: "
                               f"{finished.err.strip()[-300:]}"]}
    return report, finished


def engine_warm(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    launch = procs.Launcher()
    outcome = Outcome()
    if trace:
        traced, _ = _engine(launch, seed, 0, 0, ENGINE_TRACE_PASSES, True, tiny)
        plain, _ = _engine(launch, seed, 0, 0, ENGINE_TRACE_PASSES, False, tiny)
        for report in (traced, plain):
            outcome.attempted += report.get("checked", 1)
            outcome.failures += report["failures"]
        if "records" not in traced or "stream_s" not in plain:
            return outcome
        plain_s = plain["setup_s"] + plain["stream_s"]
        overhead = 100.0 * (traced["setup_s"] + traced["stream_s"] - plain_s) / plain_s
        outcome.metrics = layer_metrics(traced["records"], {}, overhead)
        outcome.spans = traced["spans"]
        return outcome

    reports = []
    peak = 0.0
    for worker in range(ENGINE_WORKERS):
        report, finished = _engine(launch, seed, worker, seconds / ENGINE_WORKERS, 0, False,
                                   tiny)
        outcome.attempted += report.get("checked", 1)
        outcome.failures += report["failures"]
        if "setup_s" in report:
            reports.append(report)
        peak = max(peak, finished.maxrss_mb)
    if len(reports) < ENGINE_WORKERS:
        return outcome
    latencies = [ms for r in reports for ms in r["latencies_ms"]]
    _latency_metrics(
        outcome, latencies, len(latencies), sum(r["stream_s"] for r in reports),
        [w for r in reports for w in r["pass_walls_s"]], peak,
        statistics.median(r["setup_s"] for r in reports))
    return outcome


def verify_corpus(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    launch = procs.Launcher()
    outcome = Outcome()
    path = inputs.write_corpus(procs.OUT / f"corpus-{seed}{'-tiny' if tiny else ''}.json",
                               inputs.verify_corpus(seed, tiny))
    relative = str(path.relative_to(procs.ROOT))
    argv = procs.python("-m", "ringprob.cli", "verify", "--format", "json", "--corpus", relative)

    def record(finished) -> dict:
        outcome.attempted += 1
        reason, counts = check_verify(finished.exit, finished.out, finished.err)
        if reason:
            outcome.failures.append(f"verify --corpus {relative}: {reason}")
        return counts

    if trace:
        # untraced, traced, untraced: the overhead is taken against the mean
        # of the two untraced runs around the traced one.
        plain = [launch.run(argv)]
        traced = launch.run(procs.python(str(procs.BENCH / "child.py"), "verify", relative))
        plain.append(launch.run(argv))
        for finished in plain:
            record(finished)
        try:
            payload = json.loads(traced.out)
        except json.JSONDecodeError:
            record(procs.Finished(traced.exit, "", traced.err, 0.0, 0.0))
            return outcome
        counts = record(procs.Finished(payload["exit"], payload["out"], payload["err"],
                                       traced.wall_s, traced.maxrss_mb))
        plain_s = statistics.mean(f.wall_s for f in plain)
        outcome.metrics = layer_metrics(payload["records"], counts,
                                        100.0 * (traced.wall_s - plain_s) / plain_s)
        outcome.spans = payload["spans"]
        return outcome

    probe = ImportProbe(launch, outcome)
    walls, rss, cases = [], [], 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        probe.sample(PROBES_PER_VERIFY)
        finished = launch.run(argv)
        walls.append(finished.wall_s)
        rss.append(finished.maxrss_mb)
        cases += record(finished)["cases"]
    _latency_metrics(outcome, [w * 1e3 for w in walls], cases, sum(walls), walls,
                     max(rss + [probe.peak_rss]), probe.setup_s)
    return outcome


WORKLOADS = {"cli-cold": cli_cold, "engine-warm": engine_warm, "verify-corpus": verify_corpus}
