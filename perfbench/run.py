"""ringprob benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload cli-cold|engine-warm|verify-corpus \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints one line per metric (name, value,
unit), a host line, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
replay.  Exits 1 when any answer is wrong, 2 when the program cannot be
found.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import procs

# A fixed pure-Python loop, timed to describe the host.  Reported only;
# never used to scale a measurement.
CALIBRATION_ITERATIONS = 2_000_000


def host_info() -> dict:
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "calibration_loop_s": time.perf_counter() - start,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-cold", "engine-warm", "verify-corpus"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (procs.SRC / "ringprob" / "cli.py").is_file():
        print(f"error: no ringprob sources under {procs.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(procs.SRC))
    from workloads import WORKLOADS

    host = host_info()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    failed = len(outcome.failures)
    attempted = max(outcome.attempted, 1)
    rates = {"error_rate": (failed / attempted, "ratio"),
             "refusal_rate": (outcome.refusals / attempted, "ratio")}

    for failure in outcome.failures[:20]:
        print(f"FAIL {failure}")
    for name, (value, unit) in {**outcome.metrics, **outcome.extra, **rates}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"host": host}))

    procs.OUT.mkdir(parents=True, exist_ok=True)
    stem = procs.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "attempted": attempted, "failures": outcome.failures,
        "metrics": {**outcome.metrics, **outcome.extra, **rates},
    }, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in outcome.spans:
                fh.write(json.dumps(span) + "\n")

    correct = failed == 0 and bool(outcome.metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
