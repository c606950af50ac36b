"""engine-warm worker: one long-lived library process.

    python3 perfbench/engine.py SEED WORKER SECONDS PASSES TRACE TINY

Set-up imports the library, builds the seeded rings (each field first) and
warms each ring with one prob_auto call.  Then it runs whole passes of the
seeded call stream: for SECONDS when PASSES is 0, else exactly PASSES.
The answers are checked after the stream ends.  Prints one JSON object.
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
from spans import Tracer, instrument, summarize  # noqa: E402

# (ring, target) pairs per ring re-run through all three engines after the stream.
AGREEMENT_SAMPLE = 2


def main(seed: int, worker: int, seconds: float, passes: int, trace: bool, tiny: bool) -> dict:
    start = time.perf_counter()
    import ringprob.closedform as closedform
    import ringprob.finfield as finfield
    import ringprob.probability as probability
    import ringprob.specparse as specparse
    from checks import check_engine
    imported = time.perf_counter()

    tracer = Tracer() if trace else None
    with instrument(tracer) if trace else nullcontext():
        if tracer:
            tracer.request = "setup"
        picked = inputs.engine_rings(seed, tiny)
        rings = []
        for spec, _ in picked:
            for q in inputs.fields_of(spec):
                finfield.galois_field_of_order(q)
            rings.append(specparse.parse_ring_spec(spec))
        for ring in rings:
            closedform.prob_auto(ring, ring.one_index, cap=None)
        setup_s = time.perf_counter() - start

        strata = [stratum for _, stratum in picked]
        latencies, pass_walls, results = [], [], []
        stream_start = time.perf_counter()
        pass_no = 0
        while (pass_no < passes) if passes else (time.perf_counter() - stream_start < seconds):
            calls = inputs.engine_calls(seed, worker, pass_no, strata)
            pass_start = time.perf_counter()
            for number, (kind, pos, x, a) in enumerate(calls):
                if tracer:
                    tracer.request = f"{pass_no}.{number}"
                ring = rings[pos]
                t0 = time.perf_counter()
                if kind == "auto":
                    answer = closedform.prob_auto(ring, x, cap=None)
                elif kind == "brute":
                    answer = probability.prob_brute(ring, x, cap=None)
                elif kind == "annsum":
                    answer = probability.prob_annsum(ring, x, cap=None)
                elif kind == "delta":
                    answer = probability.delta(ring.element(a), ring.element(x))
                else:
                    answer = probability.spectrum(ring, cap=None)
                latencies.append((time.perf_counter() - t0) * 1e3)
                results.append((kind, pos, x, a, answer))
            pass_walls.append(time.perf_counter() - pass_start)
            pass_no += 1
        stream_s = time.perf_counter() - stream_start

    autos = sorted({(pos, x) for kind, pos, x, _, _ in results if kind == "auto"})
    rng = random.Random(f"{seed}/engine-warm/{worker}/sample")
    sample = set()
    for pos in range(len(rings)):
        mine = [pair for pair in autos if pair[0] == pos]
        sample.update(rng.sample(mine, min(AGREEMENT_SAMPLE, len(mine))))
    failures = check_engine(rings, results, sample)

    report = {
        "import_s": imported - start,
        "setup_s": setup_s,
        "stream_s": stream_s,
        "latencies_ms": latencies,
        "pass_walls_s": pass_walls,
        "calls": len(results),
        "checked": len(results) + len(sample),
        "failures": failures,
    }
    if tracer:
        report["spans"] = tracer.spans
        report["records"] = summarize(tracer.spans)
    return report


if __name__ == "__main__":
    seed, worker, seconds, passes, trace, tiny = sys.argv[1:7]
    print(json.dumps(main(int(seed), int(worker), float(seconds), int(passes),
                          trace == "1", tiny == "1")))
