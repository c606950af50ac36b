"""Traced twin of one CLI process, run in a fresh interpreter.

    python3 perfbench/child.py cli REQUEST_JSON
    python3 perfbench/child.py verify CORPUS_PATH

Imports `ringprob.cli` (span `cli.import`), builds the fields the ring
needs (`finfield.field`), then runs `ringprob.cli.main` in-process with
every layer traced (span `cli.main`).  For `verify`, the structure report
of every corpus ring is computed as soon as the corpus is built, so that
the suite spans exclude it.  Prints one JSON object: exit code, captured
output, spans and their per-span summary.
"""

from __future__ import annotations

import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer, instrument, summarize  # noqa: E402


def _primed(tracer: Tracer, build_corpus, report):
    def corpus_then_structure(*args, **kwargs):
        corpus = build_corpus(*args, **kwargs)
        with tracer.span("bench.prime"):
            for _, ring in corpus:
                report(ring)
        return corpus
    return corpus_then_structure


def main(mode: str, arg: str) -> dict:
    tracer = Tracer()
    if mode == "cli":
        request = json.loads(arg)
        tracer.request = request.get("id")
        argv, fields = request["argv"], request["fields"]
    else:
        argv, fields = ["verify", "--format", "json", "--corpus", arg], []
    start = time.perf_counter()
    import ringprob.cli as cli
    tracer.add("cli.import", start, time.perf_counter())

    out, err = io.StringIO(), io.StringIO()
    with instrument(tracer):
        import ringprob.finfield as finfield
        import ringprob.structure as structure
        for q in fields:
            finfield.galois_field_of_order(q)
        if mode == "verify":
            cli.corpus_from_file = _primed(tracer, cli.corpus_from_file,
                                           structure.structure_report)
        with tracer.span("cli.main"), redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = 1
    return {"exit": code, "out": out.getvalue(), "err": err.getvalue(),
            "spans": tracer.spans, "records": summarize(tracer.spans)}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2])))
