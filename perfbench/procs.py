"""Child processes with their own wall time and peak memory."""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

# A run must end within three minutes: children still running this long
# after the run started are killed (and counted as failures), which leaves
# time for the checks that follow.
RUN_LIMIT_S = 150.0


@dataclass
class Finished:
    exit: int | None        # None when the child was killed at the timeout
    out: str
    err: str
    wall_s: float
    maxrss_mb: float


def run(argv: list[str], env: dict[str, str], timeout: float) -> Finished:
    """Run argv from the checkout root, drain both pipes, and reap the child
    with wait4 so that its own rusage (peak RSS) is known."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            deadline = start + timeout
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Finished(
        exit=None if timed_out else proc.returncode,
        out=b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
        err=b"".join(chunks[proc.stderr]).decode("utf-8", "replace"),
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


class Launcher:
    """Starts children with the sources on PYTHONPATH, each bounded by the
    time left until the run's limit."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def run(self, argv: list[str]) -> Finished:
        return run(argv, self.env, self.deadline - time.perf_counter())
