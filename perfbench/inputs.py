"""Seeded inputs for the three workloads.

The program under test only ever sees what this module generates: ring
spec strings, `#i` element targets, corpus files and the order of
requests and calls.  The same seed always gives the same inputs.

Every pool below is a list of strata.  A stratum fixes the kind of ring,
its size and which requests it receives; the seed picks one of the
stratum's alternatives (spec strings of equal size and near-equal cost,
including the two factor orders of a product), the element targets and
the order of the requests.  So the seed changes the inputs, while the
amount of work in a pass, and hence every end-to-end figure, does not
depend on it.

Why each workload exists, and what it should not move:

* cli-cold -- what a command-line user pays.  Every request is its own
  `python -m ringprob.cli` process, so each pays interpreter start,
  import, spec parse, ring construction and (except `--method brute`)
  `structure_report` from scratch; `rings` and `structure` do most of the
  work and the probability engines almost none.  A change to the engines
  or to the closed forms should not move it.  Sizes run about
  log-uniformly from 64 to 1024 elements; the largest band holds only
  `Z_n` rings, because a 1024-element chain, Galois or product ring costs
  7-8 s to build and would swamp a pass.  `Z100`, `Z360` and `Z1000` stay
  in the pool with non-unit targets so that the closed-form gap on
  non-local `Z_n` (`prob --method formula` refuses with exit 2) stays
  visible.
* engine-warm -- one long-lived library process.  Construction and
  structure are paid once in set-up and then cached, so `probability` and
  `closedform` do the work.  A faster ring build should move only its
  `setup_s`, never its `ops_per_s`; a cache change shows here because many
  calls share each ring.
* verify-corpus -- `ringprob verify` over the default corpus plus seeded
  recipe rings.  It reads add tables as well as mul rows, builds quotient
  rings in `lemma26` and runs radical and ideal closures, so a lazy-table
  or cache change that helps cli-cold but costs here shows.  A change to
  `prob_auto` dispatch should not move it.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

# The one table ring the repository ships, addressed from the checkout
# root, which is the working directory of every process the benchmark runs.
FIXTURE = "src/ringprob/data/upper_triangular_f2.json"

# Command kinds of cli-cold requests.
AUTO, FORMULA, BRUTE, SPECTRUM, STRUCTURE = "auto", "formula", "brute", "spectrum", "structure"


@dataclass(frozen=True)
class Stratum:
    size: int
    alternatives: tuple[str, ...]
    kinds: tuple[str, ...] = ()
    # Targets are multiples of this step: a step sharing a factor with n
    # makes every target of Z_n a non-unit.
    target_step: int = 1


def _both_orders(a: str, b: str) -> tuple[str, str]:
    return (f"{a} x {b}", f"{b} x {a}")


_TABLE = f"table:{FIXTURE}"

# cli-cold: one pass sends every listed kind of request to one seeded
# member of every stratum (41 requests).
CLI_POOL = (
    Stratum(64, ("chain(4,3)", "chain(8,2)"), (AUTO, FORMULA)),
    Stratum(64, ("GR(2,3,2)", "GR(2,2,3)"), (SPECTRUM, STRUCTURE)),
    Stratum(64, ("triv(4,2)", "triv(2,5)"), (AUTO, BRUTE)),
    Stratum(64, _both_orders(_TABLE, "Z8"), (AUTO, STRUCTURE)),
    Stratum(64, ("GF64",), (FORMULA, SPECTRUM)),
    Stratum(64, ("Z64",), (BRUTE,)),
    Stratum(81, ("M2(GF3)",), (AUTO, SPECTRUM)),
    Stratum(100, ("Z100",), (FORMULA, AUTO), target_step=10),
    Stratum(128, ("Z128",), (STRUCTURE, BRUTE)),
    Stratum(128, ("GF128",), (AUTO,)),
    Stratum(128, ("chain(2,7)",), (STRUCTURE,)),
    Stratum(128, _both_orders("Z8", "M2(GF2)"), (FORMULA, BRUTE)),
    Stratum(256, ("M2(GF4)",), (FORMULA, SPECTRUM, BRUTE)),
    Stratum(256, ("Z256",), (AUTO,)),
    Stratum(256, ("chain(2,8)",), (AUTO,)),
    Stratum(256, ("GR(2,4,2)",), (FORMULA,)),
    Stratum(256, ("triv(4,3)",), (SPECTRUM,)),
    Stratum(256, _both_orders("chain(2,3)", "GF32"), (STRUCTURE,)),
    Stratum(360, ("Z360",), (AUTO, FORMULA), target_step=6),
    Stratum(512, ("M3(GF2)",), (AUTO, FORMULA)),
    Stratum(512, ("Z512",), (STRUCTURE, SPECTRUM)),
    Stratum(625, ("Z625",), (BRUTE,)),
    Stratum(1000, ("Z1000",), (FORMULA, AUTO, SPECTRUM), target_step=10),
    Stratum(1024, ("Z1024",), (STRUCTURE, BRUTE)),
)

# engine-warm: eight rings, one per closed form plus two non-local Z_n
# whose targets are all non-units, so that every prob_auto call on them
# falls back to the annihilator-sum engine.  The number of fallbacks is
# then the same for every seed, and the 90th percentile lies inside the
# cluster of enumerations over the largest rings.
ENGINE_POOL = (
    Stratum(1000, ("Z1000",), target_step=10),
    Stratum(1024, ("Z1024",)),
    Stratum(512, ("M3(GF2)",)),
    Stratum(256, ("M2(GF4)",)),
    Stratum(256, ("GR(2,4,2)",)),
    Stratum(256, ("triv(4,3)",)),
    Stratum(64, _both_orders("Z8", "GF8")),
    Stratum(360, ("Z360",), target_step=6),
)

# Calls per ring in one engine-warm pass.  prob_auto dominates, so the
# median call is a closed-form hit and the 99th percentile an
# enumeration over one of the largest rings.
ENGINE_MIX = (("auto", 30), ("brute", 2), ("annsum", 2), ("delta", 4), ("spectrum", 1))

# verify-corpus: the default corpus (27 recipe specs and the table
# fixture) plus one seeded member of each stratum, 64 to 625 elements.
DEFAULT_CORPUS = (
    "Z2", "Z3", "Z4", "Z6", "Z8", "Z9", "Z12", "Z27",
    "GF2", "GF3", "GF4", "GF9",
    "chain(2,2)", "chain(2,3)", "chain(3,2)", "chain(3,3)",
    "GR(2,2,2)",
    "M1(GF2)", "M2(GF2)", "M2(GF3)", "M3(GF2)",
    "triv(2,1)", "triv(2,2)", "triv(2,3)", "triv(3,2)",
    "Z2 x Z4", "Z2 x M2(GF2)",
    _TABLE,
)
VERIFY_EXTRA = (
    Stratum(64, ("chain(4,3)", "chain(8,2)")),
    Stratum(64, ("GR(2,3,2)", "GR(2,2,3)")),
    Stratum(64, ("triv(4,2)", "triv(2,5)")),
    Stratum(64, _both_orders("Z8", "GF8")),
    Stratum(81, ("GR(3,2,2)",)),
    Stratum(125, ("chain(5,3)",)),
    Stratum(192, _both_orders("Z3", "Z64")),
    Stratum(243, ("Z243",)),
    Stratum(256, ("M2(GF4)",)),
    Stratum(256, ("triv(4,3)",)),
    Stratum(625, ("Z625",)),
    Stratum(625, ("M2(GF5)",)),
)

# Pools small enough for the smoke check: same kinds, a few elements each.
TINY_CLI_POOL = (
    Stratum(4, ("chain(2,2)",), (AUTO, FORMULA)),
    Stratum(6, ("Z6",), (FORMULA, AUTO), target_step=2),
    Stratum(8, ("GF8",), (SPECTRUM, BRUTE)),
    Stratum(16, _both_orders(_TABLE, "Z2"), (STRUCTURE,)),
)
TINY_ENGINE_POOL = (
    Stratum(6, ("Z6",), target_step=2),
    Stratum(8, ("M1(GF8)",)),
    Stratum(12, _both_orders("Z3", "GF4")),
)
TINY_VERIFY_EXTRA = (Stratum(8, ("chain(2,3)", "triv(2,2)")),)


def _rng(seed: int, *labels) -> random.Random:
    return random.Random("/".join(str(part) for part in (seed, *labels)))


def fields_of(spec: str) -> list[int]:
    """Orders q of the finite fields a ring spec is built over."""
    found = re.findall(r"GF(\d+)|chain\((\d+),|triv\((\d+),", spec)
    return sorted({int(next(g for g in groups if g)) for groups in found})


def pick_rings(pool, seed: int, label: str) -> list[tuple[str, Stratum]]:
    rng = _rng(seed, label, "rings")
    return [(rng.choice(s.alternatives), s) for s in pool]


def _target(rng: random.Random, stratum: Stratum) -> str:
    return f"#{rng.randrange(0, stratum.size, stratum.target_step)}"


def cli_requests(seed: int, pass_no: int, tiny: bool = False) -> list[dict]:
    """One pass of cli-cold requests: every (ring, kind) of the pool once,
    in seeded order and with seeded targets."""
    pool = TINY_CLI_POOL if tiny else CLI_POOL
    rng = _rng(seed, "cli-cold", pass_no)
    requests = []
    for spec, stratum in pick_rings(pool, seed, "cli-cold"):
        for kind in stratum.kinds:
            if kind == STRUCTURE:
                argv = ["structure", "--ring", spec]
            elif kind == SPECTRUM:
                argv = ["spectrum", "--ring", spec, "--format", "json"]
            else:
                argv = ["prob", "--ring", spec, "--x", _target(rng, stratum), "--method", kind]
                if kind == FORMULA:
                    argv.append("--explain")
            requests.append({"kind": kind, "spec": spec, "argv": argv,
                             "fields": fields_of(spec)})
    rng.shuffle(requests)
    return requests


def engine_rings(seed: int, tiny: bool = False) -> list[tuple[str, Stratum]]:
    return pick_rings(TINY_ENGINE_POOL if tiny else ENGINE_POOL, seed, "engine-warm")


def engine_calls(seed: int, worker: int, pass_no: int, strata: list[Stratum]) -> list[tuple]:
    """One pass of engine-warm calls over one ring per stratum:
    (kind, ring position, target index, left factor index or None)."""
    rng = _rng(seed, "engine-warm", worker, pass_no)
    calls = []
    for pos, stratum in enumerate(strata):
        for kind, count in ENGINE_MIX:
            for _ in range(count):
                a = rng.randrange(stratum.size) if kind == "delta" else None
                calls.append((kind, pos, rng.randrange(0, stratum.size, stratum.target_step), a))
    rng.shuffle(calls)
    return calls


def verify_corpus(seed: int, tiny: bool = False) -> list[str]:
    extra = TINY_VERIFY_EXTRA if tiny else VERIFY_EXTRA
    specs = list(DEFAULT_CORPUS) + [spec for spec, _ in pick_rings(extra, seed, "verify-corpus")]
    _rng(seed, "verify-corpus", "order").shuffle(specs)
    return specs


def write_corpus(path: Path, specs: list[str]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(specs) + "\n", encoding="utf-8")
    return path
