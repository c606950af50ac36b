"""The README's "Command line" and "Library" examples, run in process, with
the outputs the README states for them."""

import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from ringprob.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(heading: str, lang: str) -> list[str]:
    """Lines of the first ```lang block after the heading."""
    section = README[README.index(heading):]
    start = section.index(f"```{lang}\n") + len(lang) + 4
    return section[start:section.index("```", start)].splitlines()


COMMANDS = [line.split("#")[0].strip() for line in code_block("## Command line", "sh")
            if line.startswith("ringprob ")]
LIBRARY = code_block("## Library", "python")


def check_z6_zero(out):
    assert json.loads(out) == {"ring": "Z6", "size": 6, "x": "0", "hits": 15, "total": 36,
                               "fraction": "5/12", "decimal": "0.416666666667"}


def check_z8_explain(out):
    payload = json.loads(out)
    assert (payload["method"], payload["source"]) == ("chain", "recipe")
    assert {"q": 2, "n": 3, "layer": 1}.items() <= payload["hypotheses"].items()


def check_m2f2_spectrum(out):
    rows = csv.DictReader(io.StringIO(out))
    assert {row["label"]: (int(row["hits"]), int(row["total"])) for row in rows} == {
        "rank 2": (6, 256), "rank 1": (18, 256), "zero": (58, 256)}


def check_gr222_structure(out):
    payload = json.loads(out)
    assert (payload["size"], payload["units"], payload["is_local"], payload["q"],
            payload["n"]) == (16, 12, True, 4, 2)


# every README command whose output the README states, and that output
STATED = {
    "ringprob prob --ring Z6 --x 0": check_z6_zero,
    "ringprob prob --ring Z8 --x 2 --method formula --explain": check_z8_explain,
    'ringprob spectrum --ring "M2(GF2)" --format csv': check_m2f2_spectrum,
    'ringprob structure --ring "GR(2,2,2)"': check_gr222_structure,
}


def test_stated_commands_are_in_the_readme():
    assert set(STATED) <= set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_line_example(capsys, command):
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0, command
    if command in STATED:
        STATED[command](out)


def test_library_example():
    """Assignments and imports run as written; each expression line is
    evaluated and compared with the value its comment states."""
    namespace, values = {}, {}
    for line in LIBRARY:
        code = line.split("#")[0].strip()
        if code.startswith(("from ", "import ")) or " = " in code:
            exec(code, namespace)
        elif code:
            values[code] = eval(code, namespace)
    assert values.keys() == {"str(prob_brute(ring, 0))",
                             "prob_auto(ring, ring.encode((0, 0, 1)))",
                             "structure_report(ring).is_max_chain"}
    assert values["str(prob_brute(ring, 0))"] == "5/16"
    result = values["prob_auto(ring, ring.encode((0, 0, 1)))"]
    assert (result.formula, result.applicability["layer"]) == ("chain", 2)
    assert values["structure_report(ring).is_max_chain"] is True
