"""Command-line behaviour: output schemas, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ringprob import cli
from ringprob.cli import main
from ringprob.corpus import fixture_path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProb:
    def test_z6_zero(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--ring", "Z6", "--x", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "ring": "Z6", "size": 6, "x": "0",
            "hits": 15, "total": 36,
            "fraction": "5/12", "decimal": "0.416666666667",
        }

    def test_methods_agree(self, capsys):
        values = {}
        for method in ("auto", "brute", "annsum", "formula"):
            code, out, _ = run_cli(capsys, "prob", "--ring", "Z8", "--x", "2",
                                   "--method", method)
            assert code == 0
            payload = json.loads(out)
            values[method] = (payload["hits"], payload["total"])
        assert len(set(values.values())) == 1

    def test_explain_names_the_formula(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--ring", "Z8", "--x", "2",
                               "--method", "formula", "--explain")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "chain"
        assert payload["hypotheses"]["q"] == 2
        assert payload["hypotheses"]["n"] == 3

    @pytest.mark.parametrize("ring, x, method, expected", [
        ("Z8", "2", "formula", ("chain", "recipe")),
        ("M2(GF4) x Z3", "#0", "auto", ("product", "recipe")),
        ("table:<fixture> x Z3", "(#5,1)", "auto", ("unit", "structure report")),
        ("table:<fixture>", "#5", "formula", ("unit", "structure report")),
        ("Z8", "2", "brute", ("brute", "enumeration")),
        ("Z8", "2", "annsum", ("annsum", "enumeration")),
        ("table:<fixture>", "#0", "auto", ("annsum", "enumeration")),
    ])
    def test_explain_names_the_source(self, capsys, ring, x, method, expected):
        """A closed form names its ring's invariants' source, an
        enumeration (either engine, or the auto fallback) "enumeration"."""
        ring = ring.replace("<fixture>", fixture_path())
        code, out, _ = run_cli(capsys, "prob", "--ring", ring, "--x", x,
                               "--method", method, "--explain")
        assert code == 0
        payload = json.loads(out)
        assert (payload["method"], payload["source"]) == expected
        code, plain, _ = run_cli(capsys, "prob", "--ring", ring, "--x", x, "--method", method)
        assert code == 0
        assert plain == json.dumps({k: v for k, v in payload.items()
                                    if k not in ("method", "source", "hypotheses")}) + "\n"

    def test_matrix_element_literal(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--ring", "M2(GF2)",
                               "--x", "[[1,1],[1,1]]")
        assert code == 0
        payload = json.loads(out)
        assert (payload["hits"], payload["total"]) == (18, 256)

    def test_formula_method_unavailable_is_usage_error(self, capsys):
        # the upper-triangular table ring is indecomposable, not local and
        # has J != 0, so its non-units have no closed form
        code, _, err = run_cli(capsys, "prob", "--ring", f"table:{fixture_path()}",
                               "--x", "#0", "--method", "formula")
        assert code == 2
        assert "no closed form" in err

    def test_composite_zn_formula_is_answered_by_crt(self, capsys):
        values = {}
        for method in ("formula", "brute"):
            code, out, _ = run_cli(capsys, "prob", "--ring", "Z6", "--x", "2",
                                   "--method", method)
            assert code == 0
            payload = json.loads(out)
            values[method] = (payload["hits"], payload["total"])
        assert values["formula"] == values["brute"] == (6, 36)

    def test_non_prime_power_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "prob", "--ring", "GF6", "--x", "0")
        assert code == 2
        assert "prime power" in err

    @pytest.mark.parametrize("spec", ["GF512", "M1(GF512)", "chain(512,1)", "GR(2,1,9)"])
    def test_extension_degree_above_8_is_usage_error(self, capsys, spec):
        # 512 = 2^9: the degree is past finfield.MAX_EXTENSION_DEGREE
        code, _, err = run_cli(capsys, "prob", "--ring", spec, "--x", "0")
        assert code == 2
        assert err == "error: degree 9 outside [1, 8]\n"

    def test_size_cap_refusal(self, capsys):
        code, _, err = run_cli(capsys, "prob", "--ring", "Z5000", "--x", "3")
        assert code == 3
        assert "cap" in err
        assert err == ("error: ring has 5000 elements, above the cap of 4096 "
                       "(use --force / cap=None to override)\n")

    def test_force_lifts_cap(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--ring", "Z4200", "--x", "0",
                               "--method", "brute", "--force")
        assert code == 0
        assert json.loads(out)["total"] == 4200 ** 2


class TestSpectrum:
    def test_csv_m2f2(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--ring", "M2(GF2)",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "label,representative,class_size,hits,total,fraction,decimal"
        assert len(lines) == 4
        hit_counts = sorted(int(line.split(",")[-4]) for line in lines[1:])
        assert hit_counts == [6, 18, 58]

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--ring", "Z4",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["ring"] == "Z4" and payload["size"] == 4
        assert {c["label"] for c in payload["classes"]} == {"zero", "unit", "J^1"}
        zero = next(c for c in payload["classes"] if c["label"] == "zero")
        assert (zero["hits"], zero["total"], zero["fraction"]) == (8, 16, "1/2")

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--ring", "GF3")
        assert code == 0
        assert "spectrum of GF3" in out
        assert "5/9" in out


class TestStructure:
    def test_gr222_report(self, capsys):
        code, out, _ = run_cli(capsys, "structure", "--ring", "GR(2,2,2)")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "size": 16, "units": 12, "zero_divisors": 4,
            "radical_chain_sizes": [4, 1], "nilpotency_index": 2,
            "is_local": True, "q": 4, "n": 2,
            "is_max_chain": True, "is_j2_zero": True,
        }

    def test_non_local_nulls(self, capsys):
        code, out, _ = run_cli(capsys, "structure", "--ring", "Z6")
        payload = json.loads(out)
        assert payload["is_local"] is False
        assert payload["q"] is None and payload["n"] is None


class TestVerify:
    def test_single_suite_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm46")
        assert code == 0
        assert "maximal-chain closed form" in out
        assert "SKIP M2(GF2)" in out.replace("  ", " ").replace("   ", " ") or "M2(GF2)" in out
        assert "summary:" in out

    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "suite,case,status,detail,expected,actual"
        assert not any(",FAIL," in line for line in lines)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma25",
                               "--format", "json")
        payload = json.loads(out)
        assert payload[0]["suite"] == "lemma25"
        cases = {c["case"]: c["status"] for c in payload[0]["cases"]}
        assert cases["Z6"] == "PASS"
        assert cases["Z8"] == "SKIP"

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "lemma24")
        _, second, _ = run_cli(capsys, "verify", "--suite", "lemma24")
        assert first == second

    def test_custom_corpus(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(["Z4", "Z9"]))
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm48",
                               "--corpus", str(path))
        assert code == 0
        assert "Z4" in out and "Z9" in out

    def test_default_json_is_pinned(self, capsys):
        """The bytes CI's installed-package step checks with sha256sum -c."""
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        pin = Path(__file__).resolve().parent / "data" / "verify_default.sha256"
        assert hashlib.sha256(out.encode()).hexdigest() == pin.read_text().split()[0]

    def test_pool_json_is_pinned(self, capsys, monkeypatch):
        """The default corpus plus every alternative of the benchmark's
        verify-corpus pool; its table fixture is named from the repository
        root, which is the working directory here."""
        data = Path(__file__).resolve().parent / "data"
        monkeypatch.chdir(data.parent.parent)
        code, out, _ = run_cli(capsys, "verify", "--format", "json",
                               "--corpus", "tests/data/verify_pool.json")
        assert code == 0
        pin = data / "verify_pool.sha256"
        assert hashlib.sha256(out.encode()).hexdigest() == pin.read_text().split()[0]

    def test_unknown_suite_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "lemma99")
        assert code == 2 and out == ""
        assert err.startswith("error: unknown suite 'lemma99' (known: lemma21, ")
        assert "Traceback" not in err

    def test_custom_corpus_size_cap(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(["Z5000"]))
        code, _, err = run_cli(capsys, "verify", "--corpus", str(path))
        assert code == 3

    def test_force_does_not_lift_the_enumeration_limit(self, tmp_path):
        """Every suite enumerates each corpus ring, so a ring above
        ENUMERATION_LIMIT is refused at load; its own process and a
        timeout, since lemma21 would otherwise scan it for hours."""
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(["Z2", "Z70000"]))
        proc = subprocess.run(
            [sys.executable, "-m", "ringprob.cli", "verify", "--corpus", str(path), "--force"],
            capture_output=True, text=True, timeout=20, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 3 and proc.stdout == ""
        assert "above the enumeration limit of 65536" in proc.stderr


class TestExitOnFailure:
    def test_verification_failure_exits_1(self, capsys, monkeypatch):
        import ringprob.verify as verify
        from ringprob.verify import CaseResult, SuiteResult

        def doomed(suite_ids, corpus):
            return [SuiteResult(suite="thm46", description="stub", cases=[
                CaseResult("thm46", "Z4", "FAIL", "forced", "1/4", "1/8")])]

        monkeypatch.setattr(verify, "run_suites", doomed)
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm46")
        assert code == 1
        assert "expected: 1/4" in out and "actual:   1/8" in out


class TestMalformedInput:
    """Bad files and huge specs end in a documented exit code, not exit 1."""

    @pytest.mark.parametrize("add", [5, [[0, 1], [1, "0"]]],
                             ids=["add-not-a-table", "non-integer-entry"])
    def test_malformed_table_json_is_usage_error(self, capsys, tmp_path, add):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"size": 2, "one": 1, "add": add,
                                    "mul": [[0, 0], [0, 1]]}))
        code, _, err = run_cli(capsys, "prob", "--ring", f"table:{path}", "--x", "0")
        assert code == 2
        assert "list of lists of ints" in err

    @pytest.mark.parametrize("content", [None, "[\"Z4\",", "\udcff"],
                             ids=["missing", "bad-json", "not-utf8"])
    def test_unreadable_corpus_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "corpus.json"
        if content is not None:
            path.write_bytes(content.encode("utf-8", "surrogateescape"))
        code, _, err = run_cli(capsys, "verify", "--corpus", str(path))
        assert code == 2
        assert "cannot read corpus file" in err

    @pytest.mark.parametrize("content", [None, "{\"size\": 2,", "\udcff"],
                             ids=["missing", "bad-json", "not-utf8"])
    def test_unreadable_table_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "ring.json"
        if content is not None:
            path.write_bytes(content.encode("utf-8", "surrogateescape"))
        code, _, err = run_cli(capsys, "prob", "--ring", f"table:{path}", "--x", "0")
        assert code == 2
        assert "cannot load table ring" in err

    def test_empty_corpus_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("[]")
        code, out, err = run_cli(capsys, "verify", "--corpus", str(path))
        assert code == 2
        assert out == ""
        assert "lists no ring specs" in err

    def test_bad_corpus_entry_is_named(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(["Z4", "Q7"]))
        code, out, err = run_cli(capsys, "verify", "--corpus", str(path))
        assert code == 2
        assert out == ""
        assert err == ("error: corpus entry 2 ('Q7'): expected a ring atom "
                       "(Z, GF, M, chain, GR, triv, table:) (at position 0)\n")

    def test_size_past_int_str_limit_hits_size_cap(self, capsys):
        # |M300(GF2)| = 2^90000 has more decimal digits than str() allows
        code, _, err = run_cli(capsys, "structure", "--ring", "M300(GF2)")
        assert code == 3
        assert "cap" in err
        assert "2^90000" in err

    def test_huge_prime_field_hits_size_cap(self, capsys):
        code, _, err = run_cli(capsys, "prob", "--ring", "GF1000000007", "--x", "0")
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize("spec, bits", [
        ("M1000000(GF2)", 10 ** 12),
        ("chain(2,1000000000000)", 10 ** 12),
        ("GR(2,1000000,1000000)", 10 ** 12),
        ("triv(3,1000000000000)", 10 ** 12 + 1),
        ("Z6 x M1000000(GF2)", 10 ** 12 + 2),
    ])
    def test_huge_order_is_refused_before_it_is_built(self, spec, bits):
        """The order is bounded from the spec's integers, so neither run
        builds the ring: exit 3 under the cap, exit 2 with --force.  Each
        runs in its own process with a timeout, since building such a ring
        grows memory without bound."""
        env = dict(os.environ, PYTHONPATH=SRC)
        for extra, code, text in (([], 3, f"at least 2^{bits} elements, above the cap"),
                                  (["--force"], 2, "even with the size cap lifted")):
            proc = subprocess.run(
                [sys.executable, "-m", "ringprob.cli", "structure", "--ring", spec, *extra],
                capture_output=True, text=True, timeout=20, env=env)
            assert proc.returncode == code
            assert proc.stdout == ""
            assert text in proc.stderr

    def test_hard_limit_is_the_exact_order(self, capsys):
        # 2^4095 elements is answered under --force by a closed form;
        # 2^4096 is refused
        code, out, _ = run_cli(capsys, "prob", "--ring", "Z2 x M5(GF2) x chain(2,4069)",
                               "--x", "#0", "--method", "formula", "--force")
        assert code == 0
        assert json.loads(out)["size"] == 2 ** 4095
        code, out, err = run_cli(capsys, "prob", "--ring", "Z2 x M5(GF2) x chain(2,4070)",
                                 "--x", "#0", "--method", "formula", "--force")
        assert code == 2 and out == ""
        assert err == ("error: ring has at least 2^4096 elements; specs of 2^4096 "
                       "elements or more are refused even with the size cap lifted\n")

    @pytest.mark.parametrize("spec", ["GF1000000000000000003", "Z1000000000000000003"])
    def test_large_prime_order_is_answered(self, spec):
        """A 60-bit prime order is recognised at once, so the closed form
        answers; each run has its own process and a timeout, since trial
        division would run for minutes."""
        q = 1000000000000000003
        proc = subprocess.run(
            [sys.executable, "-m", "ringprob.cli", "prob", "--ring", spec, "--x", "0", "--force"],
            capture_output=True, text=True, timeout=20, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert (payload["hits"], payload["total"]) == (2 * q - 1, q * q)

    def test_large_semiprime_order(self):
        """Z_n with n = (10^9+7)(10^9+9): the order splits by Pollard's rho,
        so a unit answers with the unit formula, 0 with the product of the
        two fields' closed forms, and brute enumeration reaches the limit
        at once; trial division would run to 10^9."""
        p, q = 10 ** 9 + 7, 10 ** 9 + 9
        n = p * q
        env = dict(os.environ, PYTHONPATH=SRC)
        argv = [sys.executable, "-m", "ringprob.cli", "prob", "--ring", f"Z{n}", "--force"]
        proc = subprocess.run([*argv, "--x", "1", "--explain"],
                              capture_output=True, text=True, timeout=20, env=env)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        units = (10 ** 9 + 6) * (10 ** 9 + 8)
        assert (payload["method"], payload["hits"], payload["total"]) == ("unit", units, n * n)
        proc = subprocess.run([*argv, "--x", "0", "--explain"],
                              capture_output=True, text=True, timeout=20, env=env)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["method"] == "product"
        assert Fraction(payload["hits"], payload["total"]) == \
            Fraction((2 * p - 1) * (2 * q - 1), n * n)
        proc = subprocess.run([*argv, "--x", "0", "--method", "brute"],
                              capture_output=True, text=True, timeout=20, env=env)
        assert proc.returncode == 3 and proc.stdout == ""
        assert "above the enumeration limit" in proc.stderr

    def test_large_prime_square_field_is_answered(self):
        """GF(p^2) with p = 10^9+7: the order splits by an integer square
        root and the modulus is found by Rabin's test, so the closed form
        answers; trial division and a divisor scan would each run to p."""
        q = (10 ** 9 + 7) ** 2
        proc = subprocess.run(
            [sys.executable, "-m", "ringprob.cli", "prob", "--ring", f"GF{q}", "--x", "0",
             "--method", "formula", "--force"],
            capture_output=True, text=True, timeout=20, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert (payload["hits"], payload["total"]) == (2 * q - 1, q * q)

    @pytest.mark.parametrize("argv, size", [
        (["spectrum", "--ring", "M20(GF2)"], 2 ** 400),
        (["prob", "--ring", "Z100000000", "--x", "0", "--method", "brute"], 10 ** 8),
    ])
    def test_force_does_not_lift_the_enumeration_limit(self, argv, size):
        """Enumeration above ENUMERATION_LIMIT exits 3 before any work
        starts, --force or not; each run has its own process and a
        timeout, since the enumeration would overflow or run for days."""
        proc = subprocess.run(
            [sys.executable, "-m", "ringprob.cli", *argv, "--force"],
            capture_output=True, text=True, timeout=20, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == (f"error: ring has {size} elements, above the enumeration limit "
                               f"of 65536, which --force / cap=None does not lift\n")

    def test_closed_form_answers_above_the_enumeration_limit(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--ring", "M20(GF2)", "--x", "#0",
                               "--method", "formula", "--force")
        assert code == 0
        assert json.loads(out)["size"] == 2 ** 400

    @pytest.mark.parametrize("spec, x, size", [
        ("M20(GF2)", "#0", 2 ** 400),
        ("GF65537", "0", 65537),
        ("M2(GF3721)", "[[1,2],[3,4]]", 3721 ** 4),
    ])
    def test_formula_needs_no_force(self, capsys, spec, x, size):
        """A closed form enumerates nothing, so --method formula is held to
        the spec's order limit only; the other methods keep the cap."""
        code, out, _ = run_cli(capsys, "prob", "--ring", spec, "--x", x, "--method", "formula")
        assert code == 0
        assert json.loads(out)["size"] == size
        code, out, err = run_cli(capsys, "prob", "--ring", spec, "--x", x)
        assert code == 3 and out == ""
        assert "above the cap of 4096" in err
        code, out, err = run_cli(capsys, "prob", "--ring", "Z2 x M5(GF2) x chain(2,4070)",
                                 "--x", "#0", "--method", "formula")
        assert code == 2 and out == ""
        assert "refused even with the size cap lifted" in err

    def test_overlong_integer_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "structure", "--ring", "Z" + "7" * 5000)
        assert code == 2 and out == ""
        assert err == "error: integer too long (at position 0)\n"


class TestInternalError:
    def test_unexpected_exception_exits_4_without_traceback(self, capsys, monkeypatch):
        def boom(ring):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "structure_report", boom)
        code, out, err = run_cli(capsys, "structure", "--ring", "Z4")
        assert code == 4
        assert out == ""
        assert err == "error: internal error: RuntimeError: boom\n"


class TestUsage:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["prob", "--ring", "Z4"])  # --x is required
        assert exc.value.code == 2
