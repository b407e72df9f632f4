import ast
import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfforge import catalog
from hopfforge.cli import SUBCOMMANDS, main, run
from hopfforge.lantern import GradedLieAlgebra

from oracles import verify_lie

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"


def test_signature_builtin(capsys):
    code = run(["signature", "--builtin", "B:1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(1^2, 2)" in out
    assert "truncation 6" in out


def test_antipode_order_builtin(capsys):
    code = run(["antipode-order", "--builtin", "B:1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "infinite; witness S^2(Z) = Z - Y" in out


def test_antipode_order_identity(capsys):
    code = run(["antipode-order", "--builtin", "U:heisenberg"])
    out = capsys.readouterr().out
    assert code == 0
    assert "identity" in out


def test_verify_good_file(capsys):
    code = run(["verify", str(DATA / "b_lambda.hopf")])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: pass" in out


def test_verify_bad_file_exit_3(capsys):
    code = run(["verify", str(DATA / "bad_overlap.hopf")])
    err = capsys.readouterr().err
    assert code == 3
    assert "overlap (Z,Y,X)" in err


def test_parse_failure_exit_2(capsys, tmp_path):
    bad = tmp_path / "broken.hopf"
    bad.write_text("gen X weight 1\n")
    assert run(["verify", str(bad)]) == 2
    assert "no algebra header" in capsys.readouterr().err
    assert run(["verify", str(tmp_path / "missing.hopf")]) == 2


@pytest.mark.parametrize("name,message", [
    ("not_utf8.hopf", "cannot read {}: not valid UTF-8 (byte 0xe9 at offset 30)"),
    ("parse_error.hopf", "parse error: line 5, column 15: expected a nonzero "
                         "integer denominator"),
    ("stray_identity_leg.hopf", "bad definition: coproduct of X has a stray "
                                "identity leg in 1@Y"),
], ids=["not UTF-8", "parse error", "stray identity leg"])
def test_unreadable_file_exit_2(capsys, name, message):
    path = str(DATA / "unparsable" / name)
    assert run(["verify", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message.format(path) + "\n"


@pytest.mark.parametrize("command", ["report", "nakayama"])
def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path, command):
    original = (DATA / "b_lambda.hopf").read_bytes()
    marked, twice = tmp_path / "marked.hopf", tmp_path / "twice.hopf"
    marked.write_bytes(b"\xef\xbb\xbf" + original)
    results = []
    for path in (DATA / "b_lambda.hopf", marked):
        code = run([command, str(path), "--format", "json"])
        results.append((code, capsys.readouterr().out))
    assert results[0] == results[1] and results[0][0] == 0
    # only one mark is skipped: a second is a character of the text
    twice.write_bytes(b"\xef\xbb\xbf" * 2 + original)
    assert run([command, str(twice)]) == 2
    assert capsys.readouterr().err == \
        "parse error: line 1, column 1: unexpected character '\\ufeff'\n"


_REPEATED_RELS = ("hopf A\ngen X weight 1\ngen Y weight 1\n"
                  "rel [Y,X] = Y\nrel [Y,X] = 0\n")


@pytest.mark.parametrize("text,message", [
    # the last line of each kind used to win, certifying [Y,X] = 0
    (_REPEATED_RELS + "coprod X = 1@X + X@1\ncoprod Y = 1@Y + Y@1 + 3@1\n"
     "coprod Y = 1@Y + Y@1\nantipode X = -X\nantipode Y = -Y\n"
     "antipode Y = -Y\n",
     "parse error: line 8, column 8: duplicate coprod line for 'Y'"),
    (_REPEATED_RELS + "coprod X = 1@X + X@1\ncoprod Y = 1@Y + Y@1\n",
     "bad definition: generator Y,X is given twice"),
], ids=["second coprod", "repeated rel"])
def test_duplicate_declarations_exit_2(text, message, capsys, tmp_path):
    path = tmp_path / "twice.hopf"
    path.write_text(text)
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert not captured.out


def test_coideal_subcommand_on_file(capsys):
    code = run(["coideal", str(DATA / "b_lambda.hopf")])
    out = capsys.readouterr().out
    assert code == 0
    assert "L_inf" in out and "R_inf" in out


def test_nakayama_subcommand(capsys):
    code = run(["nakayama", "--builtin", "B:1", "--sub", "R:inf"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Y -> Y, W -> W - Y" in out


def test_numerology_check_failure_exit_1(capsys):
    # the coideal signature (1^2, 3) violates the gap-free constraint
    code = run(["numerology", "--builtin", "E", "--sub", "T"])
    out = capsys.readouterr().out
    assert code == 1
    assert "no gaps" in out
    assert "result: FAIL" in out


def test_json_output_schema_and_determinism(capsys):
    run(["report", "--builtin", "B:1", "--format", "json"])
    first = capsys.readouterr().out
    run(["report", "--builtin", "B:1", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert list(payload) == ["algebra", "truncation", "checks", "data"]
    assert payload["algebra"] == "B(1)"
    assert payload["truncation"] == 6
    assert payload["data"]["signature"] == [[1, 2], [2, 1]]
    assert payload["data"]["hilbert"][:5] == [1, 2, 4, 6, 9]
    assert all(set(c) == {"name", "status", "details"}
               for c in payload["checks"])
    brackets = payload["data"]["lantern"]["brackets"]
    assert brackets == [["X", "Y", "Z", "1"]]


def test_json_rationals_as_strings(capsys):
    run(["lantern", "--builtin", "E", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["data"]["lantern"]["brackets"] == [
        ["X", "Y", "Z", "2"], ["X", "Z", "W", "-2"]]


def test_report_builtin_e(capsys):
    code = run(["report", "--builtin", "E"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(1^2, 2, 3)" in out


@pytest.mark.parametrize("argv", [
    ["report", "--builtin", "E"], ["report", str(DATA / "b_lambda.hopf")]],
    ids=["builtin-E", "b_lambda.hopf"])
def test_report_checks_the_lantern_once(monkeypatch, count_calls, capsys,
                                        argv):
    # certify afresh: the catalog's cached E was checked in an earlier test
    monkeypatch.setattr(catalog, "_e", catalog._e.__wrapped__)
    lantern = importlib.import_module("hopfforge.lantern")  # not the function
    layers = count_calls(lantern, "_carnot_layers")
    assert run(argv) == 0
    assert len(layers) == 1
    # the graded Lie lines hold by proof: no module can call verify_lie
    assert not [name for name, module in sys.modules.items()
                if name.partition(".")[0] == "hopfforge"
                and hasattr(module, "verify_lie")]


@pytest.mark.parametrize("source", [
    *[["--builtin", name] for name in (
        "B:0", "B:1", "B:-2", "B:1/2", "E",
        *[f"U:{p}" for p in catalog.ENVELOPING_PRESETS])],
    *[[str(path)] for path in (DATA / "b_lambda.hopf", *[
        ROOT / "bench" / "data" / name
        for name in ("b_half.hopf", "e_solved.hopf", "heisenberg.hopf")])]],
    ids=lambda source: source[-1].rsplit("/", 1)[-1])
def test_lantern_lines_by_proof_are_the_oracle_lines(source, capsys):
    # the graded Lie lines that lantern prints without computing them,
    # against verify_lie on the lantern it prints; verify_lie passes on
    # the same hosts' lanterns, O(U_5)'s and U(n_5)'s in test_hopf
    assert run(["lantern", *source, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    lan = out["data"]["lantern"]
    index = {label: i for i, label in enumerate(lan["labels"])}
    brackets = {}
    for a, b, e, c in lan["brackets"]:
        brackets.setdefault((index[a], index[b]), {})[index[e]] = Fraction(c)
    L = GradedLieAlgebra(tuple(lan["labels"]), tuple(lan["degrees"]),
                         brackets)
    assert out["checks"][-2:] == [
        {"name": c.name, "status": "pass" if c.passed else "fail",
         "details": c.details} for c in verify_lie(L).checks]


def test_unknown_builtin(capsys):
    assert run(["signature", "--builtin", "Q:1"]) == 2


@pytest.mark.parametrize("truncation", ["0", "1", "-3"])
def test_truncation_below_generator_weight_exit_2(capsys, truncation):
    # B(1) has a generator of weight 2, so the filtration certificate
    # would be vacuous below order 2
    for source in (["--builtin", "B:1"], [str(DATA / "b_lambda.hopf")]):
        code = run(["verify", *source, "--truncation", truncation])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert f"truncation {truncation} is below" in err
        assert "needs truncation >= 2" in err


def test_huge_truncation_exit_2(capsys):
    code = run(["verify", "--builtin", "B:1",
                "--truncation", "99999999999999999999"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "--truncation 99999999999999999999 is too large\n"


@pytest.mark.parametrize("builtin,sub", [
    ("B:1", "g_inf:junk"), ("E", "T:junk"), ("B:1", "L:"), ("B:1", "R:"),
    ("B:1", "L"), ("B:1", "g_alpha:"), ("B:1", "g_alpha"), ("B:1", "T"),
    ("E", "L:inf"), ("U:heisenberg", "T"), ("B:1", "g_inf:")])
def test_undocumented_builtin_sub_exit_2(capsys, builtin, sub):
    assert run(["verify", "--builtin", builtin, "--sub", sub]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"has no subalgebra {sub!r}" in err


@pytest.mark.parametrize("preset", ["U:abelian0", "U:abelian-2"])
def test_abelian_preset_without_generators_exit_2(capsys, preset):
    assert run(["verify", "--builtin", preset]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "at least one generator" in err


@pytest.mark.parametrize("preset", ["U:abelian4", "U:abelian99999"])
def test_abelian_preset_above_three_generators_exit_2(capsys, monkeypatch,
                                                      preset):
    def build_enveloping(*args):
        raise AssertionError(f"{preset} reached build_enveloping")
    monkeypatch.setattr(catalog, "build_enveloping", build_enveloping)
    assert run(["verify", "--builtin", preset]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "at most 3 generators" in err


def test_truncation_flag(capsys):
    code = run(["signature", "--builtin", "B:1", "--truncation", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "truncation 5" in out


def test_report_sub_numerology_is_informational(capsys):
    # report reflects certificate failures only: the coideal T fails the
    # gap-free numerology, which a proper coideal may legitimately do
    code = run(["report", "--builtin", "E", "--sub", "T", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    status = {c["name"]: c["status"] for c in payload["checks"]}
    assert status["no gaps"] == "info"
    assert "fail" not in status.values()
    assert run(["report", "--builtin", "E", "--sub", "T"]) == 0
    out = capsys.readouterr().out
    assert "  info no gaps" in out
    assert "result: pass" in out


def test_nakayama_unknown_chi_generator_exit_2(capsys):
    code = run(["nakayama", "--builtin", "B:1", "--sub", "R:inf",
                "--chi", "Q=1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "bad --chi 'Q=1': unknown generator 'Q'\n"


def test_nakayama_repeated_chi_generator_exit_2(capsys):
    # Y=5 breaks a relation of R_inf and Y=0 kills them all: neither wins
    code = run(["nakayama", "--builtin", "B:1", "--sub", "R:inf",
                "--chi", "Y=5,Y=0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "bad --chi 'Y=5,Y=0': generator Y is given twice\n"


def test_nakayama_character_that_breaks_a_relation_exit_1(capsys):
    code = run(["nakayama", "--builtin", "B:1", "--sub", "L:0",
                "--chi", "X=1,Y=1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("character does not kill the relations:\n"
                            "[FAIL] character on L_0\n"
                            "  FAIL kills [X,Y]: value 1\n")


def test_sub_heavier_than_cutoff_exit_3(capsys, tmp_path):
    # the weight test runs before the coradical degree, which would
    # otherwise expand iterated coproducts of X^3000*Y up to order 3001
    host = (DATA / "b_lambda.hopf").read_text().split("# rank-2 left")[0]
    heavy = tmp_path / "heavy.hopf"
    heavy.write_text(host + "sub A_heavy side hopf {\n  gen A weight 3001\n"
                     "  embed A = X^3000*Y\n}\n")
    assert run(["verify", str(heavy)]) == 3
    assert "exceeds the certification cutoff" in capsys.readouterr().err


_REFUSED_SUBS = {
    "failing overlap": (
        "sub T side hopf {\n  gen X weight 1\n  gen Y weight 1\n"
        "  gen Z weight 2\n  rel [Y,X] = -Y\n  rel [Z,X] = -Z + Y\n"
        "  rel [Z,Y] = Y^2 + X\n  embed X = X\n  embed Y = Y\n"
        "  embed Z = Z\n}\n",
        "sub T: T: subalgebra presentation is not confluent/terminating: "
        "overlap (Z,Y,X)"),
    "entry as heavy as its pair": (
        "sub T side left {\n  gen Y weight 1\n  gen Z weight 2\n"
        "  rel [Z,Y] = Y*Z\n  embed Y = Y\n  embed Z = Z\n}\n",
        "sub T: T: subalgebra presentation is not confluent/terminating: "
        "[Z,Y]"),
    "embeds to zero": ("sub T side left {\n  gen Y weight 1\n"
                       "  embed Y = 0\n}\n",
                       "sub T: T: generator Y embeds to zero"),
    "side fails": (
        "sub L_inf side right {\n  gen Y weight 1\n  gen Z weight 2\n"
        "  rel [Z,Y] = 1/2*Y^2\n  embed Y = Y\n  embed Z = Z\n}\n",
        "sub L_inf: L_inf: declared side 'right' fails: right legs of "
        "coproduct(Z) lie in the span (offending term (X)@Y)"),
}


@pytest.mark.parametrize("name", _REFUSED_SUBS)
def test_refused_sub_exit_3(capsys, tmp_path, name):
    block, message = _REFUSED_SUBS[name]
    host = (DATA / "b_lambda.hopf").read_text().split("# rank-2 left")[0]
    path = tmp_path / "refused.hopf"
    path.write_text(host + block)
    assert run(["verify", str(path)]) == 3
    assert capsys.readouterr() == ("", message + "\n")


def test_sub_with_dependent_leading_symbols_exit_3(capsys, tmp_path):
    # A = X1, B = X1^2 + X2: dependent leading symbols X1, X1^2
    path = tmp_path / "dependent.hopf"
    path.write_text("hopf U_abelian2\ngen X1 weight 1\ngen X2 weight 1\n"
                    "coprod X1 = 1@X1 + X1@1\ncoprod X2 = 1@X2 + X2@1\n"
                    "sub T side hopf {\n  gen A weight 1\n  gen B weight 2\n"
                    "  embed A = X1\n  embed B = X1^2 + X2\n}\n")
    assert run(["verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("sub T: T: leading symbols")
    assert "not certified independent" in captured.err


def test_coideal_primitive_of_a_generator_with_a_counit(capsys, tmp_path):
    # A = X + 1 embeds with counit 1; the primitive in T is A - 1 = X
    host = (Path(__file__).parents[1] / "bench" / "data"
            / "heisenberg.hopf").read_text()
    path = tmp_path / "counit.hopf"
    path.write_text(host + "sub T side hopf {\n  gen A weight 1\n"
                    "  embed A = X + 1\n}\n")
    assert run(["coideal", str(path), "--format", "json"]) == 0
    subs = json.loads(capsys.readouterr().out)["data"]["subalgebras"]
    assert [s["primitive"] for s in subs] == ["X"]


def test_builtin_session_shows_catalog_certification(capsys):
    code = run(["verify", "--builtin", "B:1", "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 0
    filtration = [c for c in checks if c["name"] == "filtration"]
    assert [c["status"] for c in filtration] == ["pass"]
    assert "to order 6" in filtration[0]["details"]
    assert all(c["name"] != "certification" for c in checks)


def test_verify_negative_control_exit_3(capsys, tmp_path):
    path = tmp_path / "negative_control.hopf"
    path.write_text("hopf negative_control\n"
                    "gen X weight 1\ngen Y weight 1\ngen Z weight 2\n"
                    "coprod X = 1@X + X@1\ncoprod Y = 1@Y + Y@1\n"
                    "coprod Z = 1@Z + X@Y + Y@X + Z@1\n")
    assert run(["verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert "filtration" in err
    assert "primitive leading symbol of weight 2" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--builtin", "B:1"],
    ["report", "--builtin", "B:1"],
    ["verify", str(DATA / "b_lambda.hopf")],
    ["report", str(DATA / "b_lambda.hopf"), "--sub", "L_inf"],
    # several subs: each numerology verdict names its sub
    ["report", str(DATA / "b_lambda.hopf")],
])
def test_each_check_listed_once(capsys, argv):
    assert run(argv + ["--format", "json"]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert "antipode axiom on Z" in names
    assert len(names) == len(set(names))


def test_fifth_e_parameter_exit_2(capsys):
    assert run(["verify", "--builtin", "E:1,1,0,0,9"]) == 2
    err = capsys.readouterr().err
    assert err == ("bad builtin 'E:1,1,0,0,9': E takes at most 4 parameters "
                   "a,b,l1,l2, got 5\n")


@pytest.mark.parametrize("argv,message", [
    (["verify", "--builtin", "B:1/0"], "bad builtin 'B:1/0'"),
    (["verify", "--builtin", "E:1/0"], "bad builtin 'E:1/0'"),
    (["verify", "--builtin", "E:1,2,1/0"], "bad builtin 'E:1,2,1/0'"),
    (["coideal", "--builtin", "B:1", "--sub", "g_alpha:1/0"],
     "bad subalgebra 'g_alpha:1/0'"),
    (["coideal", "--builtin", "B:1", "--sub", "R:1/0"],
     "bad subalgebra 'R:1/0'"),
    (["coideal", "--builtin", "B:1", "--sub", "L:1/0"],
     "bad subalgebra 'L:1/0'"),
    (["nakayama", "--builtin", "B:1", "--sub", "R:inf", "--chi", "X=1/0"],
     "bad --chi 'X=1/0'"),
])
def test_zero_denominator_exit_2(capsys, argv, message):
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"{message}: zero denominator in '1/0'\n"


def _cli(argv, stdout):
    """hopfforge in a fresh interpreter, its output sent to stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-m", "hopfforge.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_closed_output_pipe_exits_quietly():
    # like `hopfforge report --builtin E | head -5`, with the reader gone
    # before the first write, so the write always meets a broken pipe
    proc = _cli(["report", "--builtin", "E"], subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_write_error_is_one_line():
    with open("/dev/full", "w") as full:
        proc = _cli(["verify", "--builtin", "B:1"], full)
        err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert err == "cannot write output: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_write_error_is_one_line():
    # argparse itself drops errors writing help; the CLI must not
    with open("/dev/full", "w") as full:
        proc = _cli(["--help"], full)
        err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert err == "cannot write output: No space left on device\n"


class _RecordedStream(io.TextIOWrapper):
    """A text stream that records every write it is asked for."""

    def write(self, text):
        self.written.append(text)
        return super().write(text)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stderr_exits_one(monkeypatch):
    # `hopfforge verify --builtin Q 2>/dev/full`: the error line cannot be
    # written, and the handler must not write to stderr again
    err = _RecordedStream(open("/dev/full", "wb"), line_buffering=True)
    err.written = []
    monkeypatch.setattr(sys, "argv", ["hopfforge", "verify", "--builtin", "Q"])
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    monkeypatch.setattr(sys, "stderr", err)
    try:
        with pytest.raises(SystemExit) as stop:
            main()
        # the pending line goes to devnull, not to a flush that fails at exit
        assert os.path.samestat(os.fstat(err.fileno()), os.stat(os.devnull))
    finally:
        err.close()
    assert stop.value.code == 1
    text = "".join(err.written)
    assert text.startswith("unknown builtin 'Q'") and text.count("\n") == 1
    assert sys.stdout.getvalue() == ""


# Fuzzed command lines: every one must end in a documented exit code with
# no traceback.  Sizes stay small: truncation <= 8, abelian presets <= 4.
_rational = st.sampled_from(["0", "1", "-2", "1/2", "-2/3", "3", "1/0", "x",
                             ""])
_builtin = st.one_of(
    st.builds(lambda r: f"B:{r}", _rational),
    st.just("B"), st.just("E"),
    st.lists(_rational, min_size=1, max_size=5).map(
        lambda ps: "E:" + ",".join(ps)),
    st.builds(lambda p: f"U:{p}", st.sampled_from(
        ["heisenberg", "nonabelian2", "abelian0", "abelian-1", "abelian1",
         "abelian2", "abelian3", "abelian4", "abelianx", "nope", ""])),
    st.sampled_from(["Q:1", "", ":", "B:1:2"]))
_sub = st.one_of(st.none(), st.sampled_from(
    ["L:inf", "R:inf", "L:1/2", "R:-2", "L:0", "g_alpha:3", "g_alpha:x",
     "g_inf", "T", "L:x", "R:1/0", "nope", ""]))
_chi = st.one_of(st.none(), st.sampled_from(
    ["eps", "auto", "X=1", "Y=1/2", "X=1,Y=0", "W=2", "Q=1", "X=", "X=a",
     "X=1/0", ","]))
_truncation = st.one_of(st.none(), st.integers(-2, 8).map(str),
                        st.just("x"))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SUBCOMMANDS), _builtin, _sub, _chi, _truncation,
       st.sampled_from(["text", "json"]))
def test_cli_fuzz_ends_in_a_documented_exit_code(command, builtin, sub, chi,
                                                 truncation, fmt):
    argv = [command, "--builtin", builtin, "--format", fmt]
    for flag, value in (("--sub", sub), ("--chi", chi),
                        ("--truncation", truncation)):
        if value is not None:
            argv += [flag, value]
    captured = io.StringIO()
    with redirect_stdout(captured), redirect_stderr(captured):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in captured.getvalue(), argv


def test_defaulted_parameters_ratchet():
    """Defaulted parameters are options: their number may only go down.
    A change that removes one lowers the pin; one that adds one fails."""
    src = Path(__file__).parent.parent / "src" / "hopfforge"
    count = 0
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    assert count <= 28


# Each command in a fresh interpreter: the exit code, whether dataclasses
# was loaded before hopfforge and after the run, and the hopfforge modules.
_LOADED = """
import json, sys
before = "dataclasses" in sys.modules
from hopfforge import cli
code = cli.run(sys.argv[1:])
sys.stderr.write(json.dumps([code, before, "dataclasses" in sys.modules,
                             [m for m in sys.modules if m[:10] == "hopfforge."]]))
"""


@pytest.mark.parametrize("argv,loaded,absent", [
    (["verify", "--builtin", "B:1"], {"catalog"},
     {"coideal", "nakayama", "parser"}),
    (["coideal", "--builtin", "B:1", "--sub", "R:inf"], {"catalog", "coideal"},
     {"parser", "nakayama"}),
    (["verify", "{host}"], {"parser"}, {"catalog", "coideal", "nakayama"}),
    (["nakayama", "--builtin", "B:1", "--sub", "R:inf"], {"nakayama"},
     {"parser"}),
], ids=["verify builtin", "coideal builtin sub", "verify file", "nakayama"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, loaded, absent):
    host = tmp_path / "host.hopf"
    host.write_text("hopf A\ngen X weight 1\ncoprod X = 1@X + X@1\n")
    argv = [a.format(host=host) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, before, after, modules = json.loads(proc.stderr.splitlines()[-1])
    names = {m.split(".")[1] for m in modules}
    assert code == 0
    assert loaded <= names and not absent & names
    assert before or not after


# The hopfforge source a fresh interpreter loads for `import hopfforge.cli`.
_SOURCE_LINES = """
import sys
from hopfforge import cli
sys.stderr.write(str(sum(
    len(open(module.__file__, encoding="utf-8").read().splitlines())
    for name, module in sorted(sys.modules.items())
    if name.partition(".")[0] == "hopfforge")))
"""


def test_cold_start_source_ratchet():
    """Without bytecode written (PYTHONDONTWRITEBYTECODE), every CLI start
    compiles the modules `import hopfforge.cli` loads from source, so their
    line count may only go down: a change that lowers it lowers the pin."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _SOURCE_LINES], env=env,
                          capture_output=True, text=True, timeout=120)
    assert int(proc.stderr.splitlines()[-1]) <= 2592


def test_no_module_imports_dataclasses():
    # a dataclass generates and compiles its methods at import
    for path in sorted((SRC / "hopfforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, path.name


# the public names of the package, by defining module; None: submodules
_API = {
    None: ("algebra", "coideal", "grading", "hopf", "linalg", "nakayama",
           "order", "report", "tensor"),
    "algebra": ("Element", "Presentation", "PresentationMismatchError",
                "check_confluence", "check_termination_weights", "commutator"),
    "coideal": ("RegistrationError", "SubalgebraSpec", "antipode_image",
                "coideal_check", "containment_check", "full_subalgebra",
                "is_hopf_subalgebra", "primitive_of_coideal",
                "register_subalgebra", "spans_equal"),
    "grading": ("FiltrationCertificate", "FiltrationError", "PowerSeries",
                "Signature", "certify", "certify_filtration",
                "hilbert_divides", "hilbert_series", "signature"),
    "hopf": ("AntipodeSolveError", "CertificateMissingError",
             "HopfAlgebraError", "PresentedHopfAlgebra", "solve_antipode",
             "verify_bialgebra", "verify_hopf"),
    "lantern": ("GradedLieAlgebra", "lantern", "mobius", "numerology_report"),
    "nakayama": ("Character", "GeneratorAutomorphism", "character",
                 "compose_with_antipode", "counit_character",
                 "enveloping_integral_character", "nakayama_automorphism",
                 "s4_identity_check", "verify_character", "winding"),
    "order": ("SquaredAntipodeAnalysis", "s_squared_analysis"),
    "report": ("Check", "Report"),
    "tensor": ("TensorElement", "contract", "tensor_multiply",
               "tensor_product"),
}


def test_public_api_is_pinned():
    import hopfforge
    import hopfforge.cli  # loads the lantern submodule after the package
    assert len(hopfforge.__all__) == 63
    assert hopfforge.__all__ == sorted(n for names in _API.values()
                                       for n in names)
    for module, names in _API.items():
        for name in names:
            home = importlib.import_module(f"hopfforge.{module or name}")
            expected = home if module is None else getattr(home, name)
            assert getattr(hopfforge, name) is expected, name
    assert callable(hopfforge.lantern)
    namespace = {}
    exec("from hopfforge import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {n: getattr(hopfforge, n) for n in hopfforge.__all__}


@pytest.mark.parametrize("text,message", [
    ("hopf =\ngen X weight 1\ncoprod X = 1@X + X@1\n",
     "parse error: line 1, column 6: expected a name, found '='"),
    ("hopf A\ngen * weight 1\ncoprod X = 1@X + X@1\n",
     "parse error: line 2, column 5: expected a name, found '*'"),
], ids=["algebra", "generator"])
def test_names_that_are_not_identifiers_exit_2(text, message, capsys,
                                               tmp_path):
    # "hopf =" used to certify an algebra named "=", and "gen *" to fail
    # only at the last line, with "missing coproduct lines for: *"
    path = tmp_path / "named.hopf"
    path.write_text(text)
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert not captured.out
