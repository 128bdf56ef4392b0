"""Command-line frontend: routing, JSON round-trips, exit codes."""
import argparse
import ast
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import idemod
from idemod import arith
from idemod.arith import build_modulus
from idemod.cli import _COMMANDS, _GLOBAL_FLAGS, _build_parser, _parse, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    return json.loads(out)


def test_tower_reference(capsys):
    code, out, _ = run(capsys, "tower", "100", "42", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "56"
    assert "|42|_100 = 20" in lines
    assert "42^20 = 76 (mod 100)" in lines


def test_idempotents_json(capsys):
    doc = run_json(capsys, "idempotents", "12")
    assert doc == {"m": 12, "idempotents": [1, 4, 9, 12]}


def test_sets_sorted_comma_separated(capsys):
    code, out, _ = run(capsys, "sets", "12", "--regular")
    assert code == 0
    assert out.splitlines()[0] == "regular: 1,3,4,5,7,8,9,11,12"


def test_solve_unsolvable_is_exit_zero(capsys):
    code, out, _ = run(capsys, "solve", "12", "2", "5")
    assert code == 0
    assert "solvable: False" in out


def test_negative_residues_canonicalized(capsys):
    doc = run_json(capsys, "order", "12", "-7")
    assert doc["a"] == 5


# One query per command, each as perfbench sends it once "--json" is added.
ONE_PER_COMMAND = [
    ("modinfo", "360"),
    ("idempotents", "60"),
    ("order", "12", "5"),
    ("classify", "12", "2"),
    ("sets", "12"),
    ("orbit", "12", "5"),
    ("solve", "12", "2", "4"),
    ("omega", "12", "5"),
    ("gproots", "12"),
    ("counts", "12", "1", "2"),
    ("classify-fn", "phi", "30"),
    ("algebra", "12"),
    ("idemop", "12", "circ", "4", "9"),
    ("quadratic", "12", "5"),
    ("sqrt", "45", "10"),
    ("tower", "100", "42", "100"),
    ("audit", "2..12", "--theorems", "in02"),
]


# The text each ONE_PER_COMMAND query prints, byte for byte.
TEXT_OUTPUT = {
    "modinfo": "m = 360 = 2^3 * 3^2 * 5\nphi = 96\npsi = 12\nomega = 3\n"
               "square_free = False\nweakly_even = False\nbarely_even = False\n",
    "idempotents": "1,16,21,25,36,40,45,60\n",
    "order": "|5|_12 = 2\nidempotent class: 1\n",
    "classify": "a = 2 (mod 12)\nnormal = True\nregular = False\norder = 2\n"
                "idem_class = 4\nmu = 3\ndelta = 2\n",
    "sets": "regular: 1,3,4,5,7,8,9,11,12\nnormal: 1,2,3,4,5,7,8,9,11,12\n",
    "orbit": "1,5\n",
    "solve": "x^2 = 4 (mod 12)\nsolutions: 2,4,8,10\nregular solutions: 4,8\n"
             "solvable: True\ncriterion verdict: True\n",
    "omega": "omega_12(5) = 2\nmaximizers: 5\nind_sup = 1\n",
    "gproots": "3,5,7,8,11,12\n",
    "counts": "r_12^1(2) = 3\nrho_12^1(2) = 4\norbit union size = 4 (formula: 6)\n"
              "rho closed form = 4\n",
    "classify-fn": "phi on 1..30:\nmultiplicative = True\nquasimultiplicative = False\n"
                   "division-invariant = True\ndivision-invariant on prime powers = True\n"
                   "counterexample [QM]: (3, 4, 4, 2)\n",
    "algebra": "mixing-product: ok\nmixing-power: ok\nclosure: ok\ncirc-group: ok\n"
               "circ-translation-injective: ok\notimes-ring: ok\nidentity-catalog: ok\n"
               "otimes-nary: ok\nbasis-map: ok\nall laws: ok\n",
    "idemop": "12\n",
    "quadratic": "x^2 = 5x (mod 12)\nsolutions: 5,8,9,12\n",
    "sqrt": "regular roots of x^2 = 10 (mod 45): 10,35\ncount = 2 (formula: 2)\n"
            "product = 35 (formula: 35)\n",
    "tower": "56\n|42|_100 = 20\n|2|_20 = 4\n|2|_4 = 2\n|2|_2 = 1\n42^20 = 76 (mod 100)\n",
}


def test_text_output_is_pinned(capsys):
    """Text mode builds its lines only when it prints them, and prints what
    it always has."""
    for argv in ONE_PER_COMMAND:
        if argv[0] != "audit":
            assert run(capsys, *argv) == (0, TEXT_OUTPUT[argv[0]], ""), argv


def test_json_round_trips(capsys):
    for argv in ONE_PER_COMMAND:
        doc = run_json(capsys, *argv)
        assert json.loads(json.dumps(doc)) == doc


def test_text_and_json_agree_on_numbers(capsys):
    doc = run_json(capsys, "order", "12", "5")
    code, out, _ = run(capsys, "order", "12", "5")
    assert code == 0
    assert str(doc["order"]) in out and str(doc["idem_class"]) in out


def test_bad_input_exits_2(capsys):
    assert run(capsys, "sqrt", "12", "4")[0] == 2  # even modulus
    assert run(capsys, "idemop", "12", "circ", "5", "9")[0] == 2
    assert run(capsys, "audit", "abc")[0] == 2
    assert run(capsys, "audit", "2..10", "--theorems", "nope")[0] == 2


def test_nonpositive_k_and_n_are_named(capsys):
    """counts rejects an order k < 1 and classify-fn a bound n < 1 by name,
    not as an invalid modulus."""
    code, _, err = run(capsys, "counts", "12", "1", "0")
    assert code == 2 and "order k must be >= 1, got 0" in err
    code, _, err = run(capsys, "classify-fn", "phi", "0")
    assert code == 2 and "bound n must be >= 1, got 0" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "12"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [(), ("--regular",), ("--normal",)])
def test_sets_rejects_a_bad_class_before_the_cap(capsys, flags):
    """A class that is not idempotent is bad input, exit 2, under any cap."""
    code, out, err = run(capsys, "--max-enum", "10", "sets", "50", "--class", "7",
                         *flags)
    assert code == 2 and not out and "7 is not idempotent modulo 50" in err


def test_cap_exceeded_exits_3(capsys, enum_cap):
    enum_cap(1000000)
    code, _, err = run(capsys, "--max-enum", "10", "idempotents", "50")
    assert code == 3
    assert "modulus 50 exceeds enumeration cap 10" in err


def test_max_enum_override_allows_work(capsys, enum_cap):
    enum_cap(10)
    code, out, _ = run(capsys, "idempotents", "50", "--max-enum", "100")
    assert code == 0
    assert out.strip() == "1,25,26,50"


def test_audit_writes_report_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "audit", "2..12", "--theorems", "in02,fs05", "--out", str(out_file)
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["range"] == [2, 12]
    assert [t["id"] for t in doc["theorems"]] == ["in02", "fs05"]
    assert "in02: verified-on-range" in out


def test_audit_exit_zero_despite_findings(capsys):
    code, out, _ = run(capsys, "audit", "8..12", "--theorems", "fs05")
    assert code == 0
    assert "counterexamples" in out


def test_audit_runs_a_repeated_theorem_once(capsys):
    code, out, _ = run(capsys, "audit", "8..12", "--theorems", "fs05,in02,fs05")
    assert code == 0
    assert out.splitlines() == ["fs05: counterexamples (2 findings)",
                                "in02: verified-on-range"]


@pytest.mark.parametrize("theorems", ["", ","])
def test_audit_empty_theorem_selection_exits_2(capsys, theorems):
    code, out, err = run(capsys, "audit", "2..10", "--theorems", theorems)
    assert (code, out) == (2, "")
    assert "no theorem ids" in err


def test_audit_help_lists_the_registered_ids(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--theorems" in out and "rn11" in out and "fs05" in out


def test_audit_answers_through_the_command_table(capsys):
    argv = ["audit", "2..24", "--theorems", "fs05,rn17", "--json"]
    assert _parse(argv) is not None
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [t["id"] for t in doc["theorems"]] == ["fs05", "rn17"]
    assert all(t["findings"] for t in doc["theorems"])
    assert doc == idemod.run_audit(2, 24, ["fs05", "rn17"]).to_json()


_NO_AUDIT_ON_START = """\
import contextlib, io, sys
before = set(sys.modules)  # a site .pth file may have loaded some already
import idemod, idemod.cli
with contextlib.redirect_stdout(io.StringIO()):
    idemod.cli.main(["modinfo", "1"])
assert "idemod.audit" not in sys.modules, "a query start imported the audit"
for name in ("dataclasses", "inspect", "argparse"):
    assert name in before or name not in sys.modules, f"a query start imported {name}"
assert "idemod.oracle" in sys.modules, "the oracle layer is not loaded"
assert callable(idemod.run_audit) and "rn11" in idemod.THEOREMS
assert "run_audit" in idemod.__all__
names = {}
exec("from idemod import *", names)
assert names["run_audit"] is idemod.run_audit
"""


def test_a_query_start_imports_no_audit():
    """`import idemod` and a CLI query leave audit.py, dataclasses, inspect
    and argparse unloaded; the audit names still resolve, from the package
    and through `import *`."""
    res = subprocess.run([sys.executable, "-c", _NO_AUDIT_ON_START],
                         env=_src_env(), capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["modinfo", "12", "--jsn"], 2),
    (["--jsn", "modinfo", "12"], 2),
])
def test_a_fresh_start_prints_the_parsers_help_and_errors(monkeypatch, argv, code):
    """A new `idemod` process, which imports argparse only when the command
    table cannot read argv, prints what the full parser prints."""
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help to
    res = subprocess.run([sys.executable, "-m", "idemod.cli", *argv],
                         env=_src_env(), capture_output=True, text=True,
                         timeout=60)
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    assert exc.value.code == code
    assert (res.returncode, res.stdout, res.stderr) == (code, out.getvalue(),
                                                        err.getvalue())


def test_orbit_beyond_the_cap_exits_3_fast(capsys):
    """|2| mod 1000003 is 1000002: the orbit itself counts against the cap,
    while small orbits of the same modulus still answer."""
    t0 = time.perf_counter()
    code, _, err = run(capsys, "--max-enum", "1000", "orbit", "1000003", "2")
    assert time.perf_counter() - t0 < 0.5
    assert code == 3 and "1000002 orbit elements exceed enumeration cap 1000" in err
    doc = run_json(capsys, "--max-enum", "1000", "orbit", "1000003", "1000002")
    assert doc["orbit"] == [1, 1000002]


def test_classify_fn_beyond_the_cap_exits_3():
    """classify-fn tabulates f on 1..n, so an n above the cap is refused at
    once instead of running until it is killed."""
    res = subprocess.run(
        [sys.executable, "-m", "idemod.cli", "classify-fn", "phi", "1000000000000"],
        env=_src_env(), capture_output=True, text=True, timeout=20,
    )
    assert res.returncode == 3 and "cap" in res.stderr, res.stderr


def test_a_query_start_imports_no_typing():
    """With no site module, which may import typing itself, loading the CLI
    leaves typing unloaded: the package's annotations are never evaluated
    and Callable comes from collections.abc."""
    code = "import sys, idemod.cli; sys.exit('typing' in sys.modules)"
    res = subprocess.run([sys.executable, "-S", "-c", code], env=_src_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr or "a query start imported typing"


def test_no_private_name_crosses_between_modules():
    """No module of the package imports another's private name: what one
    module serves the others is named without a leading underscore."""
    package = Path(idemod.__file__).resolve().parent
    crossing = [
        f"{path.name}: from .{node.module} import {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names if alias.name.startswith("_")
    ]
    assert not crossing, crossing


@pytest.mark.parametrize("argv", [
    ("gproots", "50"),
    ("idempotents", "50"),
    ("omega", "50", "3"),
    ("sets", "50", "--class", "1", "--regular"),
])
def test_a_held_answer_does_not_lift_the_cap(capsys, argv):
    """The library checks the cap on every call, so a query answered once
    is refused under a lower cap all the same, as in a fresh process."""
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, "--max-enum", "10", *argv)
    assert code == 3 and not out and "cap" in err


def test_counts_answer_past_the_cap(capsys):
    """counts reads no table, so no cap refuses it: r, rho and the union
    size of the units of order 6 modulo 2^61 - 1 under a cap of 10."""
    doc = run_json(capsys, "--max-enum", "10", "counts", str(2**61 - 1), "1", "6")
    assert (doc["r"], doc["rho"], doc["union_size"]) == (2, 6, 6)


def test_solve_is_refused_only_past_the_cap_in_roots(capsys):
    """x^3 = 8 has 3 roots modulo 2^61 - 1, and x^6 = 64 has 6."""
    p = str(2**61 - 1)
    doc = run_json(capsys, "--max-enum", "5", "solve", p, "3", "8")
    assert doc["solutions"] == [2, 1033321771269002679, 1272521237944691270]
    code, out, err = run(capsys, "--max-enum", "5", "solve", p, "6", "64")
    assert code == 3 and not out
    assert err.strip() == "error: 6 roots exceed enumeration cap 5"


def test_max_enum_does_not_outlive_the_call(capsys):
    assert run(capsys, "--max-enum", "10", "idempotents", "50")[0] == 3
    code, out, _ = run(capsys, "idempotents", "50")
    assert code == 0
    assert out.strip() == "1,25,26,50"


def test_the_environment_cap_is_read_once_per_process():
    """IDEM_MAX_ENUM is read when idemod loads: it refuses a query in a
    fresh process, and a later change to the environment does not move the
    cap, while --max-enum still does for one call."""
    code = ("import os, sys; from idemod.cli import main; "
            "os.environ['IDEM_MAX_ENUM'] = '1000'; "
            "sys.exit(10 * main(['omega', '2557', '7']) "
            "+ main(['--max-enum', '3000', 'omega', '2557', '7']))")
    res = subprocess.run([sys.executable, "-c", code],
                         env=dict(_src_env(), IDEM_MAX_ENUM="10"),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 30, res.stderr
    assert "modulus 2557 exceeds enumeration cap 10" in res.stderr


def test_an_invalid_environment_cap_refuses_only_the_queries_that_read_it():
    """A non-integer IDEM_MAX_ENUM does not stop idemod from loading: a
    query that reads no cap answers, and one that reads it exits 2 with one
    error line that names the variable."""
    env = dict(_src_env(), IDEM_MAX_ENUM="abc")
    runs = [subprocess.run([sys.executable, "-m", "idemod.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=60)
            for argv in (["modinfo", "360"], ["idempotents", "360"])]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout.startswith("m = 360 = 2^3 * 3^2 * 5")
    assert runs[1].returncode == 2 and not runs[1].stdout
    assert runs[1].stderr == "error: invalid IDEM_MAX_ENUM 'abc': need an integer\n"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_a_non_positive_environment_cap_is_bad_input(cap):
    """A cap below 1 is refused like one that is not an integer: a query
    that reads the cap exits 2, not 3 as if 12 were past the cap, and one
    that reads none answers."""
    env = dict(_src_env(), IDEM_MAX_ENUM=cap)
    runs = [subprocess.run([sys.executable, "-m", "idemod.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=60)
            for argv in (["modinfo", "360"], ["gproots", "12"])]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout.startswith("m = 360 = 2^3 * 3^2 * 5")
    assert runs[1].returncode == 2 and not runs[1].stdout
    assert runs[1].stderr == (
        f"error: invalid IDEM_MAX_ENUM '{cap}': need a positive integer\n")


def test_modinfo_on_a_large_prime_square_needs_no_rho(capsys, monkeypatch):
    """(2^61 - 1)^2 is split by its exact square root; Pollard rho would need
    about 2^30 steps on it."""
    def no_rho(n):
        raise AssertionError(f"Pollard rho reached {n}")

    monkeypatch.setattr(arith, "_brent_rho", no_rho)
    doc = run_json(capsys, "modinfo", str((2**61 - 1) ** 2))
    assert doc["factors"] == [[2**61 - 1, 2]]


@pytest.mark.parametrize("argv", [
    ("omega", "3"),
    ("gproots",),
    ("sets",),
    ("sets", "--regular"),
    ("sets", "--normal"),
    ("sets", "--class", "1"),
])
def test_a_modulus_past_the_cap_is_refused_before_factoring(capsys, monkeypatch, argv):
    """The balanced 64-bit semiprime 4294967291 * 4294967279 is past the
    default cap, so each query exits 3 at the library's cap check, before
    the factorizer reaches Pollard rho."""
    def no_rho(n):
        raise AssertionError(f"Pollard rho reached {n}")

    monkeypatch.setattr(arith, "_brent_rho", no_rho)
    command, *rest = argv
    code, out, err = run(capsys, command, str(4294967291 * 4294967279), *rest)
    assert code == 3 and not out and "cap" in err


def _full_parse(argv):
    """The full parser's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return _build_parser().parse_args(argv)
        except SystemExit:
            return None


def test_parse_agrees_with_the_full_parser():
    """The command table reads canonical argv as the full parser does and
    leaves every other spelling to it."""
    samples = [
        (["modinfo", "360"], True),
        (["--json", "idempotents", "60"], True),
        (["order", "12", "-7", "--json"], False),
        (["--max-enum", "50", "classify", "12", "2"], True),
        (["sets", "12", "--regular", "--class", "4", "--max-enum=9"], False),
        (["orbit", "12", "5"], True),
        (["--json", "solve", "12", "2", "4", "--max-enum", "7"], True),
        (["omega", "12", "5"], True),
        (["gproots", "12", "--json"], True),
        (["counts", "12", "1", "2"], True),
        (["classify-fn", "phi", "30"], True),
        (["--max-enum=3", "algebra", "12"], False),
        (["idemop", "12", "circ", "4", "9"], True),
        (["idemop", "12", "complement", "4", "--json"], True),
        (["quadratic", "12", "5"], True),
        (["sqrt", "45", "10"], True),
        (["--json", "--max-enum", "8", "tower", "100", "42", "100"], True),
        (["audit", "2..12", "--theorems", "in02,fs05", "--out", "r.json"], True),
    ]
    for argv, canonical in samples:
        parsed = _parse(argv)
        assert (parsed is not None) == canonical, argv
        full = _full_parse(argv)
        assert full is not None
        assert parsed is None or vars(parsed) == vars(full), argv


_ODD_TOKENS = st.sampled_from(
    ["", "x", "1.5", " 7", "+4", "0x1f", "2..9", "-3", "-", "--", "-h",
     "--json", "circ", "phi", "modinfo"]
)


def _token(kwargs):
    if "choices" in kwargs:
        good = st.sampled_from(kwargs["choices"])
    elif kwargs.get("type") is int:
        good = st.integers(-2, 60).map(str)
    else:
        good = st.sampled_from(["phi", "2..9", "in02,fs05", "r.json", ""])
    return st.integers(0, 7).flatmap(lambda k: good if k else _ODD_TOKENS)


@st.composite
def _argv(draw):
    """An argv for one command: its positionals, one more or one fewer at
    times, and flags of the command or global ones, spelled out, as a
    prefix or in "=" form, placed before the command, between positionals
    or after them."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    flags = dict(_GLOBAL_FLAGS)
    positionals = []
    for names, kwargs in _COMMANDS[command][1]:
        if names[0].startswith("-"):
            flags[names[0]] = kwargs
        else:
            positionals.append(kwargs)
    count = len(positionals) + draw(st.sampled_from([0] * 6 + [-1, 1]))
    tokens = [[draw(_token(kwargs))] for kwargs in (positionals + [{}])[:count]]
    before = []
    for flag in draw(st.lists(st.sampled_from(list(flags)), max_size=4)):
        kwargs = flags[flag]
        spelling = draw(st.sampled_from([flag] * 6 + [flag[:4], flag[:-1]]))
        group = [spelling]
        if kwargs.get("action") != "store_true" or not draw(st.integers(0, 3)):
            value = draw(_token(kwargs))
            group = ([f"{spelling}={value}"] if draw(st.integers(0, 3)) == 0
                     else [spelling, value])
        where = draw(st.sampled_from([-1, len(tokens), len(tokens)]
                                     + list(range(len(tokens)))))
        if where < 0:
            before += group
        else:
            tokens.insert(where, group)
    return before + [command] + [t for group in tokens for t in group]


@given(argv=_argv())
@settings(max_examples=400, deadline=None)
def test_parse_agrees_with_the_full_parser_on_drawn_argv(argv):
    parsed = _parse(argv)
    assert parsed is None or vars(parsed) == vars(_full_parse(argv))


def test_queries_answer_without_argparse(capsys, monkeypatch):
    """A query in the form perfbench sends builds no argparse parser."""
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert {argv[0] for argv in ONE_PER_COMMAND} == set(_COMMANDS)
    for argv in ONE_PER_COMMAND:
        assert main([*argv, "--json"]) == 0, argv
        json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["modinfo", "--help"],
    [],
    ["frobnicate", "12"],
    ["--max-enum", "x", "modinfo", "1"],
    ["--json=x", "modinfo", "1"],
    ["modinfo"],
    ["idemop", "12", "bogus", "1"],
    ["audit", "2..12", "--out", "--json"],
])
def test_help_and_errors_match_the_full_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    out = capsys.readouterr()
    full = exc.value.code, out.out, out.err
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == full


def _src_env() -> dict:
    """The environment with the tested sources first on PYTHONPATH."""
    src = str(Path(idemod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_capped(*argv: str) -> dict:
    """Run `idemod argv --json` in a fresh process limited to 384 MiB of
    address space, within the enum-queries budget of 20 s, and return its
    JSON answer."""
    limit = 384 * 2**20
    res = subprocess.run(
        [sys.executable, "-m", "idemod.cli", *argv, "--json"],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        env=_src_env(), capture_output=True, text=True, timeout=20,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_near_cap_solve_fits_384_mib_of_address_space():
    """`solve 999983 3 8` takes its one root from the unit group and omega
    in closed form (it needed 479 MiB with per-residue orders, and 89 MiB
    with a structure table and a class scan for omega)."""
    out = _run_capped("solve", "999983", "3", "8")
    assert (out["solutions"], out["criterion_verdict"]) == ([2], True)


@pytest.mark.parametrize("m, a, omega, count", [
    (999000, 7, 900, 240),
    # a = 1 has no q-part, so every unit of order omega is a maximizer.
    (720720, 1, 60, 93184),
])
def test_near_cap_omega_off_a_cyclic_class_fits_384_mib(m, a, omega, count):
    """`omega` on a class that is not cyclic near the cap walks its Sylow
    subgroups, with no table of orders: omega is the closed form, and each
    maximizer b has b^omega = 1 and b^(omega/q) != 1 for each prime q of
    omega."""
    out = _run_capped("omega", str(m), str(a))
    gens = out["omega_set"]
    assert (out["omega"], len(gens)) == (omega, count)
    primes = [q for q, _ in build_modulus(omega).factorization.factors]
    for b in gens[::37]:
        assert pow(b, omega, m) == 1, b
        assert all(pow(b, omega // q, m) != 1 for q in primes), b


def test_near_cap_gproots_fits_384_mib_of_address_space():
    """`gproots 100003` reads G_p off byte patterns of q-th non-powers (a
    class scan per unit made it quadratic and it did not finish; omega in
    closed form per unit took 0.4 s).  G_p for a prime p is the phi(p - 1)
    primitive roots and p itself."""
    out = _run_capped("gproots", "100003")
    gs = out["gproots"]
    assert len(gs) == build_modulus(100002).phi + 1
    assert (gs[0], gs[-1]) == (2, 100003)


def test_near_cap_omega_fits_384_mib_of_address_space():
    """`omega 999983 8` reads the maximizers of the cyclic U(999983) off
    its Sylow subgroups (a frozenset of orb(8)'s ints needed 84 MiB RSS).
    8 has half the order of a primitive root, so its maximizers are the
    phi(999982) primitive roots."""
    out = _run_capped("omega", "999983", "8")
    assert len(out["omega_set"]) == build_modulus(999982).phi
    assert (out["omega"], out["ind_sup"]) == (999982, 2)
