"""Command-line interface: exit codes, stream discipline, proof output."""

import argparse
import contextlib
import functools
import gc
import glob
import io
import random
import shutil
import subprocess
import sys
import time

import pytest

from ep_prover import cli
from ep_prover.calculus import simplify
from ep_prover.cli import main, parse_args
from ep_prover.saturation import ProverConfig, Saturation, extract_proof
from ep_prover.terms import (
    FALSE, bound, canon, disj, equality, forall, ordered_free_vars, type_str,
)
from ep_prover.tptp import (
    TokenStream, literal_formula, parse_problem, print_szs,
)
from test_terms import substitute_raw


PROBLEMS = "problems"


def run_cli(*args, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "ep_prover.cli", *args],
        capture_output=True, text=True, timeout=timeout)


def test_theorem_exit_zero():
    r = run_cli(f"{PROBLEMS}/corpus/prop_k.p", "-t", "30")
    assert r.returncode == 0
    assert "% SZS status Theorem for prop_k.p" in r.stdout


def test_proof_output_brackets_and_rules():
    r = run_cli(f"{PROBLEMS}/sur_cantor.p", "-t", "60", "-p")
    assert r.returncode == 0
    assert "% SZS output start CNFRefutation for sur_cantor.p" in r.stdout
    assert "% SZS output end CNFRefutation for sur_cantor.p" in r.stdout
    assert "file('sur_cantor.p',sur_cantor)" in r.stdout
    assert "negated_conjecture" in r.stdout


def _printed_proof(capsys, *argv) -> str:
    assert main([*argv, "-p"]) == 0, argv
    out = capsys.readouterr().out
    assert "% SZS output start CNFRefutation" in out, argv
    return out


def _clause_vars(c) -> list:
    """The free variables of clause c in first-occurrence order: the
    variables its printed prefix binds."""
    if c is None:
        return []
    return ordered_free_vars([x for l in c.literals for x in (l.lhs, l.rhs)])


def _closure(fvs: list, body):
    """The canonical universal closure of body over fvs, outermost first."""
    n = len(fvs)
    body = substitute_raw(body, {v: bound(n - 1 - k, v.ty)
                                 for k, v in enumerate(fvs)})
    for v in reversed(fvs):
        body = forall(v.ty, body)
    return canon(body)


def _record_formula(d):
    """What the printed step of record d must read back as: the closure of
    the left-nested disjunction of a clause's literals, or the formula."""
    if d.clause is None:
        return canon(d.formula)
    lits = [literal_formula(l) for l in d.clause.literals]
    body = functools.reduce(disj, lits) if lits else FALSE
    return _closure(_clause_vars(d.clause), body)


def _printed_bindings(out: str) -> dict:
    """Step name -> the (variable, image text) of each bind(V,$thf(T))
    on that step, in printed order."""
    found: dict = {}
    ts = TokenStream(out)
    step = None
    while ts.peek().kind != "eof":
        t = ts.next()
        if t.text == "thf" and ts.peek().text == "(":
            ts.next()
            step = ts.next().text
        elif t.text == "bind" and ts.peek().text == "(":
            ts.next()
            var = ts.next().text
            ts.expect(",")
            ts.expect("$thf")
            ts.expect("(")
            start, depth = ts.peek().at, 0
            while ts.peek().text != ")" or depth:
                depth += {"(": 1, ")": -1}.get(ts.next().text, 0)
            found.setdefault(step, []).append((var, out[start:ts.peek().at]))
    return found


def test_every_printed_refutation_parses_back(capsys, monkeypatch):
    """The -p text of each refutation of problems/ is a THF problem: every
    symbol is declared before a definition or step uses it, each step
    reads back as its record and each binding as its image."""
    results = []
    run_saturate = cli.saturate

    def saturate(*args):
        results.append(run_saturate(*args))
        return results[-1]

    monkeypatch.setattr(cli, "saturate", saturate)
    paths = sorted(glob.glob(f"{PROBLEMS}/*.p")
                   + glob.glob(f"{PROBLEMS}/corpus/*.p"))
    runs = [[path] for path in paths]
    runs.append([f"{PROBLEMS}/becker.p", "--modal-s5", "universal"])
    steps = binds = 0
    for argv in runs:
        out = _printed_proof(capsys, *argv)
        result = results[-1]
        printed = _printed_bindings(out)
        expected = {}
        for d in extract_proof(result.records, result.empty_id):
            expected[str(d.id)] = _record_formula(d)
            steps += 1
            if not d.bindings:
                continue
            # each binding as an equation closed over the parent's printed
            # variables, read after the proof's type declarations
            fvs = _clause_vars(result.records[d.parents[0]].clause)
            assert len(fvs) <= 26
            prefix = ",".join(f"{chr(ord('A') + i)}: {type_str(v.ty)}"
                              for i, v in enumerate(fvs))
            if prefix:
                prefix = f"! [{prefix}] : "
            assert len(printed[str(d.id)]) == len(d.bindings), argv
            for (v, image), (name, text) in zip(d.bindings,
                                                 printed[str(d.id)]):
                key = f"bind_{d.id}_{name}"
                out += f"thf({key},axiom,{prefix}( {name} = ( {text} ) )).\n"
                expected[key] = _closure(fvs, equality(v, image))
                binds += 1
        back = {f.name: f.formula for f in
                parse_problem(out, argv[0].rsplit("/", 1)[-1]).formulas}
        for name, formula in expected.items():
            assert back[name] is formula, (argv, name)
    assert len(runs) == 27
    assert (steps, binds) == (293, 42)


QUOTED = """
thf(t, type, 'a b': $i > $o).
thf(u, type, 'A': $i).
thf(ax, axiom, 'a b' @ 'A').
thf('the goal', conjecture, ? [X: $i]: ('a b' @ X)).
"""


def test_problem_file_name_prints_quoted_and_escaped(tmp_path, capsys):
    f = tmp_path / "it's.p"
    shutil.copy(f"{PROBLEMS}/corpus/prop_k.p", f)
    out = _printed_proof(capsys, str(f))
    assert "file('it\\'s.p',prop_k)" in out
    parse_problem(out, "it's.p")


def test_names_that_are_not_lower_words_print_quoted(tmp_path, capsys):
    f = tmp_path / "quoted.p"
    f.write_text(QUOTED)
    out = _printed_proof(capsys, str(f))
    assert "thf('a b_type',type,\n    ( 'a b': $i > $o ))." in out
    assert "file('quoted.p','the goal')" in out
    # the constant 'A' bound to the variable A of the parent clause
    assert "bind(A,$thf('A'))" in out
    parse_problem(out, "quoted.p")


def test_counter_satisfiable_exit_zero(tmp_path):
    f = tmp_path / "csat.p"
    f.write_text("thf(p_type, type, (p: $o)). thf(goal, conjecture, p).")
    r = run_cli(str(f), "-t", "30")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == \
        "% SZS status CounterSatisfiable for csat.p"


def _assert_input_error(r):
    assert r.returncode == 2
    assert r.stdout.splitlines()[0].startswith("% SZS status Error for ")
    assert r.stderr.strip()
    assert "Traceback" not in r.stderr


def test_cyclic_definitions_are_error(tmp_path):
    f = tmp_path / "cyc.p"
    f.write_text("thf(q_type, type, (q: $o)). thf(r_type, type, (r: $o)).\n"
                 "thf(q_def, definition, ( q = r )).\n"
                 "thf(r_def, definition, ( r = q )).\n"
                 "thf(goal, conjecture, q).")
    _assert_input_error(run_cli(str(f)))


def test_non_equation_definition_is_error(tmp_path):
    f = tmp_path / "def.p"
    f.write_text("thf(q_type, type, (q: $o)).\n"
                 "thf(q_def, definition, ( q & q )).\n"
                 "thf(goal, conjecture, q).")
    _assert_input_error(run_cli(str(f)))


def test_deeply_nested_term_is_error(tmp_path):
    t = "a"
    for _ in range(3000):
        t = f"( f @ {t} )"
    f = tmp_path / "deep.p"
    f.write_text("thf(f_type, type, (f: $i > $i)).\n"
                 "thf(a_type, type, (a: $i)).\n"
                 "thf(p_type, type, (p: $i > $o)).\n"
                 f"thf(goal, conjecture, ( ( p @ {t} ) => ( p @ {t} ) )).\n"
                 "#\n")
    r = run_cli(str(f))
    _assert_input_error(r)
    # the parser stops at its nesting limit before it reads the stray "#"
    assert "input nested too deeply" in r.stderr


def test_variables_of_another_sort_are_no_duplicate(tmp_path):
    # [X = Y] over $i and [U = V] over j are not variants of each other
    f = tmp_path / "sorts.p"
    f.write_text("thf(j_type, type, (j: $tType)).\n"
                 "thf(a_type, type, (a: j)).\n"
                 "thf(b_type, type, (b: j)).\n"
                 "thf(i_eq, axiom, ( ! [X: $i, Y: $i] : ( X = Y ) )).\n"
                 "thf(j_eq, axiom, ( ! [U: j, V: j] : ( U = V ) )).\n"
                 "thf(goal, conjecture, ( a = b )).")
    r = run_cli(str(f), "-t", "30")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "% SZS status Theorem for sorts.p"


_K_SPEC = ("thf(s, logic, ( $modal := [ $constants := $rigid, "
           "$quantification := $constant, $consequence := $global, "
           "$modalities := $modal_system_K ] )).\n")


@pytest.mark.parametrize("decls, conjecture", [
    # a source type merged with the world type
    ("thf(mworld_type, type, (mworld: $tType)).\n"
     "thf(ax, axiom, ( ! [X: mworld, Y: mworld] : ( X = Y ) )).\n",
     "( ( $dia @ p ) => p )"),
    # a source constant captured by the lifted negation
    ("thf(mnot_type, type, (mnot: $o > $o)).\n",
     "( ( mnot @ p ) <=> ~ p )"),
    # source constants declared again at another type
    ("thf(mrel_type, type, (mrel: $i > $o)).\n"
     "thf(a_type, type, (a: $i)).\n",
     "( $box @ ( mrel @ a ) )"),
    ("thf(mvalid_type, type, (mvalid: $o > $o)).\n",
     "( $box @ ( mvalid @ p ) )"),
], ids=["mworld", "mnot", "mrel", "mvalid"])
def test_names_of_the_modal_embedding_are_reserved(tmp_path, decls,
                                                   conjecture):
    f = tmp_path / "reserved.p"
    f.write_text(_K_SPEC + "thf(p_type, type, (p: $o)).\n" + decls
                 + f"thf(goal, conjecture, {conjecture}).")
    _assert_input_error(run_cli(str(f), "-t", "10"))


def test_missing_file_is_error():
    r = run_cli("no_such_file.p")
    assert r.returncode == 2
    assert "% SZS status Error for no_such_file.p" in r.stdout
    assert r.stderr.strip()


def test_parse_error_is_error(tmp_path):
    bad = tmp_path / "bad.p"
    bad.write_text("thf(x, axiom, ( p | )).")
    r = run_cli(str(bad))
    assert r.returncode == 2
    assert "% SZS status Error" in r.stdout
    assert r.stderr.strip()


def test_include_cycles_are_error(tmp_path):
    (tmp_path / "self.p").write_text("include('self.p').\n")
    (tmp_path / "a.p").write_text("thf(p_type, type, (p: $o)).\n"
                                  "include('b.p').\n")
    (tmp_path / "b.p").write_text("include('a.p').\n")
    for top, cycle in (("self.p", "self.p -> self.p"),
                       ("a.p", "a.p -> b.p -> a.p")):
        r = run_cli(str(tmp_path / top), "--include-dir", str(tmp_path))
        _assert_input_error(r)
        assert f"include cycle: {cycle}" in r.stderr


def test_includes_resolve_against_the_current_directory(
        tmp_path, monkeypatch, capsys):
    # without --include-dir an include is looked up in the current
    # directory, not in the directory of the problem file
    inc = tmp_path / "inc"
    inc.mkdir()
    (inc / "defs.p").write_text("thf(p_type, type, (p: $o)).\n"
                                "thf(ax, axiom, p).\n")
    (inc / "top.p").write_text("include('defs.p').\n"
                               "thf(c, conjecture, p).\n")
    monkeypatch.chdir(tmp_path)
    assert main(["inc/top.p"]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == ["% SZS status Error for top.p"]
    assert "cannot resolve include 'defs.p'" in err
    monkeypatch.chdir(inc)
    assert main(["top.p"]) == 0
    assert capsys.readouterr().out.splitlines() \
        == ["% SZS status Theorem for top.p"]


def test_modal_without_spec_is_error(tmp_path):
    f = tmp_path / "m.p"
    f.write_text("thf(p_type, type, (p: $o)).\n"
                 "thf(x, conjecture, ( $box @ p )).")
    r = run_cli(str(f))
    assert r.returncode == 2


def test_timeout_exit_one():
    r = run_cli(f"{PROBLEMS}/inj_cantor.p", "--no-inj", "-t", "2")
    assert r.returncode == 1
    assert "% SZS status Timeout" in r.stdout


def _iff_chain(tmp_path, n):
    """b0 <=> (b1 <=> ... b(n-1)), a satisfiable parity formula whose
    clausification names its links."""
    atoms = [f"b{i}" for i in range(n)]
    body = atoms[-1]
    for b in reversed(atoms[:-1]):
        body = f"( {b} <=> {body} )"
    f = tmp_path / f"iff{n}.p"
    f.write_text("".join(f"thf({b}_t,type,{b}: $o).\n" for b in atoms)
                 + f"thf(ax,axiom,{body}).\n")
    return f


@pytest.mark.parametrize("n", [8, 12, 24])
def test_deep_iff_chains_end_satisfiable(tmp_path, n):
    # ground propositional clauses resolve on maximal atoms only, the
    # minted names lowest, so the search ends at once; resolving on every
    # atom, the 24-atom chain did not end within 20 s
    f = _iff_chain(tmp_path, n)
    t0 = time.monotonic()
    r = run_cli(str(f), timeout=60)
    assert time.monotonic() - t0 < 5
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] \
        == f"% SZS status Satisfiable for iff{n}.p"


COMMUTATIVITY = """
thf(f_t,type,f:$i>$i>$i). thf(a_t,type,a:$i). thf(b_t,type,b:$i).
thf(q_t,type,q:$i>$o).
thf(comm,axiom,![X:$i,Y:$i]: ((f@X@Y) = (f@Y@X))).
thf(goal,conjecture,q@(f@a@b)).
"""


def test_commutativity_flood_keeps_the_time_limit(tmp_path):
    # the unorientable unit is paramodulated into itself and into every
    # conclusion, so the search does not end, and must still stop at the
    # deadline; the deadline inside clausification is tested in
    # test_cnf.py
    f = tmp_path / "comm.p"
    f.write_text(COMMUTATIVITY)
    t0 = time.monotonic()
    r = run_cli(str(f), "-t", "2", timeout=60)
    assert time.monotonic() - t0 < 6
    assert r.returncode == 1
    assert r.stdout.splitlines()[0] == "% SZS status Timeout for comm.p"


# u1 duplicates X, so rewriting with u1 and u2 would cycle on
# f c c (d (d a)) -> g (d (d a)) (d (d a)) -> f c c (d (d a))
LOOP = """
thf(c_t,type,c:$i). thf(a_t,type,a:$i). thf(d_t,type,d:$i>$i).
thf(f_t,type,f:$i>$i>$i>$i). thf(g_t,type,g:$i>$i>$i).
thf(q_t,type,q:$i>$i>$i>$o).
thf(u1,axiom,![X:$i]: ((f@c@c@X) = (g@X@X))).
thf(u2,axiom,![Y:$i,Z:$i]: ((g@(d@(d@Y))@Z) = (f@c@c@Z))).
thf(goal,conjecture,q@(f@c@c@(d@(d@a)))@(d@(d@(d@a)))@(d@(d@(d@(d@a))))).
"""


def test_variable_duplicating_units_keep_the_time_limit(tmp_path):
    f = tmp_path / "loop.p"
    f.write_text(LOOP)
    # the outer timeout fails a hang instead of stalling the suite
    r = run_cli(str(f), "-t", "2", timeout=60)
    assert r.returncode == 1
    assert r.stdout.splitlines()[0] in ("% SZS status Timeout for loop.p",
                                        "% SZS status GaveUp for loop.p")
    # and rewriting the input clauses with each other reaches a normal
    # form well before the deadline, which a rewrite cycle would pass
    sat = Saturation(parse_problem(LOOP, "loop.p"), ProverConfig())
    sat.preprocess()
    units = [(i, sat.records[i].clause) for i in sat.U]
    assert len(units) == 3 and all(len(c) == 1 for _, c in units)
    for _, c in units:
        assert simplify(c, units, time.monotonic() + 10)[0] is not None


def test_machine_lines_only_on_stdout():
    r = run_cli(f"{PROBLEMS}/corpus/eq_sym.p", "-t", "30")
    for line in r.stdout.splitlines():
        assert line.startswith("%") or line.startswith("thf(") \
            or line.startswith("    ") or not line


def test_satisfiable_counts_as_success(tmp_path):
    f = tmp_path / "sat.p"
    f.write_text("thf(p_type, type, (p: $o)). thf(a, axiom, p).")
    r = run_cli(str(f))
    assert r.returncode == 0
    assert "% SZS status Satisfiable" in r.stdout


def test_parser_defaults():
    args = parse_args(["x.p"])
    assert args.timeout == 60.0
    assert args.unif_depth == 8
    assert args.unifiers == 4
    assert args.ps_limit == 3
    assert not args.no_inj
    assert args.modal_s5 == "relational"


def test_nonpositive_timeout_rejected(capsys):
    for bad in (["-t", "0"], ["-t", "-1"], ["-t", "nan"],
                ["--unif-depth", "-1"], ["--unifiers", "-1"],
                ["--ps-limit", "-1"], ["--no-such-flag"]):
        with pytest.raises(SystemExit) as exc:
            main(["dir/x.p", *bad])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "% SZS status Error for x.p"
        assert err.strip()


def test_usage_error_names_the_problem_argument(capsys):
    for argv, name in ((["-t", "0", "a/y.p"], "y.p"),
                       (["--unifiers", "-1"], "unknown"),
                       ([], "unknown")):
        with pytest.raises(SystemExit):
            main(argv)
        assert capsys.readouterr().out.splitlines()[0] == \
            f"% SZS status Error for {name}"


def test_search_exception_is_error(monkeypatch, capsys):
    def boom(problem, config):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "saturate", boom)
    assert main([f"{PROBLEMS}/corpus/prop_k.p"]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == ["% SZS status Error for prop_k.p"]
    assert "RuntimeError: boom" in err
    assert "Traceback" not in err


def test_unsupported_modal_semantics_is_error(tmp_path, capsys):
    spec = ("thf(s, logic, ( $modal := [ $constants := {}, "
            "$quantification := {}, $modalities := $modal_system_S5 ] )).\n"
            "thf(p_type, type, (p: $o)).\n"
            "thf(x, conjecture, ( ( $box @ p ) => p )).\n")
    for constants, quantification in (("$rigid", "$varying"),
                                      ("$flexible", "$constant")):
        f = tmp_path / "semantics.p"
        f.write_text(spec.format(constants, quantification))
        assert main([str(f)]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines() == ["% SZS status Error for semantics.p"]
        assert "unsupported semantics" in err


def test_modal_s5_universal_flag():
    r = run_cli(f"{PROBLEMS}/becker.p", "-t", "60", "--modal-s5",
                "universal")
    assert r.returncode == 0
    assert "% SZS status Theorem" in r.stdout


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away."""

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_keeps_the_verdicts_exit_code(monkeypatch):
    err = io.StringIO()
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main([f"{PROBLEMS}/corpus/prop_k.p", "-p"]) == 0
    assert not isinstance(sys.stdout, _ClosedPipe)
    sys.stdout.close()      # the os.devnull stream main put in its place
    assert err.getvalue() == ""


def test_reader_leaving_early_gets_no_traceback():
    # the read end is closed before the prover writes its first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "ep_prover.cli",
         f"{PROBLEMS}/corpus/prop_k.p", "-p"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=180) == 0
    assert err == b""


def _imported_by_a_call(*modules):
    """Which of `modules` a fresh interpreter holds after one CLI call;
    each costs every CLI call its import."""
    code = ("import sys\n"
            "from ep_prover import cli\n"
            "rc = cli.main([sys.argv[1], '-p'])\n"
            "print(rc, [m for m in sys.argv[2:] if m in sys.modules])\n")
    r = subprocess.run(
        [sys.executable, "-c", code, f"{PROBLEMS}/corpus/prop_k.p", *modules],
        capture_output=True, text=True, timeout=180)
    assert r.stdout.splitlines()[0] == "% SZS status Theorem for prop_k.p"
    return r.stdout.splitlines()[-1]


def test_a_call_imports_no_argparse_gettext_or_locale():
    assert _imported_by_a_call("argparse", "gettext", "locale") == "0 []"


def test_a_call_imports_no_dataclasses_or_inspect():
    # `dataclasses` imports `inspect`, which imports `ast`, `dis` and
    # `tokenize`
    assert _imported_by_a_call("dataclasses", "inspect") == "0 []"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    real = cli.print_proof
    frozen = []

    def watched(lines, name):
        frozen.append(gc.get_freeze_count())
        return real(lines, name)

    def boom(problem, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "print_proof", watched)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main([f"{PROBLEMS}/corpus/prop_k.p", "-p"]) == 0
        assert frozen[0] > 0    # the run's heap, out of the collector's way
        assert gc.isenabled() is enabled and gc.get_freeze_count() == 0
        monkeypatch.setattr(cli, "saturate", boom)
        assert main([f"{PROBLEMS}/corpus/prop_k.p"]) == 2
        assert gc.isenabled() is enabled and gc.get_freeze_count() == 0
    finally:
        (gc.enable if was_enabled else gc.disable)()


# The reference for the option scanner: the argparse front end it
# replaced, with its two checks after parsing and its problem naming.

class _ReferenceParser(argparse.ArgumentParser):
    problem_name = "unknown"

    def error(self, message):
        print(print_szs("Error", self.problem_name))
        super().error(message)


def _reference_parser():
    defaults = ProverConfig()
    ap = _ReferenceParser(
        prog="ep-prover",
        description="saturation prover for monomorphic higher-order logic")
    ap.add_argument("problem", help="THF problem file")
    ap.add_argument("-t", "--timeout", type=float,
                    default=defaults.time_limit,
                    help="wall clock limit in seconds (default %(default)g)")
    ap.add_argument("-p", "--proof", action="store_true",
                    help="print a TSTP refutation certificate")
    ap.add_argument("--unif-depth", type=int, default=defaults.unif_depth,
                    help="pre-unification search depth")
    ap.add_argument("--unifiers", type=int,
                    default=defaults.unifiers_per_inference,
                    help="unifiers kept per constraint set")
    ap.add_argument("--ps-limit", type=int, default=defaults.ps_limit,
                    help="primitive substitution depth per clause lineage")
    ap.add_argument("--no-inj", action="store_true",
                    help="disable the injectivity postulate rule")
    ap.add_argument("--modal-s5", choices=("relational", "universal"),
                    default="relational",
                    help="S5 accessibility encoding for modal problems")
    ap.add_argument("--include-dir", default=None,
                    help="directory for TPTP include resolution")
    return ap


def _reference_problem_name(ap, argv):
    takes_value = {s for a in ap._actions if a.nargs != 0
                   for s in a.option_strings}
    skip = False
    for tok in argv:
        if skip:
            skip = False
        elif tok.startswith("-") and len(tok) > 1:
            skip = tok in takes_value
        else:
            return tok.rsplit("/", 1)[-1]
    return "unknown"


def _reference_parse_args(argv):
    ap = _reference_parser()
    ap.problem_name = _reference_problem_name(ap, argv)
    args = ap.parse_args(argv)
    if not args.timeout > 0:
        ap.error("timeout must be positive")
    if min(args.unif_depth, args.unifiers, args.ps_limit) < 0:
        ap.error("--unif-depth, --unifiers and --ps-limit must not be "
                 "negative")
    return args


def _outcome(parse, argv):
    """("ok", fields), ("help",) or ("error", exit code, first stdout
    line, whether stderr got a usage line and an error line)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(list(argv))
    except SystemExit as e:
        if e.code == 0:
            return ("help",)
        lines = err.getvalue().splitlines()
        return ("error", e.code, out.getvalue().splitlines()[0],
                lines[0].startswith("usage: ep-prover")
                and lines[-1].startswith("ep-prover: error: "))
    return ("ok", vars(args))


_LONG = ("--help", "--timeout", "--proof", "--unif-depth", "--unifiers",
         "--ps-limit", "--no-inj", "--modal-s5", "--include-dir")


def _dropped_form(argv) -> bool:
    """Whether argv spells a form argparse accepts and the scanner does
    not: an abbreviated long option (`--time 5`), a short option with
    text attached (`-t5`, `-t=5`, bundled `-pt 5`), or `--`."""
    for tok in argv:
        head = tok.partition("=")[0]
        if tok == "--" or (len(tok) > 2 and tok[0] == "-" and tok[1] in "htp"):
            return True
        if tok.startswith("--") and head not in _LONG \
                and any(s.startswith(head) for s in _LONG):
            return True
    return False


_HAND_ARGV = [
    # every option in each accepted form, and the defaults
    ["x.p"], ["dir/x.p", "-p"], ["--proof", "x.p"],
    ["-t", "5", "x.p"], ["x.p", "--timeout", "2.5"], ["--timeout=7", "x.p"],
    ["x.p", "--unif-depth", "3"], ["x.p", "--unif-depth=0"],
    ["x.p", "--unifiers", "1"], ["x.p", "--unifiers=6"],
    ["x.p", "--ps-limit", "0"], ["x.p", "--ps-limit=2"],
    ["x.p", "--no-inj"], ["x.p", "--modal-s5", "universal"],
    ["--modal-s5=relational", "x.p"], ["x.p", "--include-dir", "inc"],
    ["x.p", "--include-dir=a=b"], ["x.p", "--include-dir="],
    ["x.p", "--include-dir", "-"], ["-"], [""],
    ["-t", "1", "-t", "2", "x.p"], ["x.p", "-p", "--proof", "--no-inj"],
    ["-t", "1e3", "--unifiers", " 3", "x.p"], ["x.p", "-t", "inf"],
    # negative numbers: a value, or the problem argument
    ["x.p", "-t", "-1"], ["x.p", "-t", "-.5"], ["x.p", "--unif-depth", "-2"],
    ["x.p", "--ps-limit=-1"], ["x.p", "--include-dir", "-3"], ["-1"],
    ["-1", "x.p"], ["x.p", "-2.5"],
    # each reason for rejection
    [], ["-p"], ["a/x.p", "b/y.p"], ["x.p", "--no-such-flag"],
    ["--no-such-flag", "x.p"], ["x.p", "-t"], ["x.p", "-t", "-p"],
    ["-t", "-p", "x.p"], ["x.p", "-t", "-1."], ["x.p", "-t", "-inf"],
    ["--include-dir", "-p", "x.p"], ["x.p", "--include-dir", "--proof"],
    ["x.p", "-t", "abc"], ["x.p", "--timeout="], ["x.p", "-t", "0"],
    ["x.p", "-t", "nan"], ["x.p", "--unifiers", "2.5"],
    ["x.p", "--unif-depth", "x"], ["x.p", "--modal-s5", "s4"],
    ["x.p", "--modal-s5=Universal"], ["x.p", "--proof=yes"],
    ["x.p", "--no-inj="], ["x.p", "-x"], ["x.p", "-P"],
    ["--unifiers", "-1"], ["-t", "0", "a/y.p"], ["x.p", "--unif", "3"],
    # -h exits 0 when it is met: before a bad value, after a deferred
    # error, or not at all
    ["-h"], ["--help"], ["x.p", "-h"], ["-h", "-t", "abc"],
    ["-t", "0", "-h"], ["--no-such-flag", "-h"], ["a.p", "b.p", "--help"],
    ["-t", "abc", "-h"], ["x.p", "-t", "-h"], ["x.p", "--help=1"],
]

# Forms argparse reads and the scanner rejects: an abbreviated long
# option, a short option with text attached, and the `--` separator.
_DROPPED_ARGV = [
    ["--time", "5", "x.p"], ["--pro", "x.p"], ["x.p", "--no"],
    ["x.p", "--modal=universal"], ["--he"], ["-t5", "x.p"], ["-t=5", "x.p"],
    ["-pt", "5", "x.p"], ["x.p", "-ph"], ["--", "x.p"],
]

_POOL = [
    "-t", "--timeout", "-p", "--proof", "--unif-depth", "--unifiers",
    "--ps-limit", "--no-inj", "--modal-s5", "--include-dir",
    "--timeout=5", "--timeout=-1", "--unif-depth=2", "--unifiers=0",
    "--ps-limit=-1", "--modal-s5=universal", "--modal-s5=bad",
    "--include-dir=inc", "--no-inj=1",
    "5", "0", "-1", "2.5", "-0.5", "nan", "abc", "1e2",
    "relational", "universal", "modal",
    "-h", "--no-such-flag", "a/x.p", "y.p",
]


def _differential(argvs):
    counts = {"ok": 0, "help": 0, "error": 0, "dropped": 0}
    for argv in argvs:
        ref = _outcome(_reference_parse_args, argv)
        new = _outcome(parse_args, argv)
        if ref != new and _dropped_form(argv):
            assert new[0] != "ok", argv
            counts["dropped"] += 1
            continue
        assert new == ref, argv
        counts[new[0]] += 1
        if new[0] == "error":
            assert new[1] == 2 and new[3], argv
    return counts


def test_option_scanner_agrees_with_argparse_by_hand():
    counts = _differential(_HAND_ARGV + _DROPPED_ARGV)
    assert counts["dropped"] == len(_DROPPED_ARGV)
    for argv in _DROPPED_ARGV:
        assert _outcome(parse_args, argv)[:2] == ("error", 2), argv


def test_option_scanner_agrees_with_argparse_on_seeded_argv():
    rng = random.Random(19)
    argvs = [[rng.choice(_POOL) for _ in range(rng.randint(0, 5))]
             for _ in range(2000)]
    counts = _differential(argvs)
    assert counts["dropped"] == 0
    assert min(counts["ok"], counts["help"], counts["error"]) >= 100, counts
