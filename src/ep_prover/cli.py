"""Command-line entry point.

Parses one THF problem, optionally embeds a modal problem into classical
HOL, runs the saturation loop and reports an SZS status line plus, on
request, a TSTP refutation certificate.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace

from .terms import (
    LOGICAL_NAMES, Term, constants, tptp_name, type_str,
)
from .tptp import (
    MODAL_OPERATORS, ParseError, Problem, ProofLine, TermPrinter,
    UnsupportedInputError, parse_problem, print_formula,
    print_proof, print_szs, render_file_source, render_inference,
)
from .cnf import DefinitionError, definition_parts
from .modal import embed, uses_modal_operators
from .saturation import ProverConfig, Result, extract_proof, saturate


SUCCESS_STATUSES = ("Theorem", "Unsatisfiable", "ContradictoryAxioms",
                    "CounterSatisfiable", "Satisfiable")

_BUILTIN_NAMES = LOGICAL_NAMES | MODAL_OPERATORS


# The option table: the spellings, the attribute run() reads (None for
# -h), the kind of value (None for a flag, else a converter or a tuple of
# choices), the default and the help text.  It drives the scan, the
# defaults and the -h text.
_OPTIONS = (
    (("-h", "--help"), None, None, None, "print this help and exit"),
    (("-t", "--timeout"), "timeout", float, ProverConfig.time_limit,
     "wall clock limit in seconds"),
    (("-p", "--proof"), "proof", None, False,
     "print a TSTP refutation certificate"),
    (("--unif-depth",), "unif_depth", int, ProverConfig.unif_depth,
     "pre-unification search depth"),
    (("--unifiers",), "unifiers", int, ProverConfig.unifiers_per_inference,
     "unifiers kept per constraint set"),
    (("--ps-limit",), "ps_limit", int, ProverConfig.ps_limit,
     "primitive substitution depth per clause lineage"),
    (("--no-inj",), "no_inj", None, False,
     "disable the injectivity postulate rule"),
    (("--modal-s5",), "modal_s5", ("relational", "universal"), "relational",
     "S5 accessibility encoding for modal problems"),
    (("--include-dir",), "include_dir", str, None,
     "directory for TPTP include resolution"),
)
_BY_SPELLING = {s: row for row in _OPTIONS for s in row[0]}
_USAGE = "usage: ep-prover [-h] [options] problem"


def _add_consts(t: Term, out: dict):
    """Record the non-builtin constants of t in first-occurrence order."""
    for k in constants(t):
        if k.name not in _BUILTIN_NAMES:
            out.setdefault(k.name, k.ty)


def build_proof_lines(result: Result, problem: Problem) -> list:
    """TSTP lines for the refutation: type declarations, then the relevant
    definitions, then the derivation records in dependency order."""
    proof = extract_proof(result.records, result.empty_id)

    definitions = {definition_parts(f)[0]: f for f in problem.formulas
                   if f.role == "definition"}

    # constants of the derivation, then close over definition bodies
    consts: dict = {}
    for d in proof:
        for t in d.terms():
            _add_consts(t, consts)
    used_defs = []
    queue = [n for n in consts if n in definitions]
    for n in queue:     # also visits the names appended below
        if n in used_defs:
            continue
        used_defs.append(n)
        body: dict = {}
        _add_consts(definitions[n].formula, body)
        for m in body:
            consts.setdefault(m, body[m])
            if m in definitions and m not in used_defs:
                queue.append(m)

    lines = []
    base_types = sorted(bt for bt in problem.signature.base_types
                        if not bt.startswith("$"))
    for bt in base_types:
        lines.append(ProofLine(tptp_name(f"{bt}_type"), "type",
                               f"{tptp_name(bt)}: $tType"))

    # every symbol is declared before the first definition uses it
    def_order = [n for n in definitions if n in used_defs]
    rest = sorted(n for n in consts if n not in definitions)
    for name in def_order + rest:
        lines.append(ProofLine(tptp_name(f"{name}_type"), "type",
                               f"{tptp_name(name)}: {type_str(consts[name])}"))
    for name in def_order:
        lines.append(ProofLine(tptp_name(f"{name}_def"), "definition",
                               print_formula(definitions[name].formula)))

    clause_names: dict = {}
    for d in proof:
        printer = TermPrinter()
        text = (printer.clause(d.clause) if d.clause is not None
                else printer.print(d.formula))
        clause_names[d.id] = printer.names
        if d.rule == "input":
            src = render_file_source(*d.source) if d.source else None
            lines.append(ProofLine(str(d.id), d.role, text, src))
            continue
        bindings = []
        if d.bindings:
            # the parent's variables print as in its step, and the
            # image's binders are named after them, so none captures one
            pnames = clause_names.get(d.parents[0], {})
            for v, t in d.bindings:
                bindings.append((pnames.get(v, v.name),
                                 TermPrinter(pnames).print(t)))
        role = d.role if d.role == "negated_conjecture" else "plain"
        lines.append(ProofLine(str(d.id), role, text, render_inference(
            d.rule, d.status, d.parents, tuple(bindings))))
    return lines


def _emit(*texts: str):
    """Print texts on stdout and flush it.  A reader that stops early
    (`| head -1`) is no error: stdout then goes to os.devnull, so that
    neither a later write nor the interpreter's final flush raises."""
    try:
        for text in texts:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):   # a stream without a descriptor
            sys.stdout = os.fdopen(devnull, "w")
        else:
            os.dup2(devnull, fd)
            os.close(devnull)


def _error(name: str, message: str) -> int:
    _emit(print_szs("Error", name))
    print(message, file=sys.stderr)
    return 2


def run(args) -> int:
    name = args.problem.rsplit("/", 1)[-1]
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        return _error(name, f"cannot read problem file: {e}")
    try:
        problem = parse_problem(text, name, args.include_dir, args.problem)
        if problem.logic_spec is not None:
            problem = embed(problem, args.modal_s5)
        elif uses_modal_operators(problem):
            raise UnsupportedInputError(
                "modal operators used without a logic specification")
    except ParseError as e:
        return _error(name, str(e))
    except RecursionError:
        return _error(name, "input nested too deeply")

    config = ProverConfig(
        time_limit=args.timeout,
        unif_depth=args.unif_depth,
        unifiers_per_inference=args.unifiers,
        ps_limit=args.ps_limit,
        enable_inj=not args.no_inj,
    )
    try:
        result = saturate(problem, config)
        # The search ran with the collector paused, so all that the run
        # kept sits in the youngest generation, and the first young
        # collection would walk it; frozen objects are never walked.
        gc.freeze()
        proof = None
        if args.proof and result.empty_id is not None:
            proof = print_proof(build_proof_lines(result, problem), name)
    except DefinitionError as e:
        return _error(name, str(e))
    except Exception as e:      # no traceback escapes the CLI
        return _error(name, f"{type(e).__name__}: {e}")
    finally:
        gc.unfreeze()   # into the oldest generation, which young ones skip
    texts = [print_szs(result.status, name)]
    if proof is not None:
        texts.append(proof)
    _emit(*texts)
    if result.status in SUCCESS_STATUSES:
        return 0
    if result.status in ("GaveUp", "Timeout"):
        return 1
    return 2


def _is_option(tok: str) -> bool:
    """Whether tok reads as an option: it starts with "-", is longer than
    that, and is no negative number (argparse's rule)."""
    return (len(tok) > 1 and tok[0] == "-"
            and not re.fullmatch(r"-\d+|-\d*\.\d+", tok))


def _help_text() -> str:
    lines = [_USAGE, "", "saturation prover for monomorphic higher-order "
             "logic", "", "  problem", "      THF problem file"]
    for spellings, dest, kind, default, text in _OPTIONS:
        left = ", ".join(spellings)
        if kind is not None:
            left += " " + ("{" + ",".join(kind) + "}"
                           if isinstance(kind, tuple) else dest.upper())
            if default is not None:
                text += f" (default {default})"
        lines += [f"  {left}", f"      {text}"]
    return "\n".join(lines)


def _usage_error(argv: list, message: str):
    """Report a usage error and exit 2.  Stdout gets the SZS Error line
    for the basename of the first argument that is neither an option nor
    an option's value ("unknown" if there is none; here every argument
    longer than "-" that starts with "-" counts as an option, a negative
    number too); stderr gets the usage line and the message."""
    name = "unknown"
    tokens = iter(argv)
    for tok in tokens:
        if not (len(tok) > 1 and tok[0] == "-"):
            name = tok.rsplit("/", 1)[-1]
            break
        row = _BY_SPELLING.get(tok)
        if row is not None and row[2] is not None:
            next(tokens, None)      # the option's value
    _emit(print_szs("Error", name))
    print(_USAGE, f"ep-prover: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list) -> SimpleNamespace:
    """The problem and the options of argv, scanned by the option table.

    Options are spelled in full; a long option that takes a value also
    reads `--opt=V`.  As in argparse, a value may start with "-" only if
    it is a number, a bad value is an error when it is met and -h prints
    the help and exits 0 when it is met, while an unknown option, a
    second problem argument or none are reported after the scan."""
    args = {dest: default for _, dest, _, default, _ in _OPTIONS if dest}
    problem, extras = None, []
    i = 0
    while i < len(argv):
        tok = argv[i]
        i += 1
        spelling, eq, value = (tok.partition("=") if tok[:2] == "--"
                               else (tok, "", ""))
        row = _BY_SPELLING.get(spelling)
        if row is None:
            if problem is None and not _is_option(tok):
                problem = tok
            else:
                extras.append(tok)
            continue
        spellings, dest, kind, _, _ = row
        label = "/".join(spellings)
        if kind is None:
            if eq:
                _usage_error(argv, f"argument {label}: ignored explicit "
                                   f"argument {value!r}")
            if dest is None:
                _emit(_help_text())
                raise SystemExit(0)
            args[dest] = True
            continue
        if not eq:
            if i == len(argv) or _is_option(argv[i]):
                _usage_error(argv, f"argument {label}: expected one "
                                   "argument")
            value = argv[i]
            i += 1
        if isinstance(kind, tuple):
            if value not in kind:
                _usage_error(argv, f"argument {label}: invalid choice: "
                                   f"{value!r} (choose from "
                                   f"{', '.join(map(repr, kind))})")
        else:
            try:
                value = kind(value)
            except ValueError:
                _usage_error(argv, f"argument {label}: invalid "
                                   f"{kind.__name__} value: {value!r}")
        args[dest] = value
    if problem is None:
        _usage_error(argv, "the following arguments are required: problem")
    if extras:
        _usage_error(argv, "unrecognized arguments: " + " ".join(extras))
    if not args["timeout"] > 0:     # also rejects nan
        _usage_error(argv, "timeout must be positive")
    if min(args["unif_depth"], args["unifiers"], args["ps_limit"]) < 0:
        _usage_error(argv, "--unif-depth, --unifiers and --ps-limit must "
                           "not be negative")
    return SimpleNamespace(problem=problem, **args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
