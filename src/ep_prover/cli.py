"""Command-line entry point.

Parses one THF problem, optionally embeds a modal problem into classical
HOL, runs the saturation loop and reports an SZS status line plus, on
request, a TSTP refutation certificate.
"""

from __future__ import annotations

import argparse
import os
import sys

from .terms import (
    LOGICAL_NAMES, Term, const, constants, substitute_raw, type_str,
)
from .tptp import (
    MODAL_OPERATORS, InferenceRecord, ParseError, Problem, ProofLine,
    UnsupportedInputError, parse_problem, print_clause, print_formula,
    print_proof, print_szs, render_file_source, render_inference,
)
from .cnf import DefinitionError, definition_parts
from .modal import embed, uses_modal_operators
from .saturation import ProverConfig, Result, extract_proof, saturate


SUCCESS_STATUSES = ("Theorem", "Unsatisfiable", "ContradictoryAxioms",
                    "CounterSatisfiable", "Satisfiable")

_BUILTIN_NAMES = LOGICAL_NAMES | MODAL_OPERATORS


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors keep the stdout contract: the
    SZS line first, then argparse's message on stderr and exit 2."""

    problem_name = "unknown"

    def error(self, message):
        _emit(print_szs("Error", self.problem_name))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    defaults = ProverConfig()
    ap = _Parser(
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


def _add_consts(t: Term, out: dict):
    """Record the non-builtin constants of t in first-occurrence order."""
    for k in constants(t):
        if k.name not in _BUILTIN_NAMES:
            out.setdefault(k.name, k.ty)


def build_proof_lines(result: Result, problem: Problem) -> list:
    """TSTP lines for the refutation: type declarations, the relevant
    definitions, and the derivation records in dependency order."""
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
        lines.append(ProofLine(f"{bt}_type", "type", f"{bt}: $tType"))

    def_order = [n for n in definitions if n in used_defs]
    rest = sorted(n for n in consts if n not in definitions)
    for name in def_order + rest:
        ty = consts.get(name)
        if ty is None:
            sig_ty = problem.signature.constants.get(name)
            if sig_ty is None:
                continue
            ty = sig_ty
        lines.append(ProofLine(f"{name}_type", "type",
                               f"{name}: {type_str(ty)}"))
        if name in definitions:
            lines.append(ProofLine(
                f"{name}_def", "definition",
                print_formula(definitions[name].formula)))

    clause_names: dict = {}
    for d in proof:
        if d.clause is not None:
            text, names = print_clause(d.clause)
        else:
            text, names = print_formula(d.formula), {}
        clause_names[d.id] = names
        if d.rule == "input":
            src = render_file_source(*d.source) if d.source else None
            lines.append(ProofLine(str(d.id), d.role, text, src))
            continue
        bindings = []
        if d.bindings:
            pnames = clause_names.get(d.parents[0], {})
            for v, t in d.bindings:
                bindings.append((pnames.get(v, v.name),
                                 _print_binding(t, pnames)))
        rec = InferenceRecord(d.rule, d.status, d.parents, tuple(bindings))
        role = d.role if d.role == "negated_conjecture" else "plain"
        lines.append(ProofLine(str(d.id), role, text,
                               render_inference(rec)))
    return lines


def _print_binding(t: Term, names: dict) -> str:
    mapping = {v: const(n, v.ty) for v, n in names.items() if v in t.fvs}
    if mapping:
        t = substitute_raw(t, mapping)
    return print_formula(t)


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
        proof = None
        if args.proof and result.empty_id is not None:
            proof = print_proof(build_proof_lines(result, problem), name)
    except DefinitionError as e:
        return _error(name, str(e))
    except Exception as e:      # no traceback escapes the CLI
        return _error(name, f"{type(e).__name__}: {e}")
    texts = [print_szs(result.status, name)]
    if proof is not None:
        texts.append(proof)
    _emit(*texts)
    if result.status in SUCCESS_STATUSES:
        return 0
    if result.status in ("GaveUp", "Timeout"):
        return 1
    return 2


def _problem_name(ap: argparse.ArgumentParser, argv: list) -> str:
    """Basename of the first argument that is neither an option nor an
    option's value; "unknown" if there is none."""
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    ap.problem_name = _problem_name(ap, argv)
    args = ap.parse_args(argv)
    if not args.timeout > 0:    # also rejects nan
        ap.error("timeout must be positive")
    if min(args.unif_depth, args.unifiers, args.ps_limit) < 0:
        ap.error("--unif-depth, --unifiers and --ps-limit must not be "
                 "negative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
