"""Independent validation of emitted refutations.

Each derivation record is re-derived from its recorded parents: the
checker either reruns the inference and compares the results up to
renaming, or replays recorded unifier bindings by substitution.  A
generating step is rerun through the search's own enumerator of its
rule, on the parents in their recorded order.
Ground propositional steps are additionally validated by exhaustive
truth-valuation checking.
"""

from __future__ import annotations

from typing import Optional

from .terms import (
    FALSE, LOGICAL_NAMES, O, Subst, Term, TRUE, canon, constants, neg,
    subterm_positions,
)
from .clauses import Clause, Literal, alpha_key, prop_literal
from .cnf import (
    NAMING_THRESHOLD, definition_map, expand_definitions, formula_kind,
    miniscope, normalize,
)
from .calculus import (
    eqfac_candidates, extensionality, inj_rule, inst_types, instantiate,
    paramod_ordered, prim_subst, simplify,
)
from .saturation import extract_proof
from .unification import _Clash, simplify_pairs
from .tptp import RULE_VOCABULARY, rule_status


class ReplayError(Exception):
    pass


class ProofChecker:
    """Replays the records of one run of `problem`.

    Every symbol the replay mints comes from one copy of the run's
    signature, past the run's own fresh symbols, so a constant is minted
    by the run or by the replay exactly when its name is in
    `self.sig.system`.  Clauses of the rules that mint constants are
    compared up to renaming of the minted constants their parent does
    not hold; all others up to renaming of free variables only.

    `ordered` tells whether the run resolved on maximal atoms only, as
    `Result.ordered` does; `paramod_ordered` is then replayed through the
    same restricted enumerator, so a step on another atom is a complaint.
    """

    def __init__(self, records: dict, problem,
                 naming_threshold: int = NAMING_THRESHOLD,
                 ordered: bool = False):
        self.records = records
        self.naming_threshold = naming_threshold   # as in the checked run
        self.ordered = ordered                     # as in the checked run
        self.defs = definition_map(problem.formulas)
        self.sig = problem.signature.copy()
        self.inst_types = inst_types(self.sig)

    def check(self, proof: list) -> list:
        """Validate a record list; returns a list of complaints."""
        complaints = []
        seen = set()
        for d in proof:
            if d.rule != "input" and d.rule not in RULE_VOCABULARY:
                complaints.append(f"{d.id}: unknown rule {d.rule}")
                continue
            missing = [p for p in d.parents if p not in self.records]
            if missing:
                complaints.append(f"{d.id}: parent {missing[0]} not recorded")
            elif any(p not in seen for p in d.parents):
                complaints.append(f"{d.id}: parent out of order")
            seen.add(d.id)
            if d.status != rule_status(d.rule):
                complaints.append(
                    f"{d.id}: status {d.status} for rule {d.rule}")
            replay = self.REPLAY.get(d.rule)
            if replay is None:
                complaints.append(f"{d.id}: no replay for rule {d.rule}")
            elif not missing:
                try:
                    replay(self, d, [self.records[p] for p in d.parents])
                except ReplayError as e:
                    complaints.append(f"{d.id} ({d.rule}): {e}")
        return complaints

    def _minted_for(self, parent) -> set:
        """The constants a step of `parent` may rename: those minted by
        the run or the replay that the parent does not hold.  The
        parent's own minted constants must come through unchanged."""
        held = {k.name for t in parent.terms() for k in constants(t)}
        return self.sig.system - held

    # -- per rule -----------------------------------------------------------

    def _r_input(self, d, parents):
        if d.formula is None:
            raise ReplayError("input without formula")

    def _r_neg_conjecture(self, d, parents):
        if parents:
            if d.formula is not canon(neg(parents[0].formula)):
                raise ReplayError("not the negation of its parent")

    def _r_defexp_and_simp_and_etaexpand(self, d, parents):
        if expand_definitions(parents[0].formula, self.defs) is not d.formula:
            raise ReplayError("definition expansion does not replay")

    def _r_miniscope(self, d, parents):
        if canon(miniscope(parents[0].formula)) is not d.formula:
            raise ReplayError("miniscoping does not replay")

    def _r_cnf(self, d, parents):
        p = parents[0]
        if p.clause is None:
            start = Clause([prop_literal(p.formula, True)])
        else:
            start = p.clause
        out = normalize(start, self.sig, self.naming_threshold)
        minted = self._minted_for(p)
        keys = {alpha_key(c, minted) for c in out}
        if alpha_key(d.clause, minted) not in keys:
            raise ReplayError("clausification does not produce this clause")

    def _replay_generating(self, d, parents):
        """Look for the clause among the conclusions the search's
        enumerator of the rule draws from the parents, in their recorded
        order.  The rules that mint constants are the esa ones."""
        premises = [p.clause for p in parents]
        if any(c is None for c in premises) \
                or len(premises) != (2 if d.rule == "paramod_ordered" else 1):
            raise ReplayError("the parents are not the rule's premises")
        conclusions = list(self.CONCLUSIONS[d.rule](self, *premises))
        # after the enumerator, so that the constants it minted count
        minted = self._minted_for(parents[0]) \
            if rule_status(d.rule) == "esa" else frozenset()
        want = alpha_key(d.clause, minted)
        if not any(alpha_key(x, minted) == want for x in conclusions):
            raise ReplayError(f"no {d.rule} inference produces this clause")

    def _replay_simplify(self, d, parents):
        c = parents[0].clause
        if c is None:
            raise ReplayError("simplification of a non-clause")
        units = [(p.id, p.clause) for p in parents[1:]]
        # the search records a rewrite step exactly when units were used
        if d.rule == "rewrite" and not units:
            raise ReplayError("a rewrite step without a unit parent")
        if d.rule == "simp" and units:
            raise ReplayError("a simp step with a unit parent")
        out, _ = simplify(c, units)
        if out is None:
            raise ReplayError("parent simplifies to a tautology")
        if alpha_key(out) != alpha_key(d.clause):
            raise ReplayError("simplification does not replay")

    def _replay_unifier(self, d, parents):
        c = parents[0].clause
        subst = Subst()
        for v, t in d.bindings:
            subst = subst.bind(v, t)
        kept = []
        constraints = []
        for l in c.literals:
            if l.pos or l.is_shorthand:
                kept.append(Literal(subst.apply(l.lhs),
                                    subst.apply(l.rhs), l.pos))
            else:
                constraints.append((l.lhs, l.rhs))
        try:
            _, flex_rigid, flex_flex = simplify_pairs(constraints, subst)
        except _Clash:
            raise ReplayError("recorded bindings clash with the constraints")
        if flex_rigid:
            raise ReplayError("recorded bindings leave a rigid constraint")
        lits = kept + [Literal(a, b, False) for a, b in flex_flex]
        if alpha_key(Clause(lits)) != alpha_key(d.clause):
            raise ReplayError("substituted clause differs from the record")

    # The search's enumerator of each generating rule, given the
    # checker and the clauses of a step's parents.
    CONCLUSIONS = {
        "eqfactor_ordered": lambda self, c: eqfac_candidates(c),
        "paramod_ordered": lambda self, c, e: paramod_ordered(
            c, e, self.sig, self.ordered),
        "bool_ext": lambda self, c: [
            x for r, x in extensionality(c, self.sig) if r == "bool_ext"],
        "func_ext": lambda self, c: [
            x for r, x in extensionality(c, self.sig) if r == "func_ext"],
        "prim_subst": lambda self, c: prim_subst(c, self.sig,
                                                 self.inst_types),
        "inj": lambda self, c: inj_rule(c, self.sig, set()),
        "instantiate": lambda self, c: instantiate(c),
    }

    # The replay of each rule of RULE_VOCABULARY and of input formulas.
    REPLAY = {
        "input": _r_input, "neg_conjecture": _r_neg_conjecture,
        "defexp_and_simp_and_etaexpand": _r_defexp_and_simp_and_etaexpand,
        "miniscope": _r_miniscope, "cnf": _r_cnf,
        "pre_uni": _replay_unifier, "pattern_uni": _replay_unifier,
        "rewrite": _replay_simplify, "simp": _replay_simplify,
        **dict.fromkeys(CONCLUSIONS, _replay_generating),
    }


# ---------------------------------------------------------------------------
# Ground propositional validation
# ---------------------------------------------------------------------------

# Truth function of each connective; a Boolean equation is an equivalence.
_TRUTH = {
    "not": lambda a: not a,
    "or": lambda a, b: a or b,
    "and": lambda a, b: a and b,
    "imp": lambda a, b: (not a) or b,
    "iff": lambda a, b: a is b,
    "eq": lambda a, b: a is b,
}


def _propositional(t: Term):
    """formula_kind of t when its top symbol has a truth function."""
    k = formula_kind(t)
    if k is None or k[0] not in _TRUTH:
        return None
    return None if k[0] == "eq" and k[1].ty is not O else k


def _collect_atoms(t: Term, atoms: list) -> bool:
    """Gather the opaque atoms of a ground Boolean term.

    Returns False when the term falls outside the propositional
    fragment (a connective hidden inside an application, say).
    """
    if t is TRUE or t is FALSE:
        return True
    k = _propositional(t)
    if k is not None:
        return all(_collect_atoms(x, atoms) for x in k[1:])
    if t.ty is not O or any(c.name in LOGICAL_NAMES for c in constants(t)):
        return False
    if t not in atoms:
        atoms.append(t)
    return True


def _eval_bool(t: Term, val: dict) -> bool:
    if t is TRUE:
        return True
    if t is FALSE:
        return False
    k = _propositional(t)
    if k is not None:
        return _TRUTH[k[0]](*[_eval_bool(x, val) for x in k[1:]])
    return val[t]


def _eval_literal(l: Literal, val: dict) -> bool:
    if l.is_shorthand:
        v = _eval_bool(l.lhs, val)
    elif l.lhs.ty is O:
        v = _eval_bool(l.lhs, val) is _eval_bool(l.rhs, val)
    else:
        v = l.lhs is l.rhs
    return v is l.pos


def ground_step_valid(parents: list, child: Clause) -> Optional[bool]:
    """Exhaustive valuation check of one ground propositional step.

    Returns None when the step is outside the propositional fragment
    (free variables, non-Boolean equations, connectives inside atoms),
    else whether the conjunction of the parents entails the child.
    """
    clauses = list(parents) + [child]
    atoms: list = []
    for c in clauses:
        for l in c.literals:
            if l.free_vars():
                return None
            if l.is_shorthand:
                if not _collect_atoms(l.lhs, atoms):
                    return None
            elif l.lhs.ty is O:
                if not (_collect_atoms(l.lhs, atoms)
                        and _collect_atoms(l.rhs, atoms)):
                    return None
            elif l.lhs is not l.rhs:
                # a proper non-Boolean equation needs equality reasoning
                return None
    for a in atoms:
        for b in atoms:
            if a is not b and any(s is a for _, s in subterm_positions(b)):
                return None
    for mask in range(1 << len(atoms)):
        val = {a: bool(mask >> i & 1) for i, a in enumerate(atoms)}
        if all(any(_eval_literal(l, val) for l in p.literals)
               for p in clauses[:-1]) \
                and not any(_eval_literal(l, val) for l in child.literals):
            return False
    return True


def check_ground_steps(records: dict, proof: list) -> list:
    """Valuation-check every ground propositional proof step.

    Steps with status "esa" only preserve satisfiability (they mint
    fresh symbols), so entailment checking is restricted to the
    theorem-status rules.
    """
    complaints = []
    for d in proof:
        if d.clause is None or not d.parents or d.status != "thm":
            continue
        parent_clauses = [records[p].clause for p in d.parents]
        if any(c is None for c in parent_clauses):
            continue
        ok = ground_step_valid(parent_clauses, d.clause)
        if ok is False:
            complaints.append(f"{d.id} ({d.rule}): ground step invalid")
    return complaints


def replay_proof(result, problem) -> list:
    """Full structural replay plus ground checks of the refutation in
    `result`; `problem` is the problem that run saturated."""
    proof = extract_proof(result.records, result.empty_id)
    checker = ProofChecker(result.records, problem, result.naming_threshold,
                           result.ordered)
    out = checker.check(proof)
    out.extend(check_ground_steps(result.records, proof))
    return out
