"""Independent validation of emitted refutations.

Every derivation record is checked in the same three steps.  Its
parents must be the rule's premises: as many as the rule takes, each
holding the formula or clause the rule reads.  The function the search
used for the step is rerun on them: a preprocessing function,
`normalize`, the search's enumerator of a generating rule (on the
parents in their recorded order), `simplify` by the recorded units, or
`calculus.unified` by the recorded bindings.  The record's formula must
be what it gives, or its clause one of the clauses it draws.  A record
without parents, an input or a negated conjecture of the problem, must
hold the problem formula its source names, stated with the record's
rule and role as the search states it (`saturation.stated_as`).
Ground propositional steps are additionally validated by exhaustive
truth-valuation checking.
"""

from __future__ import annotations

import sys
from operator import attrgetter
from typing import Optional

from .terms import (
    FALSE, LOGICAL_NAMES, O, Subst, Term, TRUE, canon, constants, neg,
    subterm_positions,
)
from .clauses import Clause, Literal, alpha_key, prop_literal
from .cnf import (
    definition_map, expand_definitions, formula_kind, miniscope, normalize,
)
from .calculus import (
    UnitIndex, constraint_pairs, eqfac_candidates, extensionality, inj_rule,
    inst_types, instantiate, paramod_ordered, prim_subst, simplify, unified,
)
from .saturation import extract_proof, stated_as
from .unification import _Clash, simplify_pairs
from .tptp import RULE_VOCABULARY, rule_status


class ReplayError(Exception):
    pass


# what a rule reads of each parent: its formula, its clause, or either
_formula, _clause = attrgetter("formula"), attrgetter("clause")


def _conjecture(p):
    """The formula of a conjecture as the search states it, an `input`
    record of role `conjecture`: the one premise a negation step reads."""
    return p.formula if p.rule == "input" and p.role == "conjecture" \
        else None


def _either(p):
    if p.clause is None and p.formula is not None:
        return Clause([prop_literal(p.formula, True)])
    return p.clause


# the parent counts of a contraction: its clause, then any units
UNITS = range(1, sys.maxsize)


class ProofChecker:
    """Replays the records of `result`, a run of `problem`, with the
    run's naming threshold and, when `Result.ordered`, its resolution on
    maximal atoms only.

    Every symbol the replay mints comes from one copy of the run's
    signature, past the run's own fresh symbols, so a constant is minted
    by the run or by the replay exactly when its name is in
    `self.sig.system`.  Clauses of the esa rules, which mint constants,
    are compared up to renaming of the minted constants their first
    parent does not hold; all others up to renaming of free variables.
    """

    def __init__(self, result, problem):
        self.records = result.records
        self.naming_threshold = result.naming_threshold
        self.ordered = result.ordered
        self.defs = definition_map(problem.formulas)
        self.sig = problem.signature.copy()
        self.inst_types = inst_types(self.sig)
        # (source, rule, role) -> the formulas of the problem a record
        # without parents may state (`stated_as`)
        self.stated = {}
        for f in problem.formulas:
            stated = stated_as(f.role)
            if stated is not None:
                self.stated.setdefault(((problem.name, f.name),) + stated,
                                       []).append(f.formula)

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
            if d.rule not in self.REPLAY:
                complaints.append(f"{d.id}: no replay for rule {d.rule}")
            elif not missing:
                try:
                    self._replay(d, [self.records[p] for p in d.parents])
                except ReplayError as e:
                    complaints.append(f"{d.id} ({d.rule}): {e}")
        return complaints

    def _replay(self, d, parents):
        """Check that the parents are the rule's premises, rerun the
        rule's step on them and look for d's formula or clause among
        what it gives."""
        reads, counts, step, complaint = self.REPLAY[d.rule]
        premises = [reads(p) for p in parents]
        if len(premises) not in counts or any(x is None for x in premises):
            raise ReplayError("the parents are not the rule's premises")
        out = list(step(self, d, *premises))
        # an esa step may rename the constants minted by the run or the
        # replay, the step's own included, that its first parent does
        # not hold; the parent's own must come through unchanged
        minted = frozenset()
        if rule_status(d.rule) == "esa":
            minted = self.sig.system - {
                k.name for t in parents[0].terms() for k in constants(t)}

        def key(x):
            return x if isinstance(x, Term) else alpha_key(x, minted)
        made = d.formula if d.clause is None else d.clause
        if made is None or key(made) not in map(key, out):
            raise ReplayError(
                complaint or f"no {d.rule} inference produces this clause")

    def _stated(self, d):
        """The problem formulas d may state, by its source, rule and
        role."""
        return self.stated.get((d.source, d.rule, d.role), ())

    def _contract(self, d, c, *units):
        """`simplify` by the unit parents.  The search records a rewrite
        step exactly when units rewrote or cut the clause."""
        if d.rule == "rewrite" and not units:
            raise ReplayError("a rewrite step without a unit parent")
        if d.rule == "simp" and units:
            raise ReplayError("a simp step with a unit parent")
        out, _ = simplify(c, UnitIndex(zip(d.parents[1:], units)))
        return () if out is None else (out,)

    def _unify(self, d, c):
        """c's constraints unified by the recorded bindings, which may
        leave only flex-flex pairs."""
        subst = Subst()
        for v, t in d.bindings:
            subst = subst.bind(v, t)
        try:
            _, flex_rigid, flex_flex = simplify_pairs(constraint_pairs(c),
                                                      subst)
        except _Clash:
            raise ReplayError("recorded bindings clash with the constraints")
        if flex_rigid:
            raise ReplayError("recorded bindings leave a rigid constraint")
        return (unified(c, subst, flex_flex),)

    # rule -> (what it reads of each parent, its parent counts, its step
    # as the search takes it on the checker, the record and the premises,
    # and the complaint when the step does not give the record's formula
    # or clause).  A record without parents, an input or a problem's
    # negated conjecture, states the problem formula its source names.
    REPLAY = {
        "input": (_formula, (0,), lambda self, d: self._stated(d),
                  "not the problem formula its source names"),
        "neg_conjecture": (
            _conjecture, (0, 1),
            lambda self, d, *f: (canon(neg(f[0])),) if f
            else self._stated(d),
            "neither its parent negated nor the problem formula its "
            "source names"),
        "defexp_and_simp_and_etaexpand": (
            _formula, (1,),
            lambda self, d, f: (expand_definitions(f, self.defs),),
            "definition expansion does not replay"),
        "miniscope": (_formula, (1,),
                      lambda self, d, f: (canon(miniscope(f)),),
                      "miniscoping does not replay"),
        "cnf": (_either, (1,), lambda self, d, c: normalize(
            c, self.sig, self.naming_threshold),
            "clausification does not produce this clause"),
        **dict.fromkeys(("rewrite", "simp"), (
            _clause, UNITS, _contract, "simplification does not replay")),
        **dict.fromkeys(("pre_uni", "pattern_uni"), (
            _clause, (1,), _unify,
            "substituted clause differs from the record")),
        # the generating rules, by the search's enumerator of each
        "eqfactor_ordered": (_clause, (1,),
                             lambda self, d, c: eqfac_candidates(c), None),
        "paramod_ordered": (_clause, (2,), lambda self, d, c, e:
                            paramod_ordered(c, e, self.sig, self.ordered),
                            None),
        **dict.fromkeys(("bool_ext", "func_ext"), (
            _clause, (1,), lambda self, d, c: [
                x for r, x in extensionality(c, self.sig) if r == d.rule],
            None)),
        "prim_subst": (_clause, (1,), lambda self, d, c: prim_subst(
            c, self.sig, self.inst_types), None),
        "inj": (_clause, (1,), lambda self, d, c: inj_rule(
            c, self.sig, set()), None),
        "instantiate": (_clause, (1,), lambda self, d, c: instantiate(c),
                        None),
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
    out = ProofChecker(result, problem).check(proof)
    out.extend(check_ground_steps(result.records, proof))
    return out
