"""Given-clause saturation with preprocessing and proof reconstruction.

The main loop is a DISCOUNT-style two-set algorithm: unprocessed clauses
U and processed clauses P, a weight/age given-clause heuristic, forward
and backward subsumption, renormalization of non-CNF conclusions, and
eager (pre-)unification of constraint literals with retention of the
raw constrained clause.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .terms import (
    FunType, I, O, Signature, Term, base_types_in, canon, neg,
)
from .clauses import (
    Clause, Literal, alpha_key, clause_weight, is_empty_clause,
    is_flex_flex, literal, prop_literal, rename_clause, subsumes,
)
from .cnf import (
    NAMING_THRESHOLD, OutOfTime, PreprocessConfig, definition_map,
    expand_term, formula_kind, miniscope, normalize,
    replace_defined_equalities_term,
)
from .calculus import (
    bool_ext, eqfac_candidates, exhaustive_instantiate, func_ext, inj_rule,
    para_candidates, prim_subst, simplify,
)
from .unification import (
    FAIL, NOT_PATTERN, pattern_unify, pre_unify,
)
from .tptp import Problem, rule_status


# Given-clause heuristic: every AGE_RATIO-th pick is the oldest clause,
# the others the lightest.
AGE_RATIO = 5
# Clauses heavier than this are not kept; a run that dropped one can no
# longer claim saturation.
MAX_CLAUSE_WEIGHT = 200
# The run gives up once this many derivation records exist.
MAX_CLAUSES = 200000


@dataclass
class ProverConfig:
    time_limit: float = 60.0
    unif_depth: int = 8
    unifiers_per_inference: int = 4
    ps_limit: int = 3
    naming_threshold: int = NAMING_THRESHOLD
    enable_inj: bool = True


@dataclass
class Derived:
    id: int
    rule: str                     # "input" or a proof-rule name
    status: str                   # thm / esa / cth / axiom-ish tag
    parents: tuple = ()
    clause: Optional[Clause] = None
    formula: Optional[Term] = None
    role: str = "plain"
    source: Optional[tuple] = None   # (file name, original formula name)
    bindings: tuple = ()             # ((Free, Term), ...) on first parent
    ps_depth: int = 0
    from_conjecture: bool = False


@dataclass
class Result:
    status: str
    records: dict = field(default_factory=dict)
    empty_id: Optional[int] = None
    signature: Optional[Signature] = None
    naming_threshold: int = NAMING_THRESHOLD  # clausification of the run


class Saturation:
    def __init__(self, problem: Problem, config: ProverConfig,
                 pre: Optional[PreprocessConfig] = None):
        self.problem = problem
        self.config = config
        self.pre = pre if pre is not None else PreprocessConfig()
        self.sig = problem.signature
        self.records: dict = {}
        self._next_id = 0
        self.seen: dict = {}          # alpha_key -> id
        self.U: list = []             # ids
        self.P: list = []             # ids
        self.units: list = []         # _units() of the current P
        self.deadline = None
        self.inj_done: set = set()
        self.empty_id: Optional[int] = None
        self.picks = 0
        self.dropped_heavy = False    # the weight cut discarded a clause
        # primitive substitution instantiates quantifiers and equations at
        # the problem's types; only the parser and the modal embedding
        # declare non-system constants, so these are fixed for the run
        self.inst_types = base_types_in(
            ty for name, ty in self.sig.constants.items()
            if name not in self.sig.system) or (I,)

    # -- record keeping -----------------------------------------------------

    def record(self, rule: str, parents: tuple = (),
               clause: Optional[Clause] = None, formula: Optional[Term] = None,
               role: str = "plain", source=None, bindings=(),
               ps_extra: int = 0) -> Derived:
        self._next_id += 1
        parent_recs = [self.records[p] for p in parents]
        d = Derived(
            self._next_id, rule, rule_status(rule), tuple(parents), clause,
            formula,
            role, source, tuple(bindings),
            max([r.ps_depth for r in parent_recs], default=0) + ps_extra,
            any(r.from_conjecture for r in parent_recs)
            or rule == "neg_conjecture")
        self.records[d.id] = d
        return d

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    # -- preprocessing ------------------------------------------------------

    def preprocess(self) -> Optional[str]:
        """Turn the problem into initial clauses; returns an early status."""
        prob = self.problem
        expanded_defs = definition_map(prob.formulas)

        work = []
        for f in prob.formulas:
            if f.role in ("type", "logic", "definition"):
                continue
            src = (prob.name, f.name)
            if f.role == "conjecture":
                inp = self.record("input", (), formula=f.formula,
                                  role="conjecture", source=src)
                cur = self.record("neg_conjecture", (inp.id,),
                                  formula=canon(neg(f.formula)),
                                  role="negated_conjecture")
            elif f.role == "negated_conjecture":
                cur = self.record("neg_conjecture", (),
                                  formula=f.formula,
                                  role="negated_conjecture", source=src)
            else:
                cur = self.record("input", (), formula=f.formula,
                                  role="axiom", source=src)
            work.append(cur)

        clauses = []
        for cur in work:
            t = cur.formula
            t2 = t
            if self.pre.expand_definitions and expanded_defs:
                t2 = expand_term(t2, expanded_defs)
            if self.pre.replace_defined_eq:
                t2 = canon(replace_defined_equalities_term(t2))
            if t2 is not t:
                cur = self.record("defexp_and_simp_and_etaexpand", (cur.id,),
                                  formula=t2)
                t = t2
            if self.pre.miniscope:
                t2 = canon(miniscope(t))
                if t2 is not t:
                    cur = self.record("miniscope", (cur.id,),
                                      formula=t2)
                    t = t2
            start = Clause([prop_literal(t, True)])
            produced = sorted(
                normalize(start, self.sig, self.config.naming_threshold,
                          self.deadline),
                key=lambda c: c._key)
            for c in produced:
                clauses.append(self.record("cnf", (cur.id,), clause=c))

        # exhaustive instantiation of finite-typed variables
        final = []
        queue = list(clauses)
        for d in queue:     # also visits the instances appended below
            v = next((x for x in sorted(d.clause.free_vars(),
                                        key=lambda v: v.name)
                      if x.ty in self.pre.exhaustive_inst_types), None)
            if v is None:
                final.append(d)
                continue
            for inst in sorted(exhaustive_instantiate(d.clause, v),
                               key=lambda c: c._key):
                queue.append(self.record("instantiate", (d.id,),
                                         clause=inst))
        for d in final:
            self.insert_new(d)
        return None

    # -- clause intake ------------------------------------------------------

    def insert_new(self, d: Derived):
        """Simplify, renormalize, eagerly unify and enqueue a new clause."""
        stack = [d]
        while stack:
            cur = stack.pop()
            c = cur.clause
            key = alpha_key(c)
            if key in self.seen:
                continue
            # renormalize non-CNF clauses
            if _needs_cnf(c):
                for nc in sorted(normalize(c, self.sig,
                                           self.config.naming_threshold,
                                           self.deadline),
                                 key=lambda x: x._key):
                    if nc != c:
                        stack.append(self.record("cnf", (cur.id,),
                                                 clause=nc))
                    else:
                        self._enqueue(cur, key)
                continue
            out = simplify(c, self.units)
            if out.clause is None:
                continue
            if out.changed:
                rule = "rewrite" if "rewrite" in out.rules else "simp"
                cur = self.record(rule, (cur.id,) + tuple(out.used_units),
                                  clause=out.clause)
                stack.append(cur)
                continue
            # splitting a ground Boolean equation is an equivalence, so
            # the parent clause can be replaced by the two halves
            gi = _ground_bool_eq(out.clause)
            if gi is not None:
                for half in bool_ext(out.clause, gi):
                    stack.append(self.record("bool_ext", (cur.id,),
                                             clause=half))
                continue
            self._enqueue(cur, key)
            self._eager_unify(cur)

    def _enqueue(self, d: Derived, key: tuple):
        """Keep a new clause in U unless it is cut or subsumed; `key` is
        its `alpha_key`, which the caller found unseen."""
        c = d.clause
        if is_empty_clause(c) and self.empty_id is None:
            self.empty_id = d.id
        if clause_weight(c) > MAX_CLAUSE_WEIGHT and not is_empty_clause(c):
            self.dropped_heavy = True
            return
        for pid in self.P:
            if subsumes(self.records[pid].clause, c):
                return
        self.seen[key] = d.id
        self.U.append(d.id)

    def _units(self) -> list:
        """(id, clause) of the non-flex-flex unit clauses in P."""
        out = []
        for pid in self.P:
            c = self.records[pid].clause
            if len(c.literals) == 1 and not is_flex_flex(c.literals[0]):
                out.append((pid, c))
        return out

    def _eager_unify(self, d: Derived):
        c = d.clause
        constraints = [l for l in c.literals
                       if not l.pos and not l.is_shorthand]
        if not constraints:
            return
        pairs = [(l.lhs, l.rhs) for l in constraints]
        rest = [l for l in c.literals if l.pos or l.is_shorthand]
        res = pattern_unify(pairs, self.sig)
        if res is FAIL:
            return
        if res is not NOT_PATTERN:
            self._emit_unified(d, rest, res, (), "pattern_uni")
            return
        outcome = pre_unify(pairs, self.sig,
                            depth=self.config.unif_depth,
                            limit=self.config.unifiers_per_inference,
                            deadline=self.deadline)
        for u in outcome.unifiers:
            self._emit_unified(d, rest, u.subst, u.residuals, "pre_uni")

    def _emit_unified(self, d: Derived, rest, subst, residuals, rule):
        lits = [Literal(subst.apply(l.lhs), subst.apply(l.rhs), l.pos)
                for l in rest]
        for a, b in residuals:
            lits.append(literal(a, b, False))
        nc = Clause(lits)
        if nc == d.clause:
            return
        binds = sorted(subst.items(d.clause.free_vars()),
                       key=lambda it: it[0].name)
        self.insert_new(self.record(rule, (d.id,), clause=nc,
                                    bindings=binds))

    # -- main loop ----------------------------------------------------------

    def run(self) -> Result:
        self.deadline = time.monotonic() + self.config.time_limit
        try:
            self.preprocess()
        except RecursionError:
            return self._result("GaveUp")
        except OutOfTime:
            return self._result("Timeout")
        while True:
            if self.empty_id is not None:
                return self._refutation_result()
            if self.out_of_time():
                return self._result("Timeout")
            if not self.U:
                return self._saturated_result()
            if self._next_id > MAX_CLAUSES:
                return self._result("GaveUp")
            gid = self._select()
            g = self.records[gid]
            # forward simplification against current units
            out = simplify(g.clause, self.units)
            if out.clause is None:
                continue
            if out.changed:
                rule = "rewrite" if "rewrite" in out.rules else "simp"
                g = self.record(rule, (gid,) + tuple(out.used_units),
                                clause=out.clause)
                self.seen.setdefault(alpha_key(g.clause), g.id)
                gid = g.id
            if is_empty_clause(g.clause):
                self.empty_id = gid
                continue
            if any(subsumes(self.records[p].clause, g.clause)
                   for p in self.P):
                continue
            self.P = [p for p in self.P
                      if not subsumes(g.clause, self.records[p].clause)]
            self.P.append(gid)
            self.units = self._units()
            try:
                self._generate(gid)
            except OutOfTime:
                return self._result("Timeout")
        # unreachable

    def _select(self) -> int:
        self.picks += 1
        if self.picks % AGE_RATIO == 0:
            best = min(self.U)
        else:
            best = min(self.U, key=lambda i: (
                clause_weight(self.records[i].clause), i))
        self.U.remove(best)
        return best

    def _generate(self, gid: int):
        g = self.records[gid]
        produced = []
        # factoring
        for c in eqfac_candidates(g.clause):
            produced.append(("eqfactor_ordered", (gid,), c, 0))
        # paramodulation with every processed clause (including itself)
        for pid in list(self.P):
            if self.out_of_time():
                break
            p = self.records[pid]
            variant, _ = rename_clause(p.clause, self.sig)
            for c in para_candidates(g.clause, variant):
                produced.append(("paramod_ordered", (gid, pid), c, 0))
            if pid != gid:
                variant_g, _ = rename_clause(g.clause, self.sig)
                for c in para_candidates(p.clause, variant_g):
                    produced.append(("paramod_ordered", (pid, gid), c, 0))
        # extensionality
        for i, l in enumerate(g.clause.literals):
            if l.is_shorthand:
                continue
            if l.lhs.ty is O:
                for c in bool_ext(g.clause, i):
                    produced.append(("bool_ext", (gid,), c, 0))
            elif isinstance(l.lhs.ty, FunType):
                produced.append(("func_ext", (gid,),
                                 func_ext(g.clause, i, self.sig), 0))
        # primitive substitution
        if g.ps_depth < self.config.ps_limit:
            for i in range(len(g.clause.literals)):
                for c in prim_subst(g.clause, i, self.sig, self.inst_types):
                    produced.append(("prim_subst", (gid,), c, 1))
        # injectivity
        if self.config.enable_inj:
            c = inj_rule(g.clause, self.sig, self.inj_done)
            if c is not None:
                produced.append(("inj", (gid,), c, 0))
        for rule, parents, clause, ps_extra in produced:
            if self.out_of_time() or self.empty_id is not None:
                return
            self.insert_new(self.record(rule, parents, clause=clause,
                                        ps_extra=ps_extra))

    # -- results ------------------------------------------------------------

    def _result(self, status: str, empty_id: Optional[int] = None) -> Result:
        return Result(status, self.records, empty_id, self.sig,
                      self.config.naming_threshold)

    def _refutation_result(self) -> Result:
        status = classify_refutation(self.records, self.empty_id,
                                     self.problem.conjecture() is not None)
        return self._result(status, self.empty_id)

    def _saturated_result(self) -> Result:
        """Satisfiable or CounterSatisfiable only when the saturation is
        complete: every processed clause is ground and no clause was
        dropped by the weight cut."""
        ground = all(not self.records[p].clause.free_vars() for p in self.P)
        if not ground or self.dropped_heavy:
            return self._result("GaveUp")
        has_conj = any(r.rule == "neg_conjecture"
                       for r in self.records.values())
        return self._result("CounterSatisfiable" if has_conj
                            else "Satisfiable")


def _ground_bool_eq(c: Clause):
    """Index of a variable-free proper Boolean equation literal, if any."""
    for i, l in enumerate(c.literals):
        if not l.is_shorthand and l.lhs.ty is O \
                and not l.lhs.fvs and not l.rhs.fvs:
            return i
    return None


def _needs_cnf(c: Clause) -> bool:
    for l in c.literals:
        if l.lhs is l.rhs:
            return True
        if l.is_shorthand and formula_kind(l.lhs) is not None:
            return True
        if l.is_shorthand and l.lhs.ty is not O:
            return True
    return False


def classify_refutation(records: dict, empty_id: int,
                        had_conjecture: bool) -> str:
    if not had_conjecture and not any(
            r.rule == "neg_conjecture" for r in records.values()):
        return "Unsatisfiable"
    return ("Theorem" if records[empty_id].from_conjecture
            else "ContradictoryAxioms")


def extract_proof(records: dict, empty_id: int) -> list:
    """Minimal ancestor chain of the empty clause in topological order."""
    needed = set()
    stack = [empty_id]
    while stack:
        i = stack.pop()
        if i in needed:
            continue
        needed.add(i)
        stack.extend(records[i].parents)
    # `record` needs every parent recorded already, so every parent id is
    # smaller than its child's and id order is topological
    return [records[i] for i in sorted(needed)]


def saturate(problem: Problem, config: Optional[ProverConfig] = None,
             pre: Optional[PreprocessConfig] = None) -> Result:
    sat = Saturation(problem, config or ProverConfig(), pre)
    return sat.run()
