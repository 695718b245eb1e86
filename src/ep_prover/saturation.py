"""Given-clause saturation with preprocessing and proof reconstruction.

The main loop is a DISCOUNT-style two-set algorithm: unprocessed clauses
U and processed clauses P, a weight/age given-clause heuristic, forward
and backward subsumption, renormalization of non-CNF conclusions, and
unification of constraint literals with retention of the raw
constrained clause.  As in DISCOUNT, a new clause meets P when it is
picked as the given clause, not when it is made: forward subsumption
by P runs then, and a clause it discards is never used.  Constraints
in the pattern fragment, and clauses made only of constraints, are
unified when the clause is made; any other constraint set of a clause
under the weight cut is pre-unified only when the search picks that
clause and keeps it, a simple form of solving constraints as the
search needs them (Vukmirović et al., "Making Higher-Order
Superposition Work", CADE 2021).  Paramodulation leaves
out the literals of its conclusions that are false by construction, so
a ground resolvent needs no renormalization; what is renormalized are
literals over a connective or quantifier, and the trivial literals
other steps make (a tautology's [t = t]^tt among them).

A run whose initial clauses are all ground propositional decides once,
after preprocessing, to resolve only on the maximal atom of each
premise, with the atoms it minted ranked lowest
(`calculus.ordered_resolution`); its `Result` tells the proof checker.
Such a run reads each clause's maximal literal once, when the clause
enters P, and pairs the given clause only with the clauses of P whose
maximal literal has the same atom and the opposite sign, resolving into
the negative one; it runs no other generating rule, since none can fire
on ground propositional clauses, and computes no types for primitive
substitution.  Every other run keeps the unordered calculus.
"""

from __future__ import annotations

import gc
import time
from typing import Optional

from .terms import O, Term, canon, neg
from .clauses import (
    Clause, alpha_key, clause_weight, is_empty_clause, is_flex_flex,
    prop_literal, subsumes,
)
from .cnf import (
    NAMING_THRESHOLD, OutOfTime, definition_map, expand_definitions,
    formula_kind, miniscope, normalize,
)
from .calculus import (
    UnitIndex, _maximal, bool_ext, constraint_pairs, eqfac_candidates,
    extensionality, inj_rule, inst_types, instantiate, ordered_resolution,
    paramod_ordered, prim_subst, simplify, unified,
)
from .unification import (
    DEFAULT_DEPTH, DEFAULT_LIMIT, FAIL, NOT_PATTERN, pattern_unify,
    pre_unify,
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


class ProverConfig:
    """The settings of one run.  The defaults are class attributes, which
    the CLI's option table reads."""
    time_limit = 60.0
    unif_depth = DEFAULT_DEPTH
    unifiers_per_inference = DEFAULT_LIMIT
    ps_limit = 3
    naming_threshold = NAMING_THRESHOLD
    enable_inj = True

    def __init__(self, time_limit=time_limit, unif_depth=unif_depth,
                 unifiers_per_inference=unifiers_per_inference,
                 ps_limit=ps_limit, naming_threshold=naming_threshold,
                 enable_inj=enable_inj):
        self.time_limit = time_limit
        self.unif_depth = unif_depth
        self.unifiers_per_inference = unifiers_per_inference
        self.ps_limit = ps_limit
        self.naming_threshold = naming_threshold
        self.enable_inj = enable_inj


class Derived:
    __slots__ = ("id", "rule", "status", "parents", "clause", "formula",
                 "role", "source", "bindings", "ps_depth")

    def __init__(self, id: int, rule: str, status: str, parents: tuple = (),
                 clause: Optional[Clause] = None,
                 formula: Optional[Term] = None, role: str = "plain",
                 source: Optional[tuple] = None, bindings: tuple = (),
                 ps_depth: int = 0):
        self.id = id
        self.rule = rule            # "input" or a proof-rule name
        self.status = status        # thm / esa / cth / axiom-ish tag
        self.parents = parents
        self.clause = clause
        self.formula = formula
        self.role = role
        self.source = source        # (file name, original formula name)
        self.bindings = bindings    # ((Free, Term), ...) on first parent
        self.ps_depth = ps_depth

    def terms(self):
        """The literal sides of the clause, or else the formula."""
        if self.clause is not None:
            for l in self.clause.literals:
                yield l.lhs
                yield l.rhs
        elif self.formula is not None:
            yield self.formula


class Result:
    __slots__ = ("status", "records", "empty_id", "naming_threshold",
                 "ordered")

    def __init__(self, status: str, records: Optional[dict] = None,
                 empty_id: Optional[int] = None,
                 naming_threshold: int = NAMING_THRESHOLD,
                 ordered: bool = False):
        self.status = status
        self.records = {} if records is None else records
        self.empty_id = empty_id
        self.naming_threshold = naming_threshold  # clausification of the run
        self.ordered = ordered      # the run resolved on maximal atoms only


class Saturation:
    def __init__(self, problem: Problem, config: ProverConfig):
        self.problem = problem
        self.config = config
        self.sig = problem.signature
        self.records: dict = {}
        self._next_id = 0
        self.seen: set = set()        # alpha_keys
        self.U: list = []             # ids
        self.P: list = []             # ids
        self.units = UnitIndex()      # _units() of the current P
        self.deadline = None
        self.inj_done: set = set()
        # id of a clause in U -> the pairs of its constraint set, which
        # wait for the clause to be picked; see `_unify_at_intake`
        self.deferred: dict = {}
        self.empty_id: Optional[int] = None
        self.picks = 0
        self.dropped_heavy = False    # the weight cut discarded a clause
        self.ordered = False          # see `ordered_resolution`
        # id in P of an ordered run -> its maximal literal (`_maximal`)
        self.maximal: dict = {}
        # the types of primitive substitution, which `_run` computes
        # only for a run where prim_subst can fire
        self.inst_types = ()
        self.conjectured = any(f.role in ("conjecture", "negated_conjecture")
                               for f in problem.formulas)

    # -- record keeping -----------------------------------------------------

    def record(self, rule: str, parents: tuple = (),
               clause: Optional[Clause] = None, formula: Optional[Term] = None,
               role: str = "plain", source=None, bindings=(),
               ps_extra: int = 0) -> Derived:
        self._next_id += 1
        d = Derived(
            self._next_id, rule, rule_status(rule), tuple(parents), clause,
            formula,
            role, source, tuple(bindings),
            max([self.records[p].ps_depth for p in parents], default=0)
            + ps_extra)
        self.records[d.id] = d
        return d

    def _poll(self):
        """Raise OutOfTime once the deadline has passed."""
        if time.monotonic() > self.deadline:
            raise OutOfTime

    # -- preprocessing ------------------------------------------------------

    def preprocess(self):
        """Turn the problem into initial clauses and insert them."""
        prob = self.problem
        expanded_defs = definition_map(prob.formulas)

        work = []
        for f in prob.formulas:
            stated = stated_as(f.role)
            if stated is None:
                continue
            rule, role = stated
            cur = self.record(rule, (), formula=f.formula, role=role,
                              source=(prob.name, f.name))
            if f.role == "conjecture":
                cur = self.record("neg_conjecture", (cur.id,),
                                  formula=canon(neg(f.formula)),
                                  role="negated_conjecture")
            work.append(cur)

        clauses = []
        for cur in work:
            t = cur.formula
            t2 = expand_definitions(t, expanded_defs)
            if t2 is not t:
                cur = self.record("defexp_and_simp_and_etaexpand", (cur.id,),
                                  formula=t2)
                t = t2
            t2 = canon(miniscope(t))
            if t2 is not t:
                cur = self.record("miniscope", (cur.id,), formula=t2)
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
            insts = instantiate(d.clause)
            if not insts:
                final.append(d)
            for inst in insts:
                queue.append(self.record("instantiate", (d.id,),
                                         clause=inst))
        for d in final:
            self.insert_new(d)

    # -- clause intake ------------------------------------------------------

    def insert_new(self, d: Derived):
        """Simplify, renormalize and enqueue a new clause, and unify its
        constraints or defer them (`_unify_at_intake`).  A record that
        `_contract` returned is not contracted again: `simplify` stops
        only at a fixpoint, and the units do not change meanwhile."""
        stack = [d]
        fresh = None        # the record `_contract` returned last
        while stack:
            cur = stack.pop()
            c = cur.clause
            key = alpha_key(c)
            if key in self.seen:
                continue
            # renormalize non-CNF clauses (paramodulation yields no
            # trivially false literal, so a ground resolvent comes here
            # in CNF already)
            if _needs_cnf(c):
                for nc in sorted(normalize(c, self.sig,
                                           self.config.naming_threshold,
                                           self.deadline),
                                 key=lambda x: x._key):
                    stack.append(self.record("cnf", (cur.id,), clause=nc))
                continue
            if cur is not fresh:
                nxt = self._contract(cur)
                if nxt is not cur:
                    if nxt is not None:
                        stack.append(nxt)
                        fresh = nxt
                    continue
            # splitting a ground Boolean equation is an equivalence, so
            # the parent clause can be replaced by the two halves
            gi = _ground_bool_eq(c)
            if gi is not None:
                for half in bool_ext(c, gi):
                    stack.append(self.record("bool_ext", (cur.id,),
                                             clause=half))
                continue
            self._unify_at_intake(cur, self._enqueue(cur, key))

    def _contract(self, d: Derived) -> Optional[Derived]:
        """d's clause contracted by the units of P: None when redundant, d
        when nothing applies, else the record of a `rewrite` step when
        units rewrote or cut it, of a `simp` step otherwise."""
        c, used = simplify(d.clause, self.units, self.deadline)
        if c is None or c is d.clause:
            return None if c is None else d
        return self.record("rewrite" if used else "simp", (d.id,) + used,
                           clause=c)

    def _enqueue(self, d: Derived, key: tuple) -> bool:
        """Keep a new clause in U unless the weight cut drops it, and tell
        whether it was kept; `key` is its `alpha_key`, which the caller
        found unseen.  Whether P subsumes it is checked at its pick."""
        c = d.clause
        if is_empty_clause(c) and self.empty_id is None:
            self.empty_id = d.id
        if clause_weight(c) > MAX_CLAUSE_WEIGHT and not is_empty_clause(c):
            self.dropped_heavy = True
            return False
        self.seen.add(key)
        self.U.append(d.id)
        return True

    def _units(self) -> UnitIndex:
        """The index of the non-flex-flex unit clauses in P."""
        index = UnitIndex()
        for pid in self.P:
            c = self.records[pid].clause
            if len(c.literals) == 1 and not is_flex_flex(c.literals[0]):
                index.add(pid, c)
        return index

    def _unify_at_intake(self, d: Derived, kept: bool):
        """Unify the constraint literals of a new clause, which `_enqueue`
        `kept` in U or dropped by the weight cut.  A pattern unifier is
        emitted at once, and so are the pre-unifiers of a clause made only
        of constraints, since any of them ends the run.  Any other
        constraint set outside the pattern fragment waits in `deferred`
        until its clause is picked (`_pre_unify_given`); that of a clause
        over the weight cut, or discarded at its pick, is never solved."""
        pairs = constraint_pairs(d.clause)
        if not pairs:
            return
        res = pattern_unify(pairs)
        if res is FAIL:
            return
        if res is not NOT_PATTERN:
            self._emit_unified(d, res, (), "pattern_uni")
        elif len(pairs) == len(d.clause.literals):
            self._pre_unify(d, pairs)
        elif kept:
            self.deferred[d.id] = pairs

    def _pre_unify_given(self, gid: int):
        """Solve the deferred constraint set of the given clause, if any.
        Every deferred id is in U until it is picked, so a run that
        empties U has solved the constraint set of every clause it did
        not find redundant or subsumed."""
        pairs = self.deferred.pop(gid, None)
        if pairs is not None:
            self._pre_unify(self.records[gid], pairs)

    def _pre_unify(self, d: Derived, pairs):
        out = pre_unify(pairs, self.sig, depth=self.config.unif_depth,
                        limit=self.config.unifiers_per_inference,
                        deadline=self.deadline)
        for u in out.unifiers:
            self._emit_unified(d, u.subst, u.residuals, "pre_uni")

    def _emit_unified(self, d: Derived, subst, residuals, rule):
        nc = unified(d.clause, subst, residuals)
        if nc == d.clause:
            return
        binds = sorted(subst.items(d.clause.free_vars()),
                       key=lambda it: it[0].name)
        self.insert_new(self.record(rule, (d.id,), clause=nc,
                                    bindings=binds))

    # -- main loop ----------------------------------------------------------

    def run(self) -> Result:
        """Preprocess and saturate.  The search allocates no reference
        cycles, so reference counting frees all it drops: Python's
        cyclic collector is paused for the run, which spares it walks
        over the growing term table, and restored as the caller had it."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run()
        except OutOfTime:
            return self._result("Timeout")
        finally:
            if was_enabled:
                gc.enable()

    def _run(self) -> Result:
        self.deadline = time.monotonic() + self.config.time_limit
        try:
            self.preprocess()
        except RecursionError:
            return self._result("GaveUp")
        self.ordered = ordered_resolution(self.records[i].clause
                                          for i in self.U)
        if not self.ordered:
            self.inst_types = inst_types(self.sig)
        while True:
            # a refutation found at the deadline still wins
            if self.empty_id is not None:
                return self._refutation_result()
            self._poll()
            if not self.U:
                return self._saturated_result()
            if self._next_id > MAX_CLAUSES:
                return self._result("GaveUp")
            gid = self._select()
            # forward simplification against current units
            g = self._contract(self.records[gid])
            if g is not None and g.id != gid:
                self.seen.add(alpha_key(g.clause))
            # forward subsumption by all of P; a clause discarded here is
            # never pre-unified
            if g is None or any(subsumes(self.records[p].clause, g.clause)
                                for p in self.P):
                self.deferred.pop(gid, None)
                continue
            if is_empty_clause(g.clause):
                self.empty_id = g.id
                continue
            self._pre_unify_given(gid)
            if self.empty_id is not None:   # a pre-unifier refuted it
                continue
            kept = [p for p in self.P
                    if not subsumes(g.clause, self.records[p].clause)]
            # the units of P change only when g is one or a clause left
            changed = len(kept) < len(self.P) or len(g.clause.literals) == 1
            self.P = kept
            self.P.append(g.id)
            if changed:
                self.units = self._units()
            self._generate(g.id)
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
        if self.ordered:
            # Every clause is ground propositional (`ordered_resolution`),
            # so of the generating rules only resolution can fire:
            # - equality factoring: ground propositional pairs are not
            #   factored (`eqfac_candidates`);
            # - extensionality: no literal is a proper equation;
            # - primitive substitution: no literal has a flexible head;
            # - injectivity: no clause has the injectivity shape, which
            #   needs proper equations.
            # A pair of g and a clause of P resolves only when their
            # maximal literals have one atom and opposite signs, and only
            # into the negative one.
            top = self.maximal[gid] = g.clause.literals[
                _maximal(g.clause, self.sig.system)]
            produced = []
            for pid in self.P:
                self._poll()
                m = self.maximal[pid]
                if m.lhs is top.lhs and m.pos is not top.pos:
                    pair = (pid, gid) if top.pos else (gid, pid)
                    for c in paramod_ordered(self.records[pair[0]].clause,
                                             self.records[pair[1]].clause,
                                             self.sig, True):
                        produced.append(("paramod_ordered", pair, c, 0))
        else:
            produced = [("eqfactor_ordered", (gid,), c, 0)
                        for c in eqfac_candidates(g.clause)]
            # paramodulation with every processed clause (including
            # itself)
            for pid in list(self.P):
                self._poll()
                p = self.records[pid]
                for c in paramod_ordered(g.clause, p.clause, self.sig,
                                         False):
                    produced.append(("paramod_ordered", (gid, pid), c, 0))
                if pid != gid:
                    for c in paramod_ordered(p.clause, g.clause, self.sig,
                                             False):
                        produced.append(("paramod_ordered", (pid, gid), c,
                                         0))
            for rule, c in extensionality(g.clause, self.sig):
                produced.append((rule, (gid,), c, 0))
            if g.ps_depth < self.config.ps_limit:
                for c in prim_subst(g.clause, self.sig, self.inst_types):
                    produced.append(("prim_subst", (gid,), c, 1))
            if self.config.enable_inj:
                for c in inj_rule(g.clause, self.sig, self.inj_done):
                    produced.append(("inj", (gid,), c, 0))
        for rule, parents, clause, ps_extra in produced:
            if self.empty_id is not None:
                return
            self._poll()
            self.insert_new(self.record(rule, parents, clause=clause,
                                        ps_extra=ps_extra))

    # -- results ------------------------------------------------------------

    def _result(self, status: str, empty_id: Optional[int] = None) -> Result:
        return Result(status, self.records, empty_id,
                      self.config.naming_threshold, self.ordered)

    def _refutation_result(self) -> Result:
        status = classify_refutation(self.records, self.empty_id,
                                     self.conjectured)
        return self._result(status, self.empty_id)

    def _saturated_result(self) -> Result:
        """Satisfiable or CounterSatisfiable only when the saturation is
        complete: every processed clause is ground and no clause was
        dropped by the weight cut."""
        ground = all(not self.records[p].clause.free_vars() for p in self.P)
        if not ground or self.dropped_heavy:
            return self._result("GaveUp")
        return self._result("CounterSatisfiable" if self.conjectured
                            else "Satisfiable")


def stated_as(role: str) -> Optional[tuple]:
    """(rule, role) of the record that states a problem formula of `role`
    in a run, or None for a formula the run does not clausify.  A
    conjecture is stated as an input, which the next record negates."""
    if role in ("type", "logic", "definition"):
        return None
    if role == "conjecture":
        return "input", "conjecture"
    if role == "negated_conjecture":
        return "neg_conjecture", "negated_conjecture"
    return "input", "axiom"


def _ground_bool_eq(c: Clause):
    """Index of a variable-free proper Boolean equation literal, if any."""
    for i, l in enumerate(c.literals):
        if not l.is_shorthand and l.lhs.ty is O \
                and not l.lhs.fvs and not l.rhs.fvs:
            return i
    return None


def _needs_cnf(c: Clause) -> bool:
    """True for a clause with a trivial literal or a shorthand literal
    over a connective or quantifier.  `normalize` rewrites both and never
    returns such a clause, so renormalizing cannot loop."""
    for l in c.literals:
        if l.lhs is l.rhs:
            return True
        if l.is_shorthand and formula_kind(l.lhs) is not None:
            return True
    return False


def classify_refutation(records: dict, empty_id: int,
                        conjectured: bool) -> str:
    """The status of a refutation; `conjectured` tells whether the problem
    has a conjecture or negated conjecture."""
    if not conjectured:
        return "Unsatisfiable"
    return ("Theorem" if any(d.rule == "neg_conjecture"
                             for d in extract_proof(records, empty_id))
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
             pre=None) -> Result:
    # `pre` is ignored; it stays because the benchmark harness
    # (perfbench/worker.py) passes it positionally
    return Saturation(problem, config or ProverConfig()).run()
