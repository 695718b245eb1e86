"""Preprocessing and clause normalization.

Covers definition expansion, miniscoping, heuristic replacement of
defined (Leibniz / Andrews) equality predicates by primitive equality,
and clausification: polarity-aware, with inner Skolemization and
threshold-based naming of subformulas, from memoized expansions.
"""

from __future__ import annotations

import time
from functools import cache
from typing import Optional

from .terms import (
    Abs, App, Bound, Const, FunType, O, PI_NAME, SIGMA_NAME, Signature,
    SimpleType, Term, app, arg_types, canon, conj, constants, disj, equality,
    exists, fn, forall, iff, implies, is_eta_var, lam, match_quant, neg,
    ordered_free_vars, replace_consts, result_type, shift, spine, FALSE, NOT,
    OR, AND, IMPLIES, IFF, TRUE,
)
from .clauses import Clause, Literal, prop_literal


# Subformulas whose clausification would yield more clauses than this are
# named by a fresh predicate; 0 switches naming off.
NAMING_THRESHOLD = 16


# ---------------------------------------------------------------------------
# Formula structure
# ---------------------------------------------------------------------------

# Propositional connectives by head constant, fully applied.
_CONNECTIVES = {NOT: "not", OR: "or", AND: "and", IMPLIES: "imp", IFF: "iff"}

# [connective]^polarity clausifies to these clauses, each a list of
# (operand, polarity) with operands numbered as in formula_kind's tuple.
_CLAUSES = {
    ("not", True): ([(1, False)],),
    ("not", False): ([(1, True)],),
    ("or", True): ([(1, True), (2, True)],),
    ("or", False): ([(1, False)], [(2, False)]),
    ("and", True): ([(1, True)], [(2, True)]),
    ("and", False): ([(1, False), (2, False)],),
    ("imp", True): ([(1, False), (2, True)],),
    ("imp", False): ([(1, True)], [(2, False)]),
    ("iff", True): ([(1, False), (2, True)], [(1, True), (2, False)]),
    ("iff", False): ([(1, True), (2, True)], [(1, False), (2, False)]),
}

# Term builder of each connective.
_BUILDERS = {"not": neg, "or": disj, "and": conj, "imp": implies, "iff": iff}


@cache
def formula_kind(t: Term):
    """Top connective of a Boolean term, or None for an atom.

    Returns (tag, operands); quantifier tags carry the body abstraction.
    Memoized per interned term: terms are immutable and the intern table
    keeps them for the life of the process anyway.
    """
    h, args = spine(t)
    if not isinstance(h, Const):
        return None
    tag = _CONNECTIVES.get(h)
    if tag is not None:
        return (tag,) + args if t.ty is O else None
    if h.name == "=" and len(args) == 2:
        return ("eq", args[0], args[1])
    if h.name == PI_NAME and len(args) == 1 and isinstance(args[0], Abs):
        return ("all", args[0])
    if h.name == SIGMA_NAME and len(args) == 1 and isinstance(args[0], Abs):
        return ("ex", args[0])
    return None


def uses_bound(t: Term, j: int) -> bool:
    if t.loose <= j:
        return False
    if isinstance(t, Bound):
        return t.index == j
    if isinstance(t, Abs):
        return uses_bound(t.body, j + 1)
    if isinstance(t, App):
        return uses_bound(t.head, j) or any(uses_bound(a, j) for a in t.args)
    return False


# ---------------------------------------------------------------------------
# Clausification
# ---------------------------------------------------------------------------

# Memos keyed by interned term, a dict per polarity (index 0 for [t]^ff,
# 1 for [t]^tt), of subformulas only: they grow with the distinct
# subformulas of a process's inputs and live as long as the intern
# table.  `_EXPANSIONS` keeps expansions that mint nothing, of at most
# `_MAX_STORED` clauses, so that no formula fills it without bound.
_ESTIMATES: tuple = ({}, {})
_EXPANSIONS: tuple = ({}, {})
_MAX_STORED = 256


def _estimate(t: Term, pos: bool) -> int:
    """Number of clauses clausifying [t]^pos would produce, roughly: at
    least the estimate of each operand of t's connective at the polarity
    it occurs with, since every estimate is at least 1."""
    k = formula_kind(t)
    if k is None or k[0] == "eq":
        return 1
    if k[0] in ("all", "ex"):
        return _sub_estimate(k[1].body, pos)
    total = 0
    for lits in _CLAUSES[k[0], pos]:
        n = 1
        for j, p in lits:
            n *= _sub_estimate(k[j], p)
        total += n
    return total


def _sub_estimate(t: Term, pos: bool) -> int:
    """`_estimate` of a subformula, memoized in `_ESTIMATES`."""
    memo = _ESTIMATES[pos]
    n = memo.get(t)
    if n is None:
        n = memo[t] = _estimate(t, pos)
    return n


class OutOfTime(Exception):
    """The run's deadline passed during clausification."""


def _poll(deadline: Optional[float]):
    if deadline is not None and time.monotonic() > deadline:
        raise OutOfTime


def _product(factors: list, deadline: Optional[float]):
    """Every concatenation of one literal tuple from each factor, in
    some order: the clauses of a disjunction of the factors' formulas."""
    if not factors:
        return ((),)
    out = factors[0]
    for f in factors[1:]:
        # the longer side drives the loop, so that the deadline is polled
        # at least once per square root of the product's size
        a, b = (out, f) if len(out) >= len(f) else (f, out)
        nxt = []
        for x in a:
            _poll(deadline)
            nxt += [x + y for y in b]
        out = nxt
    return out


def skolem_term(sig: Signature, existential_type: SimpleType,
                captured: list) -> Term:
    """Fresh Skolem constant applied to exactly the captured variables."""
    sk = sig.fresh_skolem(fn(*[v.ty for v in captured], res=existential_type))
    return app(sk, *captured) if captured else sk


class _Clausifier:
    """The state of one `normalize` call.

    What it mints belongs to the run's signature: an expansion that
    mints, or reuses what this call minted (`mints` counts both), is
    memoized in `memo` for this call only.  Naming is looked for once a
    literal's estimate exceeds the threshold: no operand's estimate
    exceeds its formula's, but a formula equated with $true is a literal
    of its own, and its expansion depends on the threshold."""

    __slots__ = ("sig", "threshold", "deadline", "naming", "memo", "names",
                 "defined", "defs", "mints")

    def __init__(self, sig: Signature, threshold: int,
                 deadline: Optional[float]):
        self.sig, self.threshold, self.deadline = sig, threshold, deadline
        self.naming, self.mints = False, 0
        self.memo = ({}, {})
        self.names = {}         # named subformula -> its atom
        self.defined = set()    # (named subformula, polarity) defined
        self.defs = []          # the clauses of the definitions

    def literal(self, l: Literal, shared: bool = True):
        """The clauses of l: () drops the clause, ((),) the literal.  A
        clause's own literal is not `shared` in `_EXPANSIONS`."""
        if l.lhs is l.rhs:
            return () if l.pos else ((),)
        if l.is_shorthand and (l.lhs is FALSE or formula_kind(l.lhs)):
            if self.threshold and not self.naming:
                self.naming = _estimate(l.lhs, l.pos) > self.threshold
            return self.expansion(l.lhs, l.pos, shared)
        return ((l,),)

    def expansion(self, t: Term, pos: bool, shared: bool = True):
        """`expand`, memoized."""
        if not self.naming or _sub_estimate(t, pos) <= self.threshold:
            e = _EXPANSIONS[pos].get(t)
            if e is not None:
                return e
        e = self.memo[pos].get(t)
        if e is not None:
            self.mints += 1
            return e
        mints = self.mints
        e = self.expand(t, pos)
        if self.mints != mints:
            self.memo[pos][t] = e
        elif shared and len(e) <= _MAX_STORED:
            _EXPANSIONS[pos][t] = e
        return e

    def expand(self, t: Term, pos: bool):
        """The clauses of [t]^pos as tuples of literals.  A quantifier is
        instantiated by a fresh variable, or by a Skolem term over the
        free variables of t only (inner Skolemization).  Clauses are
        built last to first, as `test_cnf.reference_normalize` mints."""
        if t is FALSE:
            return ((),) if pos else ()
        if t is TRUE:
            return () if pos else ((),)
        k = formula_kind(t)
        if k is None:
            return ((prop_literal(t, pos),),)
        tag = k[0]
        if tag == "eq":
            l = Literal(k[1], k[2], pos)
            if l.is_shorthand and formula_kind(l.lhs) is not None:
                self.mints += 1
            return self.literal(l)
        if tag in ("all", "ex"):
            body = k[1]
            if (tag == "all") == pos:
                x = self.sig.fresh_free(body.var_ty)
            else:
                x = skolem_term(self.sig, body.var_ty, ordered_free_vars([t]))
            self.mints += 1
            return self.expand(canon(app(body, x)), pos)
        if self.naming and tag != "not" \
                and _sub_estimate(t, pos) > self.threshold:
            named = self.name(tag, k[1], k[2], pos)
            if named is not None:
                return self.expand(named, pos)
        out = []
        for lits in reversed(_CLAUSES[tag, pos]):
            out += _product([self.expansion(k[j], p) for j, p in lits],
                            self.deadline)
        return tuple(out)

    def name(self, tag: str, s: Term, u: Term, pos: bool) -> Optional[Term]:
        """[tag s u]^pos with its heaviest operand replaced by its name, a
        fresh predicate over its free variables, or None if no operand
        yields more than one clause.  An operand is named once per call
        and defined once per polarity it occurs with: the name implies
        it where it is positive, and it implies the name elsewhere."""
        cands = []
        for idx, child in ((1, s), (2, u)):
            ps = {p for c in _CLAUSES[tag, pos] for j, p in c if j == idx}
            est = max(_sub_estimate(child, p) for p in ps)
            cands.append((est, -idx, child, ps))
        est, idx, child, ps = max(cands)    # the first of the heaviest
        if est <= 1:
            return None
        if child not in self.names:
            self.names[child] = skolem_term(self.sig, O,
                                            ordered_free_vars([child]))
        atom = self.names[child]
        self.mints += 1
        for p in (False, True):
            if p in ps and (child, p) not in self.defined:
                self.defined.add((child, p))
                head = (prop_literal(atom, not p),)
                self.defs += [head + x for x in self.expansion(child, p)]
        return _BUILDERS[tag](atom, u) if idx == -1 \
            else _BUILDERS[tag](s, atom)


def normalize(c: Clause, sig: Signature,
              naming_threshold: int = NAMING_THRESHOLD,
              deadline: Optional[float] = None) -> set:
    """Exhaustive clausification of a clause into proper CNF clauses.

    The result is the product of the clauses of c's literals, each built
    from the memoized expansions of its subformulas, and the clauses
    that define the names minted.  A subformula whose estimate
    (`_estimate`) exceeds `naming_threshold` has its heaviest operand
    replaced by a name (0 switches naming off).  In one call each
    quantified subformula is instantiated once per polarity and each
    operand named once; calls share only what mints nothing.

    Raises OutOfTime once `deadline` (a `time.monotonic()` value) has
    passed; the result would be incomplete.
    """
    _poll(deadline)
    cx = _Clausifier(sig, naming_threshold, deadline)
    out = set()
    fixed = ()      # the literals of one-clause expansions
    factors = []
    for l in c.literals:
        e = cx.literal(l, False)
        if not e:
            break
        if len(e) == 1:
            fixed += e[0]
        else:
            factors.append(e)
    else:
        out = {Clause(fixed + x) for x in _product(factors, deadline)}
    out.update(map(Clause, cx.defs))
    return out


# ---------------------------------------------------------------------------
# Miniscoping
# ---------------------------------------------------------------------------

@cache
def _holds_quantifier(t: Term) -> bool:
    """Whether a Π or Σ constant occurs in t: without one, `miniscope`
    and `replace_defined_equalities_term` have nothing to rewrite.
    Memoized per interned term, as `formula_kind` is."""
    if isinstance(t, App):
        return _holds_quantifier(t.head) or any(map(_holds_quantifier, t.args))
    if isinstance(t, Abs):
        return _holds_quantifier(t.body)
    return isinstance(t, Const) and t.name in (PI_NAME, SIGMA_NAME)


def miniscope(f: Term) -> Term:
    """Push quantifiers inward over connectives; drop vacuous binders."""
    return _miniscope(f) if _holds_quantifier(f) else f


def _miniscope(f: Term) -> Term:
    k = formula_kind(f)
    if k is None:
        return f
    tag = k[0]
    if tag in _BUILDERS:
        return _BUILDERS[tag](*[_miniscope(x) for x in k[1:]])
    if tag == "eq":
        return f
    ty, b = k[1].var_ty, _miniscope(k[1].body)
    if not uses_bound(b, 0):
        return _miniscope(shift(b, -1))
    mk, dual = (forall, exists) if tag == "all" else (exists, forall)
    bk = formula_kind(b)
    if bk is not None:
        btag = bk[0]
        if btag == ("and" if tag == "all" else "or"):
            return _BUILDERS[btag](_miniscope(mk(ty, bk[1])),
                                   _miniscope(mk(ty, bk[2])))
        if btag in ("or" if tag == "all" else "and", "imp"):
            # over x ⇒ y, which is ¬x ∨ y, the quantifier of x is dual
            builder = _BUILDERS[btag]
            x, y = bk[1], bk[2]
            if not uses_bound(x, 0):
                return builder(_miniscope(shift(x, -1)),
                               _miniscope(mk(ty, y)))
            if not uses_bound(y, 0):
                mx = dual if btag == "imp" else mk
                return builder(_miniscope(mx(ty, x)),
                               _miniscope(shift(y, -1)))
    return mk(ty, b)


# ---------------------------------------------------------------------------
# Definition expansion
# ---------------------------------------------------------------------------

class DefinitionError(Exception):
    """A definition that cannot be expanded: not an equation defining a
    constant, or part of a cycle."""


class CyclicDefinitionError(DefinitionError):
    """Definitions that refer to each other or to themselves."""


def definition_parts(f) -> tuple:
    """(defined name, canonical body) of a definition formula."""
    k = formula_kind(f.formula)
    if k is None or k[0] != "eq":
        raise DefinitionError(f"definition {f.name} is not an equation")
    # the defined symbol may be eta-expanded on the left
    h = k[1] if isinstance(k[1], Const) else is_eta_var(k[1], Const)
    if h is None:
        raise DefinitionError(
            f"definition {f.name} does not define a constant")
    return h.name, canon(k[2])


def definition_map(formulas) -> dict:
    """Unfolded {name: body} map of the definition formulas."""
    defs = dict(definition_parts(f) for f in formulas
                if f.role == "definition")
    return expand_definition_map(defs) if defs else {}


def expand_definition_map(defs: dict) -> dict:
    """Unfold a {name: body} definition map to a fixpoint; raises
    CyclicDefinitionError on mutual or self reference."""
    order, state = [], {}
    for n in sorted(defs):
        _visit(n, defs, state, order)
    expanded: dict = {}
    for n in order:
        expanded[n] = canon(replace_consts(defs[n], expanded))
    return expanded


def _visit(n: str, defs: dict, state: dict, order: list):
    """Append n to order after the definitions its body uses, depth
    first; state maps a name to 1 while it is open and 2 once done."""
    if state.get(n) == 2:
        return
    if state.get(n) == 1:
        raise CyclicDefinitionError(f"cyclic definition involving {n}")
    state[n] = 1
    for d in sorted({c.name for c in constants(defs[n]) if c.name in defs}):
        _visit(d, defs, state, order)
    state[n] = 2
    order.append(n)


def expand_definitions(t: Term, expanded: dict) -> Term:
    """The `defexp_and_simp_and_etaexpand` step: definition expansion,
    then Leibniz / Andrews equalities replaced by primitive equality."""
    if expanded:
        t = canon(replace_consts(t, expanded))
    return canon(replace_defined_equalities_term(t))


# ---------------------------------------------------------------------------
# Defined equality replacement
# ---------------------------------------------------------------------------

def _leibniz_body(body: Term) -> Optional[tuple]:
    """Match ¬(P s) ∨ P t / (P s) ⇒ (P t) / (P s) ⇔ (P t) with P = Bound 0."""
    k = formula_kind(body)
    if k is not None and k[0] == "or":
        kn = formula_kind(k[1])
        k = ("or", kn[1], k[2]) if kn is not None and kn[0] == "not" else None
    if k is None or k[0] not in ("or", "imp", "iff"):
        return None
    lr, rr = _applied_to_bound0(k[1]), _applied_to_bound0(k[2])
    return None if lr is None or rr is None else (lr, rr)


def _applied_to_bound0(t: Term) -> Optional[Term]:
    """The argument s of (#0 s), when #0 does not occur in s."""
    h, args = spine(t)
    if isinstance(h, Bound) and h.index == 0 and len(args) == 1 \
            and not uses_bound(args[0], 0):
        return shift(args[0], -1)
    return None


def _andrews_body(body: Term) -> Optional[tuple]:
    """Match (∀Z. Q Z Z) ⇒ Q s t with Q = Bound 0."""
    k = formula_kind(body)
    ak = formula_kind(k[1]) if k is not None and k[0] == "imp" else None
    if ak is None or ak[0] != "all":
        return None
    h, args = spine(ak[1].body)     # under Z; Q is Bound 1 here
    if not (isinstance(h, Bound) and h.index == 1 and len(args) == 2
            and all(isinstance(a, Bound) and a.index == 0 for a in args)):
        return None
    h2, args2 = spine(k[2])
    if not (isinstance(h2, Bound) and h2.index == 0 and len(args2) == 2
            and not uses_bound(args2[0], 0) and not uses_bound(args2[1], 0)):
        return None
    return shift(args2[0], -1), shift(args2[1], -1)


def replace_defined_equalities_term(t: Term) -> Term:
    """Rewrite Leibniz / Andrews equality subformulas to primitive =."""
    return _replace_defined_equalities(t) if _holds_quantifier(t) else t


def _replace_defined_equalities(t: Term) -> Term:
    if isinstance(t, Abs):
        return lam(t.var_ty, _replace_defined_equalities(t.body))
    if isinstance(t, App):
        t = app(_replace_defined_equalities(t.head),
                *[_replace_defined_equalities(a) for a in t.args])
    q = match_quant(t, PI_NAME)
    if q is not None and isinstance(q.var_ty, FunType) \
            and result_type(q.var_ty) is O:
        ats = arg_types(q.var_ty)
        m = _leibniz_body(q.body) if len(ats) == 1 \
            else _andrews_body(q.body) if len(ats) == 2 and ats[0] is ats[1] \
            else None
        if m is not None:
            return equality(*m)
    return t
