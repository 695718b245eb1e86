"""Preprocessing and clause normalization.

Covers definition expansion, miniscoping, polarity-aware clausification
with Miller-style Skolemization, threshold-based subformula naming, and
heuristic replacement of defined (Leibniz / Andrews) equality predicates
by primitive equality.
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
# Skolemization
# ---------------------------------------------------------------------------

def skolem_term(sig: Signature, existential_type: SimpleType,
                captured: list) -> Term:
    """Fresh Skolem constant applied to exactly the captured variables."""
    sk = sig.fresh_skolem(fn(*[v.ty for v in captured], res=existential_type))
    return app(sk, *captured) if captured else sk


# ---------------------------------------------------------------------------
# Clausification
# ---------------------------------------------------------------------------

# The memos below are plain dicts keyed by interned term, one per
# polarity (index 0 for [t]^ff, 1 for [t]^tt).  They hold subformulas
# only: the entry of a clause's own literal is computed from its
# children's and not kept, so a memo grows with the distinct subformulas
# of a process's inputs and lives as long as the intern table.
_ESTIMATES: tuple = ({}, {})
_EXPANSIONS: tuple = ({}, {})


def _estimate(t: Term, pos: bool) -> int:
    """Number of clauses clausifying [t]^pos would produce, roughly.

    At least the estimate of each operand of t's connective at the
    polarity it occurs with, since every estimate is at least 1."""
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


def _name_subformula(lits: list, i: int, sig: Signature):
    """Replace the heaviest child of literal i's connective by a fresh atom.

    Returns (new_literal_lists_for_definitions, replacement_literal) or
    None when the literal's shape offers nothing to name.
    """
    l = lits[i]
    k = formula_kind(l.lhs)
    if k is None or k[0] in ("not", "eq", "all", "ex"):
        return None
    tag, s, u = k
    clauses = _CLAUSES[tag, l.pos]
    cands = []
    for idx, child in enumerate((s, u), 1):
        # the polarities the child occurs with in the clausified literal
        ps = tuple(p for p in (True, False)
                   if any((idx, p) in c for c in clauses))
        est = max(_sub_estimate(child, p) for p in ps)
        cands.append((est, idx, child, ps))
    cands.sort(key=lambda c: (-c[0], c[1]))
    est, idx, child, ps = cands[0]
    if est <= 1:
        return None
    fvs = ordered_free_vars([child])
    d = sig.fresh_skolem(fn(*[v.ty for v in fvs], res=O))
    atom = app(d, *fvs)
    defs = []
    if True in ps:
        # positive occurrence: atom implies the named subformula
        defs.append([prop_literal(atom, False), prop_literal(child, True)])
    if False in ps:
        defs.append([prop_literal(child, False), prop_literal(atom, True)])
    parts = [atom if j == idx else c for j, c in enumerate((s, u), 1)]
    return defs, prop_literal(_BUILDERS[tag](*parts), l.pos)


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


def _expand(t: Term, pos: bool, deadline: Optional[float]):
    """The clauses of [t]^pos as tuples of literals, built from the
    memoized expansions of t's subformulas: what the worklist of
    `normalize` makes of the one-literal clause [t]^pos when it mints
    nothing.  None where it could mint: under t's connectives there is a
    quantifier, or an equation with $true whose other side is a formula,
    which naming judges afresh."""
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
            return None
        return _literal_clauses(l, deadline)
    if tag not in _BUILDERS:
        return None
    out = []
    for lits in _CLAUSES[tag, pos]:
        factors = []
        for j, p in lits:
            e = _expansion(k[j], p, deadline)
            if e is None:
                return None
            factors.append(e)
        out += _product(factors, deadline)
    return tuple(out)


def _expansion(t: Term, pos: bool, deadline: Optional[float]):
    """`_expand` of a subformula, memoized in `_EXPANSIONS`."""
    memo = _EXPANSIONS[pos]
    e = memo.get(t)
    if e is None:
        e = _expand(t, pos, deadline)
        if e is not None:
            memo[t] = e
    return e


def _literal_clauses(l: Literal, deadline: Optional[float]):
    """`_expand` of a literal: () drops the clause, ((),) the literal."""
    if l.lhs is l.rhs:
        return () if l.pos else ((),)
    if l.is_shorthand and (l.lhs is FALSE or formula_kind(l.lhs)):
        return _expand(l.lhs, l.pos, deadline)
    return ((l,),)


def normalize(c: Clause, sig: Signature,
              naming_threshold: int = NAMING_THRESHOLD,
              deadline: Optional[float] = None) -> set:
    """Exhaustive clausification of a clause into proper CNF clauses.

    A clause that needs no naming and holds no quantifier under its
    literals' connectives mints nothing, so its clauses are the product
    of its literals' expansions (`_expand`).  No operand's estimate
    exceeds its formula's (`_estimate`), so checking the clause's own
    literals for naming suffices.  Any other clause goes through the
    worklist, literal by literal, which fixes the order in which Skolem
    terms, fresh variables and names are minted and the variables a
    Skolem term captures.

    Raises OutOfTime once `deadline` (a `time.monotonic()` value) has
    passed; the result would be incomplete.
    """
    _poll(deadline)
    fixed = ()      # the literals of a one-clause expansion
    factors = []
    for l in c.literals:
        if naming_threshold and l.is_shorthand \
                and _estimate(l.lhs, l.pos) > naming_threshold:
            break
        e = _literal_clauses(l, deadline)
        if e is None:
            break
        if len(e) == 1:
            fixed += e[0]
        else:
            factors.append(e)
    else:
        return {Clause(fixed + x) for x in _product(factors, deadline)}
    results = set()
    work = [list(c.literals)]
    while work:
        _poll(deadline)
        lits = work.pop()
        changed = False
        for i, l in enumerate(lits):
            if l.lhs is l.rhs:
                if l.pos:
                    changed = True  # tautologous literal, drop clause
                    lits = None
                else:
                    del lits[i]
                    work.append(lits)
                    changed = True
                break
            if not l.is_shorthand:
                continue
            if l.lhs is FALSE:
                if l.pos:
                    del lits[i]
                    work.append(lits)
                else:
                    lits = None  # [⊥]^ff always holds
                changed = True
                break
            k = formula_kind(l.lhs)
            if k is None:
                continue
            if naming_threshold and _estimate(l.lhs, l.pos) > naming_threshold:
                named = _name_subformula(lits, i, sig)
                if named is not None:
                    defs, repl = named
                    lits[i] = repl
                    work.append(lits)
                    work.extend(defs)
                    changed = True
                    break
            rest = lits[:i] + lits[i + 1:]
            tag = k[0]
            if tag == "eq":
                work.append(rest + [Literal(k[1], k[2], l.pos)])
            elif tag in _BUILDERS:
                for cl in _CLAUSES[tag, l.pos]:
                    work.append(rest + [prop_literal(k[j], p) for j, p in cl])
            elif tag in ("all", "ex"):
                body_abs = k[1]
                if (tag == "all") == l.pos:
                    z = sig.fresh_free(body_abs.var_ty)
                    inst = app(body_abs, z)
                else:
                    captured = ordered_free_vars(
                        [x for m in lits for x in (m.lhs, m.rhs)])
                    skt = skolem_term(sig, body_abs.var_ty, captured)
                    inst = app(body_abs, skt)
                work.append(rest + [prop_literal(inst, l.pos)])
            changed = True
            break
        if not changed and lits is not None:
            results.add(Clause(lits))
    return results


# ---------------------------------------------------------------------------
# Miniscoping
# ---------------------------------------------------------------------------

def _holds_quantifier(t: Term) -> bool:
    """Whether a Π or Σ constant occurs in t, found by a walk: without
    one, `miniscope` and `replace_defined_equalities_term` have nothing
    to rewrite."""
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, App):
            stack.append(s.head)
            stack += s.args
        elif isinstance(s, Abs):
            stack.append(s.body)
        elif isinstance(s, Const) and s.name in (PI_NAME, SIGMA_NAME):
            return True
    return False


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
    body_abs = k[1]
    ty = body_abs.var_ty
    b = _miniscope(body_abs.body)
    if not uses_bound(b, 0):
        return _miniscope(shift(b, -1))
    mk = forall if tag == "all" else exists
    bk = formula_kind(b)
    if bk is not None:
        btag = bk[0]
        split_over = "and" if tag == "all" else "or"
        if btag == split_over:
            return _BUILDERS[btag](_miniscope(mk(ty, bk[1])),
                                   _miniscope(mk(ty, bk[2])))
        if btag == ("or" if tag == "all" else "and"):
            builder = _BUILDERS[btag]
            x, y = bk[1], bk[2]
            if not uses_bound(x, 0):
                return builder(_miniscope(shift(x, -1)),
                               _miniscope(mk(ty, y)))
            if not uses_bound(y, 0):
                return builder(_miniscope(mk(ty, x)),
                               _miniscope(shift(y, -1)))
        if btag == "imp":
            x, y = bk[1], bk[2]
            if not uses_bound(x, 0):
                return implies(_miniscope(shift(x, -1)),
                               _miniscope(mk(ty, y)))
            if not uses_bound(y, 0):
                dual = exists if tag == "all" else forall
                return implies(_miniscope(dual(ty, x)),
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
    lhs = k[1]
    # the defined symbol may be eta-expanded on the left
    h = lhs if isinstance(lhs, Const) else is_eta_var(lhs, Const)
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
    """Unfold a {name: body} definition map to a fixpoint.

    Raises CyclicDefinitionError on mutual or self reference.
    """
    names = set(defs)
    order = []
    state = {}
    for n in sorted(defs):
        _visit(n, defs, names, state, order)
    expanded: dict = {}
    for n in order:
        expanded[n] = canon(replace_consts(defs[n], expanded))
    return expanded


def _visit(n: str, defs: dict, names: set, state: dict, order: list):
    """Append n to order after the definitions its body uses, depth
    first; state maps a name to 1 while it is open and 2 once done."""
    if state.get(n) == 2:
        return
    if state.get(n) == 1:
        raise CyclicDefinitionError(f"cyclic definition involving {n}")
    state[n] = 1
    for d in sorted({c.name for c in constants(defs[n])
                     if c.name in names}):
        _visit(d, defs, names, state, order)
    state[n] = 2
    order.append(n)


def expand_term(t: Term, expanded: dict) -> Term:
    return canon(replace_consts(t, expanded))


def expand_definitions(t: Term, expanded: dict) -> Term:
    """The `defexp_and_simp_and_etaexpand` step: definition expansion,
    then Leibniz / Andrews equalities replaced by primitive equality."""
    if expanded:
        t = expand_term(t, expanded)
    return canon(replace_defined_equalities_term(t))


# ---------------------------------------------------------------------------
# Defined equality replacement
# ---------------------------------------------------------------------------

def _leibniz_body(body: Term, var_ty: SimpleType) -> Optional[tuple]:
    """Match ¬(P s) ∨ P t / (P s) ⇒ (P t) / (P s) ⇔ (P t) with P = Bound 0."""
    k = formula_kind(body)
    if k is None:
        return None
    if k[0] == "or":
        kn = formula_kind(k[1])
        if kn is None or kn[0] != "not":
            return None
        left, right = kn[1], k[2]
    elif k[0] in ("imp", "iff"):
        left, right = k[1], k[2]
    else:
        return None
    lr = _applied_to_bound0(left)
    rr = _applied_to_bound0(right)
    if lr is None or rr is None:
        return None
    return lr, rr


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
    if k is None or k[0] != "imp":
        return None
    ak = formula_kind(k[1])
    if ak is None or ak[0] != "all":
        return None
    refl = ak[1].body  # under Z; Q is Bound 1 here
    h, args = spine(refl)
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
        if len(ats) == 1:
            m = _leibniz_body(q.body, q.var_ty)
            if m is not None:
                return equality(m[0], m[1])
        elif len(ats) == 2 and ats[0] is ats[1]:
            m = _andrews_body(q.body)
            if m is not None:
                return equality(m[0], m[1])
    return t
