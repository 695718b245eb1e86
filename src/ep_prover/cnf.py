"""Preprocessing and clause normalization.

Covers definition expansion, miniscoping, polarity-aware clausification
with Miller-style Skolemization, threshold-based subformula naming, and
heuristic replacement of defined (Leibniz / Andrews) equality predicates
by primitive equality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

from .terms import (
    Abs, App, Bound, Const, Free, FunType, O, PI_NAME, SIGMA_NAME, Signature,
    SimpleType, Term, app, arg_types, canon, conj, constants, disj, equality,
    exists, fn, forall, iff, implies, is_eta_var, lam, match_quant, neg,
    result_type, shift, spine, FALSE, NOT, OR, AND, IMPLIES, IFF,
)
from .clauses import Clause, literal, prop_literal


# Subformulas whose clausification would yield more clauses than this are
# named by a fresh predicate; 0 switches naming off.
NAMING_THRESHOLD = 16


@dataclass
class PreprocessConfig:
    expand_definitions: bool = True
    miniscope: bool = True
    replace_defined_eq: bool = True
    exhaustive_inst_types: frozenset = field(
        default_factory=lambda: frozenset((O, fn(O, res=O))))


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


def ordered_free_vars(terms) -> list:
    """Free variables of the terms in first-occurrence (preorder) order."""
    seen = []
    found = set()

    def walk(t: Term):
        if not t.fvs:
            return
        if isinstance(t, Free):
            if t not in found:
                found.add(t)
                seen.append(t)
        elif isinstance(t, Abs):
            walk(t.body)
        elif isinstance(t, App):
            walk(t.head)
            for a in t.args:
                walk(a)

    for t in terms:
        walk(t)
    return seen


# ---------------------------------------------------------------------------
# Clausification
# ---------------------------------------------------------------------------

def _estimate(t: Term, pos: bool) -> int:
    """Number of clauses clausifying [t]^pos would produce, roughly."""
    k = formula_kind(t)
    if k is None or k[0] == "eq":
        return 1
    if k[0] in ("all", "ex"):
        return _estimate(k[1].body, pos)
    total = 0
    for lits in _CLAUSES[k[0], pos]:
        n = 1
        for j, p in lits:
            n *= _estimate(k[j], p)
        total += n
    return total


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
        est = max(_estimate(child, p) for p in ps)
        cands.append((est, idx, child, ps))
    cands.sort(key=lambda c: (-c[0], c[1]))
    est, idx, child, ps = cands[0]
    if est <= 1:
        return None
    fvs = ordered_free_vars([child])
    d = sig.fresh_skolem(fn(*[v.ty for v in fvs], res=O))
    atom = canon(app(d, *fvs) if fvs else d)
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


def normalize(c: Clause, sig: Signature,
              naming_threshold: int = NAMING_THRESHOLD,
              deadline: Optional[float] = None) -> set:
    """Exhaustive clausification of a clause into proper CNF clauses.

    Raises OutOfTime once `deadline` (a `time.monotonic()` value) has
    passed; the result would be incomplete.
    """
    results = set()
    work = [list(c.literals)]
    while work:
        if deadline is not None and time.monotonic() > deadline:
            raise OutOfTime
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
                work.append(rest + [literal(k[1], k[2], l.pos)])
            elif tag in _BUILDERS:
                for cl in _CLAUSES[tag, l.pos]:
                    work.append(rest + [prop_literal(k[j], p) for j, p in cl])
            elif tag in ("all", "ex"):
                body_abs = k[1]
                if (tag == "all") == l.pos:
                    z = sig.fresh_free(body_abs.var_ty)
                    inst = canon(app(body_abs, z))
                else:
                    captured = ordered_free_vars(
                        [x for m in lits for x in (m.lhs, m.rhs)])
                    skt = skolem_term(sig, body_abs.var_ty, captured)
                    inst = canon(app(body_abs, skt))
                work.append(rest + [prop_literal(inst, l.pos)])
            changed = True
            break
        if not changed and lits is not None:
            results.add(Clause(lits))
    return results


# ---------------------------------------------------------------------------
# Miniscoping
# ---------------------------------------------------------------------------

def miniscope(f: Term) -> Term:
    """Push quantifiers inward over connectives; drop vacuous binders."""
    k = formula_kind(f)
    if k is None:
        return f
    tag = k[0]
    if tag in _BUILDERS:
        return _BUILDERS[tag](*[miniscope(x) for x in k[1:]])
    if tag == "eq":
        return f
    body_abs = k[1]
    ty = body_abs.var_ty
    b = miniscope(body_abs.body)
    if not uses_bound(b, 0):
        return miniscope(shift(b, -1))
    mk = forall if tag == "all" else exists
    bk = formula_kind(b)
    if bk is not None:
        btag = bk[0]
        split_over = "and" if tag == "all" else "or"
        if btag == split_over:
            return _BUILDERS[btag](miniscope(mk(ty, bk[1])),
                                   miniscope(mk(ty, bk[2])))
        if btag == ("or" if tag == "all" else "and"):
            builder = _BUILDERS[btag]
            x, y = bk[1], bk[2]
            if not uses_bound(x, 0):
                return builder(miniscope(shift(x, -1)), miniscope(mk(ty, y)))
            if not uses_bound(y, 0):
                return builder(miniscope(mk(ty, x)), miniscope(shift(y, -1)))
        if btag == "imp":
            x, y = bk[1], bk[2]
            if not uses_bound(x, 0):
                return implies(miniscope(shift(x, -1)), miniscope(mk(ty, y)))
            if not uses_bound(y, 0):
                dual = exists if tag == "all" else forall
                return implies(miniscope(dual(ty, x)), miniscope(shift(y, -1)))
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


def replace_consts(t: Term, mapping: dict) -> Term:
    """Replace constants by closed terms (by name), without normalizing."""
    if isinstance(t, Const):
        r = mapping.get(t.name)
        return shift(r, t.loose) if r is not None else t
    if isinstance(t, Abs):
        return lam(t.var_ty, replace_consts(t.body, mapping))
    if isinstance(t, App):
        return app(replace_consts(t.head, mapping),
                   *[replace_consts(a, mapping) for a in t.args])
    return t


def expand_definition_map(defs: dict) -> dict:
    """Unfold a {name: body} definition map to a fixpoint.

    Raises CyclicDefinitionError on mutual or self reference.
    """
    names = set(defs)
    order = []
    state = {}

    def visit(n):
        if state.get(n) == 2:
            return
        if state.get(n) == 1:
            raise CyclicDefinitionError(f"cyclic definition involving {n}")
        state[n] = 1
        for d in sorted({c.name for c in constants(defs[n])
                         if c.name in names}):
            visit(d)
        state[n] = 2
        order.append(n)

    for n in sorted(defs):
        visit(n)
    expanded: dict = {}
    for n in order:
        expanded[n] = canon(replace_consts(defs[n], expanded))
    return expanded


def expand_term(t: Term, expanded: dict) -> Term:
    return canon(replace_consts(t, expanded))


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
    if isinstance(t, Abs):
        return lam(t.var_ty, replace_defined_equalities_term(t.body))
    if isinstance(t, App):
        t = app(replace_defined_equalities_term(t.head),
                *[replace_defined_equalities_term(a) for a in t.args])
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
