"""Generating and simplifying inference rules.

Paramodulation, equality factoring, primitive substitution, Boolean and
functional extensionality, injectivity postulation, exhaustive finite
instantiation, and clause-level simplification.  Each generating rule
has an indexed form (replayable from recorded premises and positions)
and a candidate enumerator used by the saturation loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .terms import (
    Const, Free, FunType, NOT, O, OR, Signature, SimpleType, Term, TermError,
    TRUE, FALSE, app, bound, canon, const, eq_const, eta_long, fn, head_of,
    is_eta_var, lam, neg, pi_const, replace_at, spine, subterm_at,
    subterm_positions, substitute,
)
from .clauses import (
    Clause, Literal, literal, match_literal, match_terms, prop_literal,
)
from .cnf import ordered_free_vars, skolem_term
from .unification import general_bindings


# ---------------------------------------------------------------------------
# Paramodulation
# ---------------------------------------------------------------------------

def para(c: Clause, i: int, side: int, pi: tuple,
         d: Clause, j: int, swap: bool) -> Clause:
    """Rewrite subterm pi of side `side` of literal i of c using equation
    literal j of d (l and r exchanged when swap is set).

    The premises must already be variable-disjoint; the conclusion carries
    the unification constraint between the rewritten subterm and l.
    """
    lit_c = c.literals[i]
    lit_d = d.literals[j]
    if not lit_d.pos:
        raise TermError("paramodulation needs a positive equation")
    l, r = (lit_d.rhs, lit_d.lhs) if swap else (lit_d.lhs, lit_d.rhs)
    s = lit_c.lhs if side == 0 else lit_c.rhs
    t = lit_c.rhs if side == 0 else lit_c.lhs
    sub = subterm_at(s, pi)
    if sub.ty is not l.ty:
        raise TermError("paramodulation type mismatch")
    if sub.loose:
        raise TermError("target subterm captures outer binders")
    rewritten = canon(replace_at(s, pi, r))
    lits = [Literal(rewritten, t, lit_c.pos)]
    lits.extend(m for k, m in enumerate(c.literals) if k != i)
    lits.extend(d.literals[:j] + d.literals[j + 1:])
    lits.append(literal(sub, l, False))
    return Clause(lits)


def _para_target(sub: Term) -> bool:
    if sub.loose:
        return False
    if sub is TRUE or sub is FALSE:
        return False
    if is_eta_var(sub) is not None:
        return False  # bare variable at the target position
    return True


def para_candidates(c: Clause, d: Clause) -> Iterator[Clause]:
    """All paramodulation inferences from equations of d into c."""
    for j, lit_d in enumerate(d.literals):
        if not lit_d.pos:
            continue
        for i, lit_c in enumerate(c.literals):
            if c is d and i == j:
                continue
            # redundant inferences between positive propositional literals
            if lit_c.pos and lit_c.is_shorthand and lit_d.is_shorthand:
                continue
            for swap in (False, True):
                l, r = (lit_d.rhs, lit_d.lhs) if swap else (lit_d.lhs, lit_d.rhs)
                if l is TRUE or l is FALSE:
                    continue
                for side in (0, 1):
                    s = lit_c.lhs if side == 0 else lit_c.rhs
                    if side == 1 and s is lit_c.lhs:
                        continue
                    for pi, sub in subterm_positions(s):
                        if sub.ty is not l.ty or not _para_target(sub):
                            continue
                        yield para(c, i, side, pi, d, j, swap)


# ---------------------------------------------------------------------------
# Equality factoring
# ---------------------------------------------------------------------------

def eqfac(c: Clause, i: int, j: int, swap_i: bool, swap_j: bool) -> Clause:
    """Factor literals i and j (same polarity) of c.

    Keeps literal i and adds the constraints between the corresponding
    sides of the two equations.
    """
    li, lj = c.literals[i], c.literals[j]
    if li.pos is not lj.pos:
        raise TermError("factoring needs equal polarities")
    s, t = (li.rhs, li.lhs) if swap_i else (li.lhs, li.rhs)
    u, v = (lj.rhs, lj.lhs) if swap_j else (lj.lhs, lj.rhs)
    if s.ty is not u.ty or t.ty is not v.ty:
        raise TermError("factoring type mismatch")
    lits = [m for k, m in enumerate(c.literals) if k != j]
    lits.append(literal(s, u, False))
    lits.append(literal(t, v, False))
    return Clause(lits)


def eqfac_candidates(c: Clause) -> Iterator[Clause]:
    n = len(c.literals)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            li, lj = c.literals[i], c.literals[j]
            if li.pos is not lj.pos:
                continue
            for swap_i in (False, True):
                for swap_j in (False, True):
                    s = li.rhs if swap_i else li.lhs
                    u = lj.rhs if swap_j else lj.lhs
                    if s.ty is not u.ty:
                        continue
                    yield eqfac(c, i, j, swap_i, swap_j)


# ---------------------------------------------------------------------------
# Primitive substitution
# ---------------------------------------------------------------------------

PS_BASE_HEADS = (NOT, OR)


def prim_subst(c: Clause, i: int, sig: Signature,
               inst_types: tuple) -> list:
    """Approximate the logical structure of a flexible-head literal.

    For each candidate head (negation, disjunction, and universal
    quantification / equality at the given types) produces the clause
    with the approximating constraint.
    """
    lit = c.literals[i]
    if not lit.is_shorthand:
        return []
    h, _ = spine(lit.lhs)
    if not isinstance(h, Free):
        return []
    heads = list(PS_BASE_HEADS)
    for ty in inst_types:
        heads.append(pi_const(ty))
        heads.append(eq_const(ty))
    out = []
    for head in heads:
        gbs = general_bindings(h.ty, head, sig)
        if not gbs:
            continue
        g = gbs[0]  # the imitation binding
        out.append(Clause(list(c.literals)
                          + [literal(eta_long(h), g, False)]))
    return out


def apply_subst_clause(c: Clause, mapping: dict) -> Clause:
    return Clause([Literal(substitute(l.lhs, mapping),
                           substitute(l.rhs, mapping), l.pos)
                   for l in c.literals])


# ---------------------------------------------------------------------------
# Extensionality
# ---------------------------------------------------------------------------

def bool_ext(c: Clause, i: int) -> tuple:
    """Split a Boolean equation literal into its two implication clauses."""
    lit = c.literals[i]
    if lit.lhs.ty is not O or lit.is_shorthand:
        raise TermError("boolean extensionality needs a proper o-equation")
    rest = [m for k, m in enumerate(c.literals) if k != i]
    s, t = lit.lhs, lit.rhs
    if lit.pos:
        c1 = Clause(rest + [prop_literal(s, True), prop_literal(t, False)])
        c2 = Clause(rest + [prop_literal(s, False), prop_literal(t, True)])
    else:
        c1 = Clause(rest + [prop_literal(s, True), prop_literal(t, True)])
        c2 = Clause(rest + [prop_literal(s, False), prop_literal(t, False)])
    return c1, c2


def func_ext(c: Clause, i: int, sig: Signature) -> Clause:
    """Apply both sides of a function-typed equation to a fresh argument.

    Positive literals get a fresh free variable, negative literals a
    Skolem term over the clause's free variables.
    """
    lit = c.literals[i]
    if not isinstance(lit.lhs.ty, FunType):
        raise TermError("functional extensionality needs a function equation")
    aty = lit.lhs.ty.arg
    if lit.pos:
        arg = sig.fresh_free(aty)
    else:
        captured = ordered_free_vars(
            [x for m in c.literals for x in (m.lhs, m.rhs)])
        arg = skolem_term(sig, aty, captured)
    rest = [m for k, m in enumerate(c.literals) if k != i]
    new = Literal(canon(app(lit.lhs, arg)), canon(app(lit.rhs, arg)), lit.pos)
    return Clause(rest + [new])


# ---------------------------------------------------------------------------
# Injectivity
# ---------------------------------------------------------------------------

def match_injectivity(c: Clause) -> Optional[Const]:
    """The function symbol of an injectivity clause
    [f X ≃ f Y]^ff ∨ [X ≃ Y]^tt, if c has that shape."""
    if len(c.literals) != 2:
        return None
    neg_lit = next((l for l in c.literals if not l.pos), None)
    pos_lit = next((l for l in c.literals if l.pos), None)
    if neg_lit is None or pos_lit is None:
        return None
    hx, ax = spine(neg_lit.lhs)
    hy, ay = spine(neg_lit.rhs)
    if not (isinstance(hx, Const) and hx is hy
            and len(ax) == 1 and len(ay) == 1):
        return None
    x = is_eta_var(ax[0])
    y = is_eta_var(ay[0])
    if x is None or y is None or x is y:
        return None
    px = is_eta_var(pos_lit.lhs)
    py = is_eta_var(pos_lit.rhs)
    if px is None or py is None:
        return None
    if {px, py} != {x, y}:
        return None
    return hx


def inj_rule(c: Clause, sig: Signature, done: set) -> Optional[Clause]:
    """Postulate a left inverse for a symbol inferred to be injective."""
    f = match_injectivity(c)
    if f is None or f.name in done:
        return None
    done.add(f.name)
    aty = f.ty.arg
    rty = f.ty.res
    base = f"{f.name}_inv"
    name = base
    k = 0
    while sig.is_declared(name):
        k += 1
        name = f"{base}{k}"
    inv = const(name, fn(rty, res=aty))
    sig.declare(name, inv.ty, system=True)
    z = sig.fresh_free(aty)
    return Clause([literal(app(inv, app(f, z)), z, True)])


# ---------------------------------------------------------------------------
# Exhaustive instantiation of finite types
# ---------------------------------------------------------------------------

def finite_domain(ty: SimpleType) -> list:
    if ty is O:
        return [TRUE, FALSE]
    if isinstance(ty, FunType) and ty.arg is O and ty.res is O:
        x = bound(0, O)
        return [canon(lam(O, x)), canon(lam(O, neg(x))),
                canon(lam(O, TRUE)), canon(lam(O, FALSE))]
    raise TermError(f"no finite domain for type {ty!r}")


def exhaustive_instantiate(c: Clause, x: Free) -> set:
    """One instance clause per element of the finite domain of x's type."""
    return {apply_subst_clause(c, {x: e}) for e in finite_domain(x.ty)}


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------

@dataclass
class SimplifyOutcome:
    clause: Optional[Clause]    # None when the clause is redundant
    tautology: bool = False
    changed: bool = False
    used_units: tuple = ()      # ids of unit clauses used for rewrite/cut
    rules: tuple = ()           # subset of ("simp", "rewrite")


def _try_der(lits: list):
    """Destructive equality resolution on the first eligible literal."""
    for k, l in enumerate(lits):
        if l.pos or not (l.lhs.fvs or l.rhs.fvs):
            continue
        for a, b in ((l.lhs, l.rhs), (l.rhs, l.lhs)):
            x = is_eta_var(a)
            if x is not None and x not in b.fvs and b.loose == 0:
                rest = lits[:k] + lits[k + 1:]
                return [Literal(substitute(m.lhs, {x: b}),
                                substitute(m.rhs, {x: b}), m.pos)
                        for m in rest]
    return None


def _rewrite_once(t: Term, l: Term, r: Term):
    """Rewrite the first closed instance of l in t to the matching r."""
    for pi, sub in subterm_positions(t):
        if sub.loose or sub.ty is not l.ty:
            continue
        m = match_terms(l, sub, {})
        if m is not None:
            return canon(replace_at(t, pi, substitute(r, m)))
    return None


def _orient(lhs: Term, rhs: Term):
    """Larger side first; None when the equation cannot be oriented."""
    if lhs.size > rhs.size:
        return lhs, rhs
    if rhs.size > lhs.size:
        return rhs, lhs
    if lhs.skey > rhs.skey:
        return lhs, rhs
    if rhs.skey > lhs.skey:
        return rhs, lhs
    return None


def simplify(c: Clause, units=()) -> SimplifyOutcome:
    """Clause contraction to a fixpoint.

    units is a sequence of (id, unit Clause) used for oriented rewriting
    and contextual unit cutting; both record the unit id they used.
    """
    lits = list(c.literals)
    changed = False
    used = []
    rules = set()
    while True:
        progressed = False
        # trivial and absurd literals, duplicates, tautologies; literals
        # are compared by (lhs, rhs, pos), interned sides by identity
        out = []
        seen = set()
        for l in lits:
            lhs, rhs, pos = l.lhs, l.rhs, l.pos
            if lhs is rhs:
                if pos:
                    return SimplifyOutcome(None, tautology=True, changed=True)
                progressed = True
                continue
            if lhs is FALSE and rhs is TRUE:
                if pos:
                    progressed = True
                    continue
                return SimplifyOutcome(None, tautology=True, changed=True)
            if (lhs, rhs, pos) in seen:
                progressed = True
                continue
            if (lhs, rhs, not pos) in seen:
                return SimplifyOutcome(None, tautology=True, changed=True)
            seen.add((lhs, rhs, pos))
            out.append(l)
        lits = out
        der = _try_der(lits)
        if der is not None:
            lits = der
            changed = True
            rules.add("simp")
            continue
        # unit rewriting and unit cutting
        for uid, unit in units:
            if len(unit.literals) != 1 or unit is c:
                continue
            ul = unit.literals[0]
            if ul.pos and not ul.is_shorthand:
                ori = _orient(ul.lhs, ul.rhs)
                # rewriting toward a flexible-head term undoes progress made
                # by the extensionality rules, so such units are not used
                if ori is not None and not isinstance(
                        head_of(ori[1]), Free):
                    big, small = ori
                    for k, l in enumerate(lits):
                        nl = _rewrite_once(l.lhs, big, small)
                        if nl is not None:
                            lits[k] = Literal(nl, l.rhs, l.pos)
                            progressed = True
                            used.append(uid)
                            rules.add("rewrite")
                            break
                        nr = _rewrite_once(l.rhs, big, small)
                        if nr is not None:
                            lits[k] = Literal(l.lhs, nr, l.pos)
                            progressed = True
                            used.append(uid)
                            rules.add("rewrite")
                            break
                    if progressed:
                        break
            # unit cutting: drop literals contradicting the unit
            cut = None
            for k, l in enumerate(lits):
                if l.pos is ul.pos:
                    continue
                probe = Literal(ul.lhs, ul.rhs, l.pos)
                if any(True for _ in match_literal(probe, l, {})):
                    cut = k
                    break
            if cut is not None:
                del lits[cut]
                progressed = True
                used.append(uid)
                rules.add("rewrite")
                break
        if progressed:
            changed = True
            continue
        break
    # every rule that fires sets `changed`, so an unchanged clause still
    # has exactly the literals of c
    if not changed:
        return SimplifyOutcome(c)
    if not rules:
        rules.add("simp")
    return SimplifyOutcome(Clause(lits), changed=True,
                           used_units=tuple(dict.fromkeys(used)),
                           rules=tuple(sorted(rules)))
