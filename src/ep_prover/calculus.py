"""Generating and simplifying inference rules.

Paramodulation, equality factoring, primitive substitution, Boolean and
functional extensionality, injectivity postulation, exhaustive finite
instantiation, and clause-level simplification.  Each generating rule
has one enumerator of the conclusions it draws from its premises:
`eqfac_candidates`, `paramod_ordered`, `extensionality` (both
extensionality rules), `prim_subst`, `inj_rule` and `instantiate`, and
`unified` builds the conclusion of a unifier.  The saturation loop
keeps what they give, and the proof checker reruns them on a step's
parents.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import cache
from typing import Iterator, Optional

from .terms import (
    App, Const, Free, FunType, I, NOT, O, OR, Signature, SimpleType, Term,
    TermError, TRUE, FALSE, app, base_types_in, bound, canon, const,
    eq_const, fn, head_of, is_eta_var, lam, neg, ordered_free_vars,
    pi_const, replace_at, spine, subterm_positions, substitute,
)
from .clauses import (
    Clause, Literal, cuts, match_terms, prop_literal, rename_clause,
)
from .cnf import OutOfTime, skolem_term
from .unification import general_bindings


# ---------------------------------------------------------------------------
# Paramodulation
# ---------------------------------------------------------------------------

def _para_target(sub: Term) -> bool:
    if sub.loose:
        return False
    if sub is TRUE or sub is FALSE:
        return False
    if is_eta_var(sub) is not None:
        return False  # bare variable at the target position
    return True


def _rest(c: Clause, i: int, d: Clause, j: int) -> tuple:
    """The literals of c but its i-th and of d but its j-th."""
    return c.literals[:i] + c.literals[i + 1:] \
        + d.literals[:j] + d.literals[j + 1:]


def ordered_resolution(clauses) -> bool:
    """Whether a run whose initial clauses are `clauses` resolves only on
    maximal atoms: when every literal is a shorthand literal over a
    constant.  Every conclusion of such clauses is one too, and ordered
    resolution is refutationally complete for ground clauses (Bachmair &
    Ganzinger, "Resolution Theorem Proving", Handbook of Automated
    Reasoning, 2001).  The saturation loop asks once per run, after
    preprocessing, and passes the answer to `paramod_ordered`."""
    return all(l.is_shorthand and type(l.lhs) is Const
               for c in clauses for l in c.literals)


def _maximal(c: Clause, minted) -> int:
    """The index of the maximal literal of c under the atom order of an
    ordered run: constants named in `minted` rank below all other atoms,
    and atoms of one class by `skey`, the order `Clause.literals` is
    sorted by.  So it is the last literal whose atom is not minted, or
    else the last literal; -1 for the empty clause."""
    lits = c.literals
    for k in range(len(lits) - 1, -1, -1):
        a = lits[k].lhs
        if type(a) is not Const or a.name not in minted:
            return k
    return len(lits) - 1


def para_candidates(c: Clause, d: Clause,
                    minted=None) -> Iterator[Clause]:
    """All paramodulation inferences from equations of d into c.

    The subterm sub at position pi of one side s of a literal [s ~ t]^a
    of c is rewritten by an equation l = r of d, under the unification
    constraint [sub ~ l]^ff; the premises must be variable-disjoint.  A
    conclusion omits what `normalize` would only delete: the rewritten
    literal when it is negative and its new side is t, and the constraint
    when sub is l.  So ground resolution yields the bare resolvent.

    A ground atom [p]^tt does not rewrite a different ground atom [q]^ff
    as a whole: its constraint [q = p]^ff splits at once into two
    clauses, one containing d and the other c.  A constant q has no other
    position, so it is not walked; its one conclusion is the resolvent,
    when q is p.

    In a run of ground propositional clauses (`ordered_resolution`),
    `minted` holds the names of the atoms the run minted, which rank
    below the others (`_maximal`), and the only conclusion is the
    resolvent on the maximal literals of both premises, [p]^tt of d and
    [p]^ff of c.  Minted names then are eliminated last, as directional
    resolution eliminates atoms in a fixed order (Dechter & Rish, KR
    1994).  Factoring is implicit: `simplify` drops duplicate literals.
    In any other run `minted` is None.
    """
    if minted is not None:
        j = _maximal(d, minted)
        if j < 0 or not d.literals[j].pos:
            return
        i = _maximal(c, minted)
        if i >= 0:
            lit_d, lit_c = d.literals[j], c.literals[i]
            if not lit_c.pos and lit_c.lhs is lit_d.lhs \
                    and lit_c.is_shorthand and lit_d.is_shorthand:
                yield Clause(_rest(c, i, d, j))
        return
    for j, lit_d in enumerate(d.literals):
        if not lit_d.pos:
            continue
        ground_atom = lit_d.is_shorthand and not lit_d.lhs.fvs
        for i, lit_c in enumerate(c.literals):
            if c is d and i == j:
                continue
            rest = None
            skip_root = False
            if lit_c.is_shorthand and lit_d.is_shorthand:
                # redundant between positive propositional literals
                if lit_c.pos:
                    continue
                q = lit_c.lhs
                if ground_atom and not q.fvs:
                    if type(q) is Const:
                        if q is lit_d.lhs and q is not FALSE:
                            yield Clause(_rest(c, i, d, j))
                        continue
                    # the root of a different ground atom: see above
                    skip_root = q is not lit_d.lhs
            for swap in (False, True):
                l, r = (lit_d.rhs, lit_d.lhs) if swap else (lit_d.lhs, lit_d.rhs)
                if l is TRUE or l is FALSE:
                    continue
                for side in (0, 1):
                    s, t = (lit_c.lhs, lit_c.rhs) if side == 0 \
                        else (lit_c.rhs, lit_c.lhs)
                    if side == 1 and s is lit_c.lhs:
                        continue
                    for pi, sub in subterm_positions(s):
                        if sub.ty is not l.ty or not _para_target(sub):
                            continue
                        if skip_root and sub is s:
                            continue
                        if rest is None:
                            rest = _rest(c, i, d, j)
                        lits = list(rest)
                        new = canon(replace_at(s, pi, r))
                        if new is not t or lit_c.pos:
                            lits.append(Literal(new, t, lit_c.pos))
                        if canon(sub) is not l:
                            lits.append(Literal(sub, l, False))
                        yield Clause(lits)


def paramod_ordered(into: Clause, frm: Clause, sig: Signature,
                    ordered: bool) -> Iterator[Clause]:
    """All paramodulation inferences into `into` from a fresh variant of
    `frm`, which is renamed at once; in a run of `ordered_resolution`,
    the resolvent on the maximal atoms, if any."""
    if ordered:
        return para_candidates(into, frm, sig.system)
    variant, _ = rename_clause(frm, sig)
    return para_candidates(into, variant)


# ---------------------------------------------------------------------------
# Unification of constraint literals
# ---------------------------------------------------------------------------

def constraint_pairs(c: Clause) -> list:
    """The sides of c's constraint literals, its negative proper equations."""
    return [(l.lhs, l.rhs) for l in c.literals
            if not l.pos and not l.is_shorthand]


def unified(c: Clause, subst, residuals) -> Clause:
    """The conclusion of a unifier of c's constraints: the other literals
    of c under `subst`, and the pairs the unifier left unsolved
    (`residuals`) as constraints."""
    return Clause([Literal(subst.apply(l.lhs), subst.apply(l.rhs), l.pos)
                   for l in c.literals if l.pos or l.is_shorthand]
                  + [Literal(a, b, False) for a, b in residuals])


# ---------------------------------------------------------------------------
# Equality factoring
# ---------------------------------------------------------------------------

def eqfac_candidates(c: Clause) -> Iterator[Clause]:
    """All factorings of two literals s = t and u = v of c with the same
    polarity and side type: the first is kept, the second replaced by
    the constraints s != u and t != v, or s != v and t != u.  (Turning
    t = s around as well would give these constraints again.)

    Two ground propositional literals [s]^a and [u]^a are not factored.
    Each such conclusion is a tautology, the parent again, or carries
    the ground Boolean constraint [s = u]^ff, which the saturation loop
    splits at once into a tautology and the parent."""
    n = len(c.literals)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            li, lj = c.literals[i], c.literals[j]
            if li.pos is not lj.pos or li.lhs.ty is not lj.lhs.ty:
                continue
            if li.is_shorthand and lj.is_shorthand \
                    and not li.lhs.fvs and not lj.lhs.fvs:
                continue
            rest = [m for k, m in enumerate(c.literals) if k != j]
            s, t = li.lhs, li.rhs
            for u, v in ((lj.lhs, lj.rhs), (lj.rhs, lj.lhs)):
                yield Clause(rest + [Literal(s, u, False),
                                     Literal(t, v, False)])


# ---------------------------------------------------------------------------
# Primitive substitution
# ---------------------------------------------------------------------------

PS_BASE_HEADS = (NOT, OR)


def inst_types(sig: Signature) -> tuple:
    """The types primitive substitution instantiates quantifiers and
    equations at: the base types of the problem's own constants, or $i
    when there are none.  Only the parser and the modal embedding declare
    constants outside `sig.system`, so these are fixed for a run."""
    return base_types_in(ty for name, ty in sig.constants.items()
                         if name not in sig.system) or (I,)


def prim_subst(c: Clause, sig: Signature, inst_types: tuple) -> list:
    """Approximate the logical structure of each flexible-head literal.

    For each such literal, in literal order, and each candidate head
    (negation, disjunction, and universal quantification / equality at
    the given types) produces the clause with the approximating
    constraint.
    """
    out = []
    for lit in c.literals:
        if not lit.is_shorthand:
            continue
        h, _ = spine(lit.lhs)
        if not isinstance(h, Free):
            continue
        heads = list(PS_BASE_HEADS)
        for ty in inst_types:
            heads.append(pi_const(ty))
            heads.append(eq_const(ty))
        for head in heads:
            gbs = general_bindings(h.ty, head, sig)
            if not gbs:
                continue
            g = gbs[0]  # the imitation binding
            out.append(Clause(list(c.literals)
                              + [Literal(h, g, False)]))
    return out


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
    new = Literal(app(lit.lhs, arg), app(lit.rhs, arg), lit.pos)
    return Clause(rest + [new])


def extensionality(c: Clause, sig: Signature) -> Iterator[tuple]:
    """(rule, conclusion) of Boolean and functional extensionality on
    each proper equation literal of c, in literal order."""
    for i, l in enumerate(c.literals):
        if l.is_shorthand:
            continue
        if l.lhs.ty is O:
            for x in bool_ext(c, i):
                yield "bool_ext", x
        elif isinstance(l.lhs.ty, FunType):
            yield "func_ext", func_ext(c, i, sig)


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


def inj_rule(c: Clause, sig: Signature, done: set) -> list:
    """Postulate a left inverse for a symbol inferred to be injective,
    unless `done` names the symbol already."""
    f = match_injectivity(c)
    if f is None or f.name in done:
        return []
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
    return [Clause([Literal(app(inv, app(f, z)), z, True)])]


# ---------------------------------------------------------------------------
# Exhaustive instantiation of finite types
# ---------------------------------------------------------------------------

# Variables of these finite types are instantiated exhaustively before
# the search starts.
EXHAUSTIVE_INST_TYPES = frozenset((O, fn(O, res=O)))


def finite_domain(ty: SimpleType) -> list:
    if ty is O:
        return [TRUE, FALSE]
    if isinstance(ty, FunType) and ty.arg is O and ty.res is O:
        x = bound(0, O)
        return [lam(O, x), lam(O, neg(x)), lam(O, TRUE), lam(O, FALSE)]
    raise TermError(f"no finite domain for type {ty!r}")


def instantiate(c: Clause) -> list:
    """One instance of c per element of the finite domain of its first
    finite-typed free variable by name, in `_key` order; none when c has
    no such variable."""
    x = next((v for v in sorted(c.free_vars(), key=lambda v: v.name)
              if v.ty in EXHAUSTIVE_INST_TYPES), None)
    if x is None:
        return []
    insts = {Clause([Literal(substitute(l.lhs, {x: e}),
                             substitute(l.rhs, {x: e}), l.pos)
                     for l in c.literals])
             for e in finite_domain(x.ty)}
    return sorted(insts, key=lambda i: i._key)


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------

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
    """Rewrite the first closed instance of l in t to the matching r; the
    result is a side for `Literal`, which canonicalizes it."""
    for pi, sub in subterm_positions(t):
        if sub.loose or sub.ty is not l.ty:
            continue
        m = match_terms(l, sub, {})
        if m is not None:
            return replace_at(t, pi, substitute(r, m))
    return None


def _var_occurrences(t: Term) -> Optional[Counter]:
    """How often each free variable occurs in t; None when one is applied
    to arguments."""
    occ = Counter()
    for _, s in subterm_positions(t):
        if isinstance(s, Free):
            occ[s] += 1
        elif isinstance(s, App) and isinstance(s.head, Free):
            return None
    return occ


@cache
def _orient(lhs: Term, rhs: Term):
    """Larger side first; None when the equation cannot be oriented.

    A ground equation is oriented by size, then by structural key.  An
    open one l -> r needs l strictly larger, each free variable occurring
    in r at most as often as in l, and none applied to arguments, which
    beta-reduction of an instance could grow.  This is the variable
    condition of the Knuth-Bendix order: every rewrite step then makes
    the rewritten instance smaller, so unit rewriting terminates.
    """
    if lhs.size == rhs.size:
        # an open one, such as f X Y = f Y X, could rewrite forever
        if lhs.fvs or rhs.fvs or lhs is rhs:
            return None
        return (lhs, rhs) if lhs.skey > rhs.skey else (rhs, lhs)
    big, small = (lhs, rhs) if lhs.size > rhs.size else (rhs, lhs)
    if big.fvs or small.fvs:
        occ_big = _var_occurrences(big)
        occ_small = _var_occurrences(small)
        if occ_big is None or occ_small is None \
                or any(n > occ_big[x] for x, n in occ_small.items()):
            return None
    return big, small


class UnitIndex:
    """The unit clauses `simplify` contracts by, as (id, clause) pairs in
    P order, which is how it iterates, split for lookup.

    A ground unit that cannot rewrite, a negative one or a shorthand
    [p]^tt, only cuts its complement, the literal with the same interned
    sides and the other polarity (`Literal` orients equal sides alike).
    `ground` maps the complement's key (lhs, rhs, pos) to (position, n,
    id) of the first such unit: its position among the units and the
    number n of `scan` entries placed before it.  Every other unit, an
    open one or a positive ground equation, which can rewrite, is in
    `scan` as (id, clause), in P order.  So `simplify` finds the earliest
    ground cut with one lookup per literal and scans only the units
    before it, which keeps the rule that the first unit in P order that
    applies is used."""

    __slots__ = ("units", "ground", "scan")

    def __init__(self, units=()):
        self.units = []
        self.ground = {}
        self.scan = []
        for uid, c in units:
            self.add(uid, c)

    def add(self, uid, c: Clause):
        """Place the clause c of record uid after the units added so far;
        a clause that is not a unit neither rewrites nor cuts, and is
        left out."""
        if len(c.literals) != 1:
            return
        ul = c.literals[0]
        if ul.lhs.fvs or ul.rhs.fvs or ul.pos and not ul.is_shorthand:
            self.scan.append((uid, c))
        else:
            self.ground.setdefault((ul.lhs, ul.rhs, not ul.pos),
                                   (len(self.units), len(self.scan), uid))
        self.units.append((uid, c))

    def __iter__(self):
        return iter(self.units)


def simplify(c: Clause, units=(),
             deadline: Optional[float] = None) -> tuple:
    """Clause contraction to a fixpoint.

    Returns (None, ()) when c is redundant, (c, ()) when nothing applies,
    and otherwise the contracted clause with the ids of the units that
    rewrote or cut it, in order of first use.  units is a `UnitIndex`, or
    a sequence of (id, unit Clause) to build one from, used for oriented
    rewriting and contextual unit cutting: in each pass the first unit
    in its order that rewrites or cuts is used.  Raises OutOfTime once
    `deadline` (a `time.monotonic()` value) has passed at the end of a
    pass that changed the clause.
    """
    if type(units) is not UnitIndex:
        units = UnitIndex(units)
    ground, scan = units.ground, units.scan
    lits = list(c.literals)
    changed = False
    used = []
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
                    return None, ()
                progressed = True
                continue
            if lhs is FALSE and rhs is TRUE:
                if pos:
                    progressed = True
                    continue
                return None, ()
            if (lhs, rhs, pos) in seen:
                progressed = True
                continue
            if (lhs, rhs, not pos) in seen:
                return None, ()
            seen.add((lhs, rhs, pos))
            out.append(l)
        lits = out
        der = _try_der(lits)
        if der is not None:
            lits = der
            changed = True
            continue
        # unit rewriting and unit cutting: the earliest ground unit that
        # cuts a literal, by lookup, unless a unit of `scan` placed
        # before it applies first
        cut_by = None       # the `ground` entry of that unit
        if ground:
            for k, l in enumerate(lits):
                h = ground.get((l.lhs, l.rhs, l.pos))
                if h is not None and (cut_by is None or h[0] < cut_by[0]):
                    cut_by, cut_at = h, k
        for uid, unit in scan if cut_by is None else scan[:cut_by[1]]:
            if unit is c:
                continue
            ul = unit.literals[0]
            if ul.pos and not ul.is_shorthand:
                ori = _orient(ul.lhs, ul.rhs)
                # rewriting toward a flexible-head term undoes progress made
                # by the extensionality rules, so such units are not used
                if ori is not None and not isinstance(
                        head_of(ori[1]), Free):
                    big, small = ori
                    new = None
                    for k, l in enumerate(lits):
                        for side, other in ((l.lhs, l.rhs), (l.rhs, l.lhs)):
                            new = _rewrite_once(side, big, small)
                            if new is not None:
                                lits[k] = Literal(new, other, l.pos)
                                break
                        if new is not None:
                            progressed = True
                            used.append(uid)
                            break
                    # also when this unit rewrote nothing
                    if progressed:
                        break
            # unit cutting: drop literals contradicting the unit
            cut = None
            for k, l in enumerate(lits):
                if l.pos is not ul.pos and cuts(unit, l):
                    cut = k
                    break
            if cut is not None:
                del lits[cut]
                progressed = True
                used.append(uid)
                break
        else:
            if cut_by is not None:
                del lits[cut_at]
                progressed = True
                used.append(cut_by[2])
        if progressed:
            changed = True
            if deadline is not None and time.monotonic() > deadline:
                raise OutOfTime
            continue
        break
    # every rule that fires sets `changed`, so an unchanged clause still
    # has exactly the literals of c
    if not changed:
        return c, ()
    return Clause(lits), tuple(dict.fromkeys(used))
