"""Literals as signed equations and clauses as literal multisets."""

from __future__ import annotations

from functools import cache
from typing import Iterable, Optional

from .terms import (
    Abs, Bound, Free, Term, TRUE, canon, constants, distinct_bound_args,
    free, head_of, invert_pattern, number_vars, replace_consts,
    same_rigid_head, spine, substitute, union_fvs,
)


class Literal:
    """A signed equation [lhs ~ rhs]^polarity with symmetric storage.
    Both sides are stored in canonical form (`canon`).  `is_shorthand`
    tells whether it is the stored form of a propositional literal [s]^a,
    i.e. [s ~ $true]^a."""

    __slots__ = ("lhs", "rhs", "pos", "_key", "is_shorthand")

    def __init__(self, lhs: Term, rhs: Term, pos: bool):
        if lhs.ty is not rhs.ty:
            raise ValueError("equation sides must share a type")
        lhs = canon(lhs)
        rhs = canon(rhs)
        lk = lhs.skey
        rk = rhs.skey
        # canonical orientation: structural key order, $true always right
        if (lhs is TRUE, lk) > (rhs is TRUE, rk):
            lhs, rhs, lk, rk = rhs, lhs, rk, lk
        self.lhs = lhs
        self.rhs = rhs
        self.pos = pos
        self._key = (lk, rk, pos)
        self.is_shorthand = rhs is TRUE and lhs is not TRUE

    def __eq__(self, other):
        return isinstance(other, Literal) and self.lhs is other.lhs \
            and self.rhs is other.rhs and self.pos is other.pos

    def __hash__(self):
        return hash((self.lhs.tid, self.rhs.tid, self.pos))

    def __repr__(self):
        sign = "tt" if self.pos else "ff"
        return f"[{self.lhs!r} = {self.rhs!r}]^{sign}"

    def free_vars(self) -> frozenset:
        return union_fvs(self.lhs.fvs, self.rhs.fvs)


def prop_literal(formula: Term, pos: bool) -> Literal:
    """Shorthand literal [s]^a stored as [s ~ $true]^a."""
    return Literal(formula, TRUE, pos)


class Clause:
    """Multiset of literals, stored sorted for canonical identity."""

    __slots__ = ("literals", "_key", "_match")

    literals: tuple
    _key: tuple
    _match: Optional[tuple]     # what `subsumes` reads, once known

    def __init__(self, literals: Iterable[Literal]):
        lits = sorted(literals, key=lambda l: l._key)
        self.literals = tuple(lits)
        self._key = tuple(l._key for l in lits)
        self._match = None

    def __eq__(self, other):
        return isinstance(other, Clause) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __len__(self):
        return len(self.literals)

    def __iter__(self):
        return iter(self.literals)

    def __repr__(self):
        if not self.literals:
            return "[]"
        return "{" + " | ".join(map(repr, self.literals)) + "}"

    def free_vars(self) -> frozenset:
        out = frozenset()
        for l in self.literals:
            if l.lhs.fvs or l.rhs.fvs:
                out = union_fvs(out, l.free_vars())
        return out


EMPTY_CLAUSE = Clause(())


def is_flex_flex(lit: Literal) -> bool:
    """Negative literal whose both sides have free-variable heads."""
    return (not lit.pos
            and isinstance(head_of(lit.lhs), Free)
            and isinstance(head_of(lit.rhs), Free))


def is_empty_clause(c: Clause) -> bool:
    return all(is_flex_flex(l) for l in c.literals)


def clause_weight(c: Clause) -> int:
    return sum(l.lhs.size + l.rhs.size for l in c.literals)


_blind_ids: dict = {}


@cache
def _blind(t: Term) -> int:
    """Name-blind id of t: two terms get the same id exactly when they
    differ only in the names of their free variables.  A ground term's id
    is its `tid`; the others get negative ids from `_blind_ids`."""
    if not t.fvs:
        return t.tid
    if isinstance(t, Free):
        key = ("v", t.ty.uid)
    elif isinstance(t, Abs):
        key = ("l", t.var_ty.uid, _blind(t.body))
    else:
        key = ("a", _blind(t.head), *map(_blind, t.args))
    return _blind_ids.setdefault(key, -1 - len(_blind_ids))


def alpha_key(c: Clause, minted=frozenset()) -> tuple:
    """Hashable clause key invariant under free-variable renaming.

    A literal's name-blind key is its polarity and the `_blind` ids of its
    sides.  Literals are sorted by it, stably, so literals with equal keys
    keep their clause order; then the free variables are numbered by
    first occurrence in that order (`number_vars`).  The clause key is
    the sorted triples followed by the variable numbers.  Renaming cannot
    change a ground clause, so a ground clause keys on its content,
    `Clause._key`, whose triples hold strings and never equal the integer
    triples.

    Constants named in `minted` (fresh symbols a run or a replay
    invented) are keyed as stand-in free variables, and the key ends
    with the numbers the stand-ins got: so it is also invariant under
    renaming minted constants to minted constants, and only to them.
    """
    # a stand-in's name starts with `$`, which no free variable's does
    ins = minted and {k.name: free("$" + k.name, k.ty)
                      for l in c.literals for side in (l.lhs, l.rhs)
                      for k in constants(side) if k.name in minted}
    if ins:
        c = Clause([Literal(replace_consts(l.lhs, ins),
                            replace_consts(l.rhs, ins), l.pos)
                    for l in c.literals])
    lits = c.literals
    for l in lits:
        if l.lhs.fvs or l.rhs.fvs:
            break
    else:
        return c._key
    keys = [(l.pos, _blind(l.lhs), _blind(l.rhs)) for l in lits]
    order = sorted(range(len(lits)), key=keys.__getitem__)
    out = [keys[i] for i in order]
    sides = []
    for i in order:
        l = lits[i]
        sides += l.lhs, l.rhs
    names = number_vars(sides, out)
    if ins:
        stand_ins = set(ins.values())
        out.extend(n for n, v in enumerate(names) if v in stand_ins)
    return tuple(out)


def rename_clause(c: Clause, sig) -> tuple:
    """Fresh variant of a clause; returns (variant, renaming dict)."""
    fvs = sorted(c.free_vars(), key=lambda v: v.name)
    if not fvs:
        return c, {}
    ren = {v: sig.fresh_free(v.ty) for v in fvs}
    lits = [Literal(substitute(l.lhs, ren), substitute(l.rhs, ren), l.pos)
            for l in c.literals]
    return Clause(lits), ren


# ---------------------------------------------------------------------------
# Matching (pattern/first-order fragment) and subsumption
# ---------------------------------------------------------------------------

def match_terms(pattern: Term, target: Term,
                binding: dict) -> Optional[dict]:
    """Extend binding so pattern{binding} == target, or None.

    One binding rule: every free variable of the pattern is a pattern
    variable, and `binding` maps them all at once to closed terms read
    off the target (a subterm, or its abstraction over the distinct bound
    variables the pattern variable is applied to).  An image is compared
    with what its variable meets again, never matched or resolved
    further.  So the answer holds when pattern and target share variable
    names: the target's variables are rigid, and a shared X met by the
    target's X is the binding X -> X.

    A pattern variable applied to other arguments matches only once
    every variable of that pattern subterm is bound: the instance is
    then compared with the target.  Anything else fails conservatively;
    first-order matching is complete.
    """
    if pattern.ty is not target.ty:
        return None
    if isinstance(pattern, Abs):
        if not isinstance(target, Abs):
            return None
        return match_terms(pattern.body, target.body, binding)
    ph, pargs = spine(pattern)
    if isinstance(ph, Free):
        if not pargs:
            if target.loose:
                return None
            img = target
        elif distinct_bound_args(pargs):
            img = invert_pattern(pargs, target)
            if img is None:
                return None
        elif all(v in binding for v in pattern.fvs):
            inst = _instance(pattern, *[binding[v] for v in pattern.fvs])
            return binding if inst is target else None
        else:
            return None
        bound_to = binding.get(ph)
        if bound_to is not None:
            return binding if bound_to is img else None
        new = dict(binding)
        new[ph] = img
        return new
    # rigid head: constant or bound variable
    th, targs = spine(target)
    if not same_rigid_head(ph, th) or len(pargs) != len(targs):
        return None
    for pa, ta in zip(pargs, targs):
        binding = match_terms(pa, ta, binding)
        if binding is None:
            return None
    return binding


@cache
def _instance(pattern: Term, *images: Term) -> Term:
    """substitute(pattern, ...) with images[k] for the k-th variable of
    pattern.fvs: the instance `match_terms` compares with its target.
    An interned term always holds the same set object, so the order of
    its variables, and with it this memo's key, is fixed."""
    return substitute(pattern, dict(zip(pattern.fvs, images)))


@cache
def _needs_binding(t: Term) -> bool:
    """Whether t holds a free variable applied to arguments other than
    distinct bound variables, which `match_terms` can match only once
    that subterm's variables are bound."""
    if not t.fvs:
        return False
    if isinstance(t, Abs):
        return _needs_binding(t.body)
    h, args = spine(t)
    if isinstance(h, Free) and args and not distinct_bound_args(args):
        return True
    return any(_needs_binding(a) for a in args)


def _needs_binding_literal(l: Literal) -> bool:
    return _needs_binding(l.lhs) or _needs_binding(l.rhs)


def match_literal(pl: Literal, tl: Literal, binding: dict):
    """Match a pattern literal against a target literal, both orientations."""
    if pl.pos is not tl.pos:
        return
    for a, b in ((tl.lhs, tl.rhs), (tl.rhs, tl.lhs)):
        m = match_terms(pl.lhs, a, binding)
        if m is not None:
            m2 = match_terms(pl.rhs, b, m)
            if m2 is not None:
                yield m2


@cache
def _rigid_head(t: Term):
    """The `head_of` t as `heads_fit` compares it: a constant itself, a
    bound variable's index, None for a free variable.  Memoized, since
    `cuts` asks for the heads of a target literal once per unit."""
    h = head_of(t)
    if isinstance(h, Bound):
        return h.index
    return None if isinstance(h, Free) else h


def _match_info(c: Clause) -> tuple:
    """(rigid heads, matching order, ground keys) of c, kept in
    `c._match`.  The heads are (pos, lhs head, rhs head) per literal; the
    order puts a literal that only matches once its variables are bound
    last; the ground keys are the set of c's literal keys (`Clause._key`)
    when c is ground, else None."""
    info = c._match
    if info is None:
        lits = c.literals
        heads = tuple([(l.pos, _rigid_head(l.lhs), _rigid_head(l.rhs))
                       for l in lits])
        if any(l.lhs.fvs or l.rhs.fvs for l in lits):
            info = (heads, tuple(sorted(lits, key=_needs_binding_literal)),
                    None)
        else:
            info = (heads, lits, frozenset(c._key))
        c._match = info
    return info


def heads_fit(c: Clause, d: Clause) -> bool:
    """A necessary condition for `subsumes(c, d)`: every literal of c has
    a literal of d of the same polarity whose rigid heads fit, in either
    orientation.  A free-variable head of c fits any head; any other head
    of c must equal d's, and a free-variable head of d equals none of
    them, because `match_terms` treats it as rigid."""
    dh = _match_info(d)[0]
    for pos, a, b in _match_info(c)[0]:
        for dpos, x, y in dh:
            if dpos is pos and (
                    (a is None or a == x) and (b is None or b == y)
                    or (a is None or a == y) and (b is None or b == x)):
                break
        else:
            return False
    return True


def cuts(unit: Clause, l: Literal) -> bool:
    """Whether some instance of the literal of the unit clause `unit`,
    with its polarity flipped, is l: unit cutting may then drop l.  The
    polarities are not compared; the caller pairs opposite ones.  Each
    orientation of l is matched only once its rigid heads fit the
    unit's, the test of `heads_fit`.  A ground unit matches only itself:
    interned sides are the same term exactly when they are one object,
    and `Literal` orients equal sides alike, so it is decided by
    identity."""
    ul = unit.literals[0]
    if not (ul.lhs.fvs or ul.rhs.fvs):
        return l.lhs is ul.lhs and l.rhs is ul.rhs
    _, a, b = _match_info(unit)[0][0]
    x = _rigid_head(l.lhs)
    y = _rigid_head(l.rhs)
    for p, q, s, t in ((x, y, l.lhs, l.rhs), (y, x, l.rhs, l.lhs)):
        if (a is None or a == p) and (b is None or b == q):
            m = match_terms(ul.lhs, s, {})
            if m is not None and match_terms(ul.rhs, t, m) is not None:
                return True
    return False


def subsumes(c: Clause, d: Clause) -> bool:
    """True if some substitution of c's variables maps c into d as a
    literal multiset; c and d may share variable names (`match_terms`).

    A ground literal matches only itself, and ground literals are
    interned and oriented without variable names, so two are the same
    exactly when their keys are: a ground c without repeated literals
    subsumes d exactly when its literal keys are among d's.  Any other c
    is matched, which starts only once `heads_fit` holds."""
    if len(c) > len(d):
        return False
    _, order, keys = _match_info(c)
    if keys is not None and len(keys) == len(order):
        dkeys = _match_info(d)[2]
        return keys <= dkeys if dkeys is not None \
            else keys.issubset(d._key)
    return heads_fit(c, d) and _embed(order, d.literals, 0, {}, 0)


def _embed(cl: tuple, dl: tuple, i: int, binding: dict, used: int) -> bool:
    """Whether binding extends to map the pattern literals cl[i:] onto
    distinct literals of dl outside the bit set `used`: the depth-first
    search of `subsumes`."""
    if i == len(cl):
        return True
    pl = cl[i]
    for j, tl in enumerate(dl):
        if used & (1 << j):
            continue
        for m in match_literal(pl, tl, binding):
            if _embed(cl, dl, i + 1, m, used | (1 << j)):
                return True
    return False
