"""Literals as signed equations and clauses as literal multisets."""

from __future__ import annotations

from typing import Iterable, Optional

from .terms import (
    Abs, Bound, Const, Free, Term, TRUE, canon, distinct_bound_args, head_of,
    invert_pattern, same_rigid_head, spine, substitute, type_str,
)


class Literal:
    """A signed equation [lhs ~ rhs]^polarity with symmetric storage."""

    __slots__ = ("lhs", "rhs", "pos", "_key")

    def __init__(self, lhs: Term, rhs: Term, pos: bool):
        if lhs.ty is not rhs.ty:
            raise ValueError("equation sides must share a type")
        # canonical orientation: structural key order, $true always right
        if _orient_key(lhs) > _orient_key(rhs):
            lhs, rhs = rhs, lhs
        self.lhs = lhs
        self.rhs = rhs
        self.pos = pos
        self._key = (lhs.skey, rhs.skey, pos)

    def __eq__(self, other):
        return isinstance(other, Literal) and self.lhs is other.lhs \
            and self.rhs is other.rhs and self.pos is other.pos

    def __hash__(self):
        return hash((self.lhs.tid, self.rhs.tid, self.pos))

    def __repr__(self):
        sign = "tt" if self.pos else "ff"
        return f"[{self.lhs!r} = {self.rhs!r}]^{sign}"

    @property
    def is_shorthand(self) -> bool:
        """Stored form of a propositional literal [s]^a, i.e. [s ~ $true]^a."""
        return self.rhs is TRUE and self.lhs is not TRUE

    def free_vars(self) -> frozenset:
        return self.lhs.fvs | self.rhs.fvs


def _orient_key(t: Term):
    return (t is TRUE, t.skey)


def literal(lhs: Term, rhs: Term, pos: bool) -> Literal:
    return Literal(canon(lhs), canon(rhs), pos)


def prop_literal(formula: Term, pos: bool) -> Literal:
    """Shorthand literal [s]^a stored as [s ~ $true]^a."""
    return literal(formula, TRUE, pos)


class Clause:
    """Multiset of literals, stored sorted for canonical identity."""

    __slots__ = ("literals", "_key")

    def __init__(self, literals: Iterable[Literal]):
        lits = sorted(literals, key=lambda l: l._key)
        self.literals = tuple(lits)
        self._key = tuple(l._key for l in lits)

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
            out |= l.free_vars()
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


def _term_sig(t: Term, names: Optional[dict], out: list):
    if isinstance(t, Const):
        out.append("c:" + t.name)
    elif isinstance(t, Free):
        if names is None:
            out.append("f:*:" + type_str(t.ty))
        else:
            out.append("f:%d" % names.setdefault(t, len(names)))
    elif isinstance(t, Bound):
        out.append("b:%d" % t.index)
    elif isinstance(t, Abs):
        out.append("l:" + type_str(t.var_ty))
        _term_sig(t.body, names, out)
    else:
        out.append("a:%d" % len(t.args))
        _term_sig(t.head, names, out)
        for a in t.args:
            _term_sig(a, names, out)


def alpha_key(c: Clause, term_sig=_term_sig) -> tuple:
    """Hashable clause key invariant under free-variable renaming.

    Literals are ordered by a name-blind structural key, then free
    variables are numbered by first occurrence in that order.
    `term_sig(t, names, out)` appends the signature of t to out, numbering
    renameable symbols through `names`, or leaving them blind when
    `names` is None.

    Renaming cannot change a ground clause, so under the default walker
    a ground clause keys on its content, `Clause._key`.  Those keys are
    tuples of triples and never equal the string tuples built below.
    """
    if term_sig is _term_sig:
        for l in c.literals:
            if l.lhs.fvs or l.rhs.fvs:
                break
        else:
            return c._key

    def blind(l: Literal) -> tuple:
        acc = ["+" if l.pos else "-"]
        term_sig(l.lhs, None, acc)
        term_sig(l.rhs, None, acc)
        return tuple(acc)

    order = sorted(range(len(c.literals)),
                   key=lambda i: blind(c.literals[i]))
    names: dict = {}
    out: list = []
    for i in order:
        l = c.literals[i]
        out.append("+" if l.pos else "-")
        term_sig(l.lhs, names, out)
        term_sig(l.rhs, names, out)
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

def match_terms(pattern: Term, target: Term, binding: dict,
                bindable: Optional[frozenset] = None) -> Optional[dict]:
    """Extend binding so pattern{binding} == target, or None.

    Only the variables in `bindable` (the pattern's own variables, by
    default) may be instantiated; any other free variable is rigid.
    Restricted to the decidable fragment: bindable variables may be bare
    or applied to distinct bound variables; anything else fails
    conservatively.
    """
    if bindable is None:
        bindable = pattern.fvs
    if pattern.ty is not target.ty:
        return None
    if isinstance(pattern, Abs):
        if not isinstance(target, Abs):
            return None
        return match_terms(pattern.body, target.body, binding, bindable)
    ph, pargs = spine(pattern)
    if isinstance(ph, Free) and ph in binding:
        # resolve already-bound variables; bounded because a chain of
        # acyclic bindings resolves in at most len(binding) rounds
        reduced = pattern
        for _ in range(len(binding) + 1):
            relevant = {v: binding[v] for v in reduced.fvs if v in binding}
            if not relevant:
                break
            reduced = substitute(reduced, relevant)
        else:
            return None
        if reduced is target:
            return binding
        return match_terms(reduced, target, binding, bindable)
    if isinstance(ph, Free) and ph in bindable:
        if not pargs:
            if target.loose:
                return None
            bound_to = binding.get(ph)
            if bound_to is not None:
                return binding if bound_to is target else None
            if ph is target:
                return binding
            new = dict(binding)
            new[ph] = target
            return new
        # pattern case: X applied to distinct bound variables
        if not distinct_bound_args(pargs):
            return None
        img = invert_pattern(pargs, target)
        if img is None:
            return None
        bound_to = binding.get(ph)
        if bound_to is not None:
            return binding if bound_to is img else None
        new = dict(binding)
        new[ph] = img
        return new
    # rigid head: constant, bound variable, or a non-bindable free
    th, targs = spine(target)
    if not same_rigid_head(ph, th) or len(pargs) != len(targs):
        return None
    for pa, ta in zip(pargs, targs):
        binding = match_terms(pa, ta, binding, bindable)
        if binding is None:
            return None
    return binding


def match_literal(pl: Literal, tl: Literal, binding: dict,
                  bindable: Optional[frozenset] = None):
    """Match a pattern literal against a target literal, both orientations."""
    if pl.pos is not tl.pos:
        return
    if bindable is None:
        bindable = pl.free_vars()
    for a, b in ((tl.lhs, tl.rhs), (tl.rhs, tl.lhs)):
        m = match_terms(pl.lhs, a, binding, bindable)
        if m is not None:
            m2 = match_terms(pl.rhs, b, m, bindable)
            if m2 is not None:
                yield m2


def subsumes(c: Clause, d: Clause) -> bool:
    """True if some substitution maps c into d as a literal multiset."""
    if len(c) > len(d):
        return False

    dl = list(d.literals)
    bindable = frozenset(c.free_vars())

    def go(i: int, binding: dict, used: int) -> bool:
        if i == len(c.literals):
            return True
        pl = c.literals[i]
        for j, tl in enumerate(dl):
            if used & (1 << j):
                continue
            for m in match_literal(pl, tl, binding, bindable):
                if go(i + 1, m, used | (1 << j)):
                    return True
        return False

    return go(0, {}, 0)
