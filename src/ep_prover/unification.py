"""Higher-order unification: pre-unification with search budget.

Constraints are pairs of closed beta-normal eta-long terms of equal type.
The simplification phase applies trivial deletion, variable binding and
rigid-rigid decomposition to a fixpoint; remaining flex-rigid pairs are
attacked by branching over partial bindings (imitation, then projections).
Flex-flex pairs are never solved here, they are returned as residuals.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional

from .terms import (
    Const, Free, SimpleType, Subst, Term, app, arg_types, bound, canon,
    distinct_bound_args, fn, head_of, invert_pattern, is_eta_var,
    result_type, same_rigid_head, spine, strip_binders, wrap_binders,
)


DEFAULT_DEPTH = 8
DEFAULT_LIMIT = 4


class Unifier(NamedTuple):
    subst: Subst
    residuals: tuple  # flex-flex pairs left unsolved


class UnifOutcome:
    __slots__ = ("unifiers", "exhausted")

    def __init__(self, unifiers: list, exhausted: bool = False):
        self.unifiers = unifiers
        self.exhausted = exhausted  # search hit the depth or time budget


class _Clash(Exception):
    """Definitive non-unifiability found during simplification."""


def _decompose(binders: list, hs: Term, sargs: tuple, ht: Term,
               targs: tuple, work: list) -> bool:
    """Rigid-rigid step: False on a head clash, else push the argument
    pairs, each under the shared binders, onto work."""
    if not same_rigid_head(hs, ht):
        return False
    for sa, ta in zip(sargs, targs):
        work.append((wrap_binders(binders, sa), wrap_binders(binders, ta)))
    return True


def simplify_pairs(pairs: list, subst: Subst):
    """Exhaustively apply Triv, Bind and Decomp.

    Returns (subst, flex_rigid, flex_flex) or raises _Clash.
    """
    work = list(pairs)
    flex_rigid: list = []
    flex_flex: list = []
    while work:
        s, t = work.pop()
        s, t = subst.apply(s), subst.apply(t)
        if s is t:
            continue
        binders, sb = strip_binders(s)
        _, tb = strip_binders(t)
        hs, sargs = spine(sb)
        ht, targs = spine(tb)
        s_flex = isinstance(hs, Free)
        t_flex = isinstance(ht, Free)
        if not s_flex and not t_flex:
            if not _decompose(binders, hs, sargs, ht, targs, work):
                raise _Clash
            continue
        # Bind: one side is (eta-equivalent to) a bare free variable
        bind = None
        for side, other in ((s, t), (t, s)):
            xv = is_eta_var(side)
            if xv is not None and xv not in other.fvs:
                bind = xv, other
                break
        if bind is not None:
            subst = subst.bind(*bind)
            work.extend(flex_rigid)
            work.extend(flex_flex)
            flex_rigid, flex_flex = [], []
            continue
        if s_flex and t_flex:
            flex_flex.append((s, t))
        elif s_flex:
            flex_rigid.append((s, t))
        else:
            flex_rigid.append((t, s))
    return subst, flex_rigid, flex_flex


def general_bindings(var_ty: SimpleType, rigid_head: Optional[Term],
                     sig) -> list:
    """Partial bindings for a flexible head of type var_ty.

    The imitation binding (if rigid_head is a constant) comes first,
    followed by the projection bindings in argument order.
    """
    ats = list(arg_types(var_ty))
    res = result_type(var_ty)
    n = len(ats)
    xs = [bound(n - 1 - k, ats[k]) for k in range(n)]

    def fresh_applied(goal: SimpleType) -> Term:
        h = sig.fresh_free(fn(*ats, res=goal))
        return app(h, *xs) if xs else h

    out = []
    if isinstance(rigid_head, Const):
        head_args = arg_types(rigid_head.ty)
        body = app(rigid_head, *[fresh_applied(g) for g in head_args])
        out.append(canon(wrap_binders(ats, body)))
    for i, aty in enumerate(ats):
        if result_type(aty) is not res:
            continue
        proj_args = arg_types(aty)
        body = app(xs[i], *[fresh_applied(g) for g in proj_args])
        out.append(canon(wrap_binders(ats, body)))
    return out


def pre_unify(pairs: list, sig, depth: int = DEFAULT_DEPTH,
              limit: int = DEFAULT_LIMIT,
              deadline: Optional[float] = None) -> UnifOutcome:
    """Pre-unify a list of closed term pairs.

    Returns up to `limit` unifiers, each with its flex-flex residuals.
    Once `time.monotonic()` passes `deadline`, the search stops
    branching.  `exhausted` is set when a branch was cut off by the depth
    budget or the deadline, so an empty result list is only a definitive
    failure when it is False.
    """
    pairs = [(canon(a), canon(b)) for a, b in pairs]
    outcome = UnifOutcome([], False)
    _search(pairs, Subst(), 0, sig, depth, limit, deadline, outcome)
    for u in outcome.unifiers:
        _verify(pairs, u)
    return outcome


def _search(pairs: list, subst: Subst, d: int, sig, depth: int, limit: int,
            deadline: Optional[float], outcome: UnifOutcome) -> None:
    """The depth-first search of `pre_unify` below a node at depth d:
    appends the unifiers found to outcome until it holds `limit`
    unifiers."""
    if len(outcome.unifiers) >= limit:
        return
    try:
        subst, flex_rigid, flex_flex = simplify_pairs(pairs, subst)
    except _Clash:
        return
    if not flex_rigid:
        outcome.unifiers.append(Unifier(subst, tuple(flex_flex)))
        return
    if d >= depth or (deadline is not None
                      and time.monotonic() > deadline):
        outcome.exhausted = True
        return
    pending = flex_rigid + flex_flex
    s, t = flex_rigid[0]
    fv = head_of(s)
    rigid = head_of(t)
    head = rigid if isinstance(rigid, Const) else None
    for b in general_bindings(fv.ty, head, sig):
        if len(outcome.unifiers) >= limit:
            break
        _search(pending, subst.bind(fv, b), d + 1, sig, depth, limit,
                deadline, outcome)


def _verify(pairs, u: Unifier):
    for a, b in pairs:
        try:
            _, fr, _ = simplify_pairs([(a, b)], u.subst)
        except _Clash:
            raise AssertionError("unifier fails to unify its problem")
        if fr:
            raise AssertionError("unifier leaves a flex-rigid pair")


# ---------------------------------------------------------------------------
# Pattern unification (Miller fragment)
# ---------------------------------------------------------------------------

FAIL = "fail"
NOT_PATTERN = "not_pattern"


def occurs_rigidly(v: Free, t: Term) -> bool:
    """True if v occurs in t outside the arguments of any flexible head."""
    h, args = spine(strip_binders(t)[1])
    if h is v:
        return True
    if isinstance(h, Free):
        return False
    return any(v in a.fvs and occurs_rigidly(v, a) for a in args)


def pattern_unify(pairs: list):
    """Unify pattern pairs; returns a Subst, FAIL, or NOT_PATTERN.

    A pair is handled when every flexible head is applied to distinct
    bound variables and the solution can be read off by inversion.
    Anything outside that fragment returns NOT_PATTERN so the caller can
    fall back to full pre-unification.
    """
    subst = Subst()
    work = [(canon(a), canon(b)) for a, b in pairs]
    while work:
        s, t = work.pop()
        s, t = subst.apply(s), subst.apply(t)
        if s is t:
            continue
        binders, sb = strip_binders(s)
        _, tb = strip_binders(t)
        hs, sargs = spine(sb)
        ht, targs = spine(tb)
        if not isinstance(hs, Free) and not isinstance(ht, Free):
            if not _decompose(binders, hs, sargs, ht, targs, work):
                return FAIL
            continue
        if not isinstance(hs, Free):
            t, tb, hs, sargs = s, sb, ht, targs
        # flexible side: hs applied to sargs under binders
        if not distinct_bound_args(sargs):
            return NOT_PATTERN
        if hs in t.fvs:
            # the same flexible head on both sides is a flex-flex pair,
            # which the occurs check does not decide
            if head_of(tb) is hs or not occurs_rigidly(hs, tb):
                return NOT_PATTERN
            return FAIL
        img = invert_pattern(sargs, tb)
        if img is None:
            # t mentions a binder the flexible head cannot see; deciding
            # this needs pruning, so hand the pair to full pre-unification
            return NOT_PATTERN
        subst = subst.bind(hs, img)
    return subst
