"""Core term representation: interning, normalization, substitution."""

import random
import sys
from functools import cache

import pytest
from hypothesis import given, strategies as st

import ep_prover.terms as terms
from ep_prover.clauses import Literal
from ep_prover.saturation import ProverConfig, saturate
from ep_prover.terms import (
    Abs, App, Bound, Const, Free, FunType, I, O, Signature, Subst, TermError,
    app, base_type, bound, canon, conj, const, disj,
    fn, forall, free, fun_type, implies, lam, neg, replace_at, shift, spine,
    subterm_positions, substitute, type_str,
    union_fvs,
)
from ep_prover.tptp import parse_problem


IO = fn(I, res=O)


def test_type_interning():
    assert fun_type(I, O) is fun_type(I, O)
    assert base_type("$i") is I
    assert fn(I, I, res=O) is fun_type(I, fun_type(I, O))


def test_type_str_parenthesizes_argument_arrows():
    assert type_str(fn(I, res=O)) == "$i > $o"
    assert type_str(fn(fn(I, res=O), res=I)) == "( $i > $o ) > $i"
    assert type_str(fn(I, I, res=O)) == "$i > $i > $o"


def test_term_interning():
    assert const("c", I) is const("c", I)
    assert free("X", I) is free("X", I)
    assert bound(0, I) is bound(0, I)
    assert const("c", I) is not const("c", O)


def test_app_flattens_spine():
    f = const("f", fn(I, I, res=I))
    x = const("x", I)
    t = app(app(f, x), x)
    h, args = spine(t)
    assert h is f and args == (x, x)


def test_app_type_checks():
    f = const("f", fn(I, res=I))
    with pytest.raises(TermError):
        app(f, const("p", O))


def test_beta_normalization():
    x = const("x", I)
    ident = lam(I, bound(0, I))
    assert canon(app(ident, x)) is x


def test_canon_is_eta_long():
    f = const("f", fn(I, res=I))
    cf = canon(f)
    assert isinstance(cf, Abs)
    assert cf is canon(lam(I, app(f, bound(0, I))))


def test_canon_idempotent_on_formula():
    p = const("p", IO)
    x = free("X", I)
    t = canon(forall(I, disj(app(p, bound(0, I)), neg(app(p, x)))))
    assert canon(t) is t


def test_substitute_avoids_capture():
    p = const("p", IO)
    x = free("X", I)
    # ! [Y]: p X  with X := (bound var would be captured if naive)
    body = lam(I, app(p, x))
    y = const("c", I)
    out = substitute(body, {x: y})
    assert out is canon(lam(I, app(p, y)))


def test_shift_on_closed_term_is_identity():
    t = canon(conj(const("p", O), const("q", O)))
    assert shift(t, 3) is t


def test_positions_round_trip():
    def at(t, pos):     # App: 0 the head, k the k-th argument; Abs: 0 the body
        for step in pos:
            t = t.body if isinstance(t, Abs) else (t.head, *t.args)[step]
        return t

    f = const("f", fn(I, I, res=I))
    a, b = const("a", I), const("b", I)
    t = app(f, a, b)
    for pos, sub in subterm_positions(t):
        assert at(t, pos) is sub
        assert replace_at(t, pos, sub) is t
    assert at(t, (1,)) is a
    assert replace_at(t, (2,), a) is app(f, a, a)


def test_subst_bind_composes():
    x, y = free("X", I), free("Y", I)
    c = const("c", I)
    s = Subst().bind(x, y).bind(y, c)
    assert s.apply(x) is c
    assert s.apply(y) is c


def test_subst_bind_rejects_bad_images_on_an_empty_subst():
    x = free("X", I)
    with pytest.raises(TermError):
        Subst().bind(x, const("p", O))
    with pytest.raises(TermError):
        Subst().bind(x, bound(0, I))


def test_subst_bind_refuses_a_cycle():
    x, y = free("X", I), free("Y", I)
    f = const("f", fn(I, res=I))
    g = const("g", fn(I, res=I))
    s = Subst().bind(x, app(f, y))
    with pytest.raises(TermError):
        s.bind(y, app(g, x))


def test_subst_rebinding_is_a_no_op():
    x = free("X", I)
    s = Subst().bind(x, const("c", I))
    assert s.bind(x, const("d", I)) is s


def test_subst_apply_is_memoized(monkeypatch):
    x, y = free("X", I), free("Y", I)
    f = const("f", fn(I, res=I))
    s = Subst().bind(x, app(f, y)).bind(y, const("c", I))
    t = app(f, x)
    first = s.apply(t)
    calls = []
    monkeypatch.setattr(terms, "substitute",
                        lambda *a: calls.append(a) or terms.canon(a[0]))
    assert s.apply(t) is first
    assert not calls


def test_subst_apply_resolves_a_long_binding_chain():
    f = const("f", fn(I, res=I))
    xs = [free(f"X{k}", I) for k in range(601)]
    s = Subst()
    for k in range(600):
        s = s.bind(xs[k], app(f, xs[k + 1]))
    want = xs[600]
    for _ in range(600):
        want = app(f, want)
    assert s.apply(xs[0]) is want


_SF = const("f", fn(I, res=I))
_SG = const("g", fn(I, I, res=I))
_SVARS = [free(f"U{i}", I) for i in range(5)]
_SFLEX = [free(f"F{i}", fn(I, res=I)) for i in range(2)]
_SLEAVES = [const("a", I), const("b", I)] + _SVARS


def _random_term(rng, depth, leaves):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(leaves)
    if roll < 0.5:
        return app(_SF, _random_term(rng, depth - 1, leaves))
    if roll < 0.7:
        return app(rng.choice(_SFLEX), _random_term(rng, depth - 1, leaves))
    return app(_SG, _random_term(rng, depth - 1, leaves),
               _random_term(rng, depth - 1, leaves))


def _random_image(rng, v):
    if v.ty is I:
        return canon(_random_term(rng, 3, _SLEAVES))
    return canon(lam(I, _random_term(rng, 2, _SLEAVES + [bound(0, I)])))


def _eager_bind(mapping, v, r):
    """Idempotent composition: resolve r, then apply {r/v} to every
    earlier image; None when v occurs in the resolved image."""
    r = substitute(r, mapping)
    if v in r.fvs:
        return None
    out = {w: substitute(img, {v: r}) for w, img in mapping.items()}
    out[v] = r
    return out


def test_triangular_subst_matches_eager_composition():
    rng = random.Random(7)
    cycles = 0
    for _ in range(200):
        s, eager = Subst(), {}
        for v in rng.sample(_SVARS + _SFLEX, rng.randint(1, 6)):
            r = _random_image(rng, v)
            composed = _eager_bind(eager, v, r)
            if composed is None:
                cycles += 1
                with pytest.raises(TermError):
                    s.bind(v, r)
                continue
            s, eager = s.bind(v, r), composed
            assert s.items() == list(eager.items())
            for _ in range(3):
                t = canon(_random_term(rng, 4, _SLEAVES))
                assert s.apply(t) is substitute(t, eager)
        among = frozenset(rng.sample(_SVARS + _SFLEX, 3))
        assert s.items(among) == [(v, r) for v, r in eager.items()
                                  if v in among]
    assert cycles


# -- substitution into canonical form ---------------------------------------
#
# Signature: f : i>i, g : i>i>i, h : (i>i)>i; free variables X, Y : i,
# F : i>i, G : i>i>i and the second-order H : (i>i)>i.

_II = fn(I, res=I)
_OF, _OG, _OH = const("f", _II), const("g", fn(I, I, res=I)), \
    const("h", fn(_II, res=I))
_OX, _OY = free("X", I), free("Y", I)
_OFV, _OGV, _OHV = free("F", _II), free("G", fn(I, I, res=I)), \
    free("H", fn(_II, res=I))
_OVARS = [_OX, _OY, _OFV, _OGV, _OHV]


def _oracle_term(rng, depth, ctx):
    """A random term of type i; ctx lists the types of the binders in
    scope, innermost last.  Function arguments are often left
    eta-short, and redexes are built on purpose."""
    bvars = [bound(len(ctx) - 1 - k, ty) for k, ty in enumerate(ctx)]
    if depth == 0 or rng.random() < 0.2:
        leaves = [const("a", I), const("b", I), _OX, _OY] \
            + [v for v in bvars if v.ty is I]
        return rng.choice(leaves)
    roll = rng.randrange(8)

    def sub():
        return _oracle_term(rng, depth - 1, ctx)

    if roll == 0:
        return app(_OF, sub())
    if roll == 1:
        return app(rng.choice((_OG, _OGV)), sub(), sub())
    if roll == 2:
        return app(_OFV, sub())
    if roll == 3:
        return app(rng.choice((_OH, _OHV)), _oracle_fun(rng, depth - 1, ctx))
    if roll == 4:
        return app(lam(I, _oracle_term(rng, depth - 1, ctx + [I])), sub())
    funs = [v for v in bvars if v.ty is _II]
    if roll == 5 and funs:
        return app(rng.choice(funs), sub())
    return sub()


def _oracle_fun(rng, depth, ctx):
    """A random term of type i>i."""
    roll = rng.random()
    if roll < 0.2:
        return rng.choice([_OF, _OFV] + [bound(len(ctx) - 1 - k, ty)
                                         for k, ty in enumerate(ctx)
                                         if ty is _II])
    return lam(I, _oracle_term(rng, depth, ctx + [I]))


def _oracle_image(rng, v):
    if v.ty is I:
        return _oracle_term(rng, 2, [])
    if v is _OFV:
        if rng.random() < 0.3:
            return lam(I, bound(0, I))
        return _oracle_fun(rng, 2, [])
    if v is _OGV:
        body = bound(rng.randrange(2), I) if rng.random() < 0.3 \
            else _oracle_term(rng, 2, [I, I])
        return lam(I, lam(I, body))
    # an image for H that applies its argument, often twice
    phi = bound(0, _II)
    body = rng.choice([
        app(phi, app(phi, const("a", I))),
        app(_OG, app(phi, _OX), app(phi, app(phi, const("b", I)))),
        app(phi, _oracle_term(rng, 2, [_II])),
        _oracle_term(rng, 2, [_II])])
    return lam(_II, body)


def _is_projection(t):
    binders, body = terms.strip_binders(t)
    return isinstance(body, Bound) and body.index < len(binders)


def substitute_raw(t, mapping: dict, depth: int = 0):
    """Apply a {Free -> Term} mapping without normalizing: the reference
    for `substitute`, and for closures whose images are bound indices
    (which need not be closed) and must keep the shape of t."""
    if not t.fvs or not any(v in mapping for v in t.fvs):
        return t
    if isinstance(t, Free):
        r = mapping.get(t)
        return shift(r, depth) if r is not None else t
    if isinstance(t, Abs):
        return lam(t.var_ty, substitute_raw(t.body, mapping, depth + 1))
    if isinstance(t, App):
        return app(substitute_raw(t.head, mapping, depth),
                   *[substitute_raw(a, mapping, depth) for a in t.args])
    return t


def test_substitute_matches_normalizing_the_raw_instance():
    rng = random.Random(5)
    seen = {"projection": 0, "second_order": 0, "under_binder": 0,
            "several": 0}
    for _ in range(600):
        t = _oracle_term(rng, 4, [])
        if rng.random() < 0.5:
            t = canon(t)
        dom = rng.sample(_OVARS, rng.randint(1, 4))
        mapping = {v: _oracle_image(rng, v) for v in dom}
        out = substitute(t, mapping)
        assert out is canon(substitute_raw(t, mapping))
        size = len(terms._term_table)
        assert canon(out) is out
        assert len(terms._term_table) == size
        hits = [v for v in dom if v in t.fvs]
        seen["projection"] += any(_is_projection(canon(mapping[v]))
                                  for v in hits)
        seen["second_order"] += _OHV in hits
        seen["under_binder"] += any(v in s.fvs for _, s in
                                    subterm_positions(canon(t))
                                    if isinstance(s, Abs) for v in hits)
        seen["several"] += len(hits) > 1
    assert min(seen.values()) >= 20, seen


def test_beta_normalize_nested_redexes():
    a, b = const("a", I), const("b", I)
    f, g = _OF, const("g", fn(I, I, res=I))
    x, y = bound(0, I), bound(1, I)
    phi = bound(0, _II)
    twice = lam(_II, lam(I, app(bound(1, _II), app(bound(1, _II), x))))
    # (\F. \x. F (F x)) (\y. g y y) a
    assert canon(app(twice, lam(I, app(g, x, x)), a)) \
        is app(g, app(g, a, a), app(g, a, a))
    # a redex in the argument of a redex whose bound variable is a head
    inner = app(lam(I, app(f, x)), b)
    assert canon(app(lam(_II, app(phi, app(phi, a))),
                     lam(I, app(g, x, inner)))) \
        is app(g, app(g, a, app(f, b)), app(f, b))
    # over-application and a partial application left as an abstraction
    assert canon(app(lam(I, lam(I, app(g, y, x))), a, b)) \
        is app(g, a, b)
    assert canon(app(lam(I, lam(I, app(g, y, x))), a)) \
        is lam(I, app(g, a, x))
    assert canon(app(lam(_II, phi), f, a)) is app(f, a)
    # a substituted abstraction that reaches a binder outside the redex
    assert canon(lam(I, app(lam(_II, app(phi, a)),
                            lam(I, app(g, x, y))))) \
        is lam(I, app(g, a, x))


# -- canonical forms against a reference normalizer --------------------------
#
# The reference works in two passes and shares nothing with `canon` but
# the constructors: plain beta contraction to normal form, then eta
# expansion of every node of function type that is not an abstraction.
# Both passes are memoized per interned term.

def _ref_shift(t, d, cutoff=0):
    if isinstance(t, Bound):
        return bound(t.index + d, t.ty) if t.index >= cutoff else t
    if isinstance(t, Abs):
        return lam(t.var_ty, _ref_shift(t.body, d, cutoff + 1))
    if isinstance(t, App):
        return app(_ref_shift(t.head, d, cutoff),
                   *[_ref_shift(a, d, cutoff) for a in t.args])
    return t


def _ref_inst(t, j, s):
    """t with Bound j replaced by s, lifted over the j binders above it,
    and the bound variables beyond j lowered by one."""
    if isinstance(t, Bound):
        if t.index == j:
            return _ref_shift(s, j)
        return bound(t.index - 1, t.ty) if t.index > j else t
    if isinstance(t, Abs):
        return lam(t.var_ty, _ref_inst(t.body, j + 1, s))
    if isinstance(t, App):
        return app(_ref_inst(t.head, j, s),
                   *[_ref_inst(a, j, s) for a in t.args])
    return t


@cache
def _ref_beta(t):
    if isinstance(t, Abs):
        return lam(t.var_ty, _ref_beta(t.body))
    if isinstance(t, App):
        if isinstance(t.head, Abs):
            return _ref_beta(app(_ref_inst(t.head.body, 0, t.args[0]),
                                 *t.args[1:]))
        return app(t.head, *[_ref_beta(a) for a in t.args])
    return t


@cache
def _ref_eta(t):
    """Eta-long form of the beta-normal t."""
    if isinstance(t, Abs):
        return lam(t.var_ty, _ref_eta(t.body))
    head, args = spine(t)
    core = app(head, *[_ref_eta(a) for a in args])
    tys = []
    ty = t.ty
    while isinstance(ty, FunType):
        tys.append(ty.arg)
        ty = ty.res
    if not tys:
        return core
    n = len(tys)
    body = app(_ref_shift(core, n),
               *[_ref_eta(bound(n - 1 - k, tys[k])) for k in range(n)])
    for ty in reversed(tys):
        body = lam(ty, body)
    return body


def _reference(t):
    return _ref_eta(_ref_beta(t))


_III = fn(I, I, res=I)
_IIi = fn(_II, res=I)
_NATOMS = [const("a", I), const("b", I), _OF, const("g", _III),
           const("h", _IIi), _OX, _OFV, free("G", _III), free("H", _IIi)]


def _typed_term(rng, ty, ctx, depth):
    """A random term of type ty over _NATOMS and the binders in ctx
    (innermost last), neither beta-normal nor eta-long in general."""
    atoms = _NATOMS + [bound(len(ctx) - 1 - k, s) for k, s in enumerate(ctx)]
    options = ["atom"] if any(x.ty is ty for x in atoms) else []
    if depth > 0:
        options += ["spine", "apply", "redex"]
    if isinstance(ty, FunType):
        options.append("lam")
    kind = rng.choice(options)
    if kind == "atom":
        return rng.choice([x for x in atoms if x.ty is ty])
    if kind == "lam":
        return lam(ty.arg, _typed_term(rng, ty.res, ctx + [ty.arg],
                                       max(depth - 1, 0)))
    if kind == "redex":
        # (\x:s. body) arg, body and arg random themselves
        s = rng.choice((I, _II))
        return app(lam(s, _typed_term(rng, ty, ctx + [s], depth - 1)),
                   _typed_term(rng, s, ctx, depth - 1))
    if kind == "apply":
        # any function term of type s>ty, applied to one argument
        s = rng.choice((I, _II))
        return app(_typed_term(rng, fn(s, res=ty), ctx, depth - 1),
                   _typed_term(rng, s, ctx, depth - 1))
    # an atom applied to as many arguments as give ty: partial
    # applications when ty is a function type
    heads = []
    for x in atoms:
        k, t = 0, x.ty
        while isinstance(t, FunType):
            t, k = t.res, k + 1
            if t is ty:
                heads.append((x, k))
    if not heads:
        return _typed_term(rng, ty, ctx, 0)
    x, k = rng.choice(heads)
    args, t = [], x.ty
    for _ in range(k):
        args.append(_typed_term(rng, t.arg, ctx, depth - 1))
        t = t.res
    return app(x, *args)


def _shapes(t, under_binder=False, in_redex=False):
    """The features of t the differential test must cover."""
    out = set()
    if isinstance(t, Abs):
        return _shapes(t.body, True, in_redex)
    if isinstance(t, (Free, Bound)) and isinstance(t.ty, FunType):
        out.add("function_free" if isinstance(t, Free) else "function_bound")
    if isinstance(t, App):
        redex = isinstance(t.head, Abs)
        if redex and in_redex:
            out.add("nested_redex")
        if redex and under_binder:
            out.add("redex_under_binder")
        if isinstance(t.ty, FunType):
            out.add("partial_application")
        for s in (t.head,) + t.args:
            out |= _shapes(s, under_binder, in_redex or redex)
    return out


def test_canon_matches_a_two_pass_reference():
    rng = random.Random(17)
    seen = dict.fromkeys(("nested_redex", "redex_under_binder",
                          "partial_application", "function_free",
                          "function_bound"), 0)
    types = (I, _II, _III, _IIi)
    for _ in range(600):
        t = _typed_term(rng, rng.choice(types), [], 4)
        c = canon(t)
        assert c is _reference(t), t
        assert c._canon is c and canon(c) is c
        for shape in _shapes(t):
            seen[shape] += 1
    assert min(seen.values()) >= 50, seen


def test_every_term_flagged_canonical_is_a_reference_normal_form():
    with open("problems/sur_cantor.p") as fh:
        prob = parse_problem(fh.read(), "sur_cantor.p")
    assert saturate(prob, ProverConfig(time_limit=60)).status == "Theorem"
    # by tid, so each term's subterms are already in the reference's memo
    checked = 0
    for t in sorted(terms._term_table.values(), key=lambda t: t.tid):
        if t._canon is t:
            assert _reference(t) is t, t
            checked += 1
    assert checked > 10000


def _eager_skey(t, spelled: dict) -> str:
    """The `skey` of t as it was spelled when every node built its key on
    interning, from the spellings of its subterms in spelled (by tid)."""
    if isinstance(t, Const):
        return f"c{t.name}\x00{t.ty.uid}\x01"
    if isinstance(t, Free):
        return f"v{t.name}\x00{t.ty.uid}\x01"
    if isinstance(t, Bound):
        return f"b{t.index}\x01"
    if isinstance(t, Abs):
        return f"l{t.var_ty.uid}\x00" + spelled[t.body.tid]
    return "a(" + spelled[t.head.tid] \
        + "".join(spelled[a.tid] for a in t.args) + ")"


def _children_fvs(t) -> set:
    if isinstance(t, Free):
        return {t}
    if isinstance(t, Abs):
        return set(t.body.fvs)
    if isinstance(t, App):
        return set(t.head.fvs).union(*(a.fvs for a in t.args))
    return set()


def test_every_interned_term_has_its_eager_skey_and_its_free_variables():
    with open("problems/sur_cantor.p") as fh:
        prob = parse_problem(fh.read(), "sur_cantor.p")
    assert saturate(prob, ProverConfig(time_limit=60)).status == "Theorem"
    table = sorted(terms._term_table.values(), key=lambda t: t.tid)
    # by tid, so each term's subterms are spelled already
    spelled = {}
    for t in table:
        spelled[t.tid] = _eager_skey(t, spelled)
    assert sum(t._skey is None for t in table) > 10000
    # newest first, so most reads fill a whole unread subterm
    for t in reversed(table):
        assert t.skey == spelled[t.tid], t
        assert t.fvs == _children_fvs(t), t


def test_skey_is_filled_on_first_read_of_every_subterm():
    f = const("lazy_f", fn(I, I, res=I))
    a = const("lazy_a", I)
    x = free("LazyX", I)
    t = app(f, a, x)
    body = app(f, bound(0, I), a)
    abst = lam(I, body)
    inner = app(f, a, a)
    inst = substitute(t, {x: inner})
    for u in (t, body, abst, inner, inst):
        assert u._skey is None, u
    assert inst.skey == "a(" + f.skey + a.skey + inner.skey + ")"
    assert inner._skey is not None and t._skey is None
    assert abst.skey == f"l{I.uid}\x00" + body.skey
    for atom in (f, a, x, bound(0, I)):
        assert atom._skey is not None


def test_an_application_shares_an_argument_set_that_covers_the_union():
    f = const("share_f", fn(I, I, res=I))
    g = const("share_g", fn(I, res=I))
    x, y = free("ShareX", I), free("ShareY", I)
    gx = app(g, x)
    assert gx.fvs is x.fvs
    assert terms._app(I, f, [x, gx]).fvs is gx.fvs
    fxy = app(f, x, y)
    assert fxy.fvs == {x, y}
    assert app(f, fxy, x).fvs is fxy.fvs
    assert app(f, gx, fxy).fvs is fxy.fvs
    a, b = frozenset({x}), frozenset({y})
    assert union_fvs(a, frozenset()) is a and union_fvs(frozenset(), b) is b
    assert union_fvs(a, b) == {x, y}


def test_skey_of_a_chain_deeper_than_the_recursion_limit():
    depth = 2000
    assert depth > sys.getrecursionlimit()
    f = const("d", fn(I, res=I))
    a = const("e", I)
    t = a
    for _ in range(depth):
        t = terms._app(I, f, [t])
    assert t.skey == ("a(" + f.skey) * depth + a.skey + ")" * depth
    lit = Literal(t, a, True)
    assert (lit.lhs, lit.rhs) == (t, a)
    assert Literal(a, t, False).lhs is t


def test_signature_fresh_names():
    sig = Signature()
    sig.declare("c", I)
    assert sig.is_declared("c")
    s1 = sig.fresh_skolem(I)
    s2 = sig.fresh_skolem(I)
    assert s1.name != s2.name
    assert sig.is_declared(s1.name)
    v1, v2 = sig.fresh_free(I), sig.fresh_free(I)
    assert v1 is not v2


def test_fresh_skolem_skips_declared_names():
    sig = Signature()
    sig.declare("sk1", I)
    assert sig.fresh_skolem(I).name != "sk1"


# -- property tests ---------------------------------------------------------

_atoms = [const(f"a{i}", O) for i in range(3)] + [free("P", O)]


@st.composite
def formulas(draw, depth=4):
    if depth == 0:
        return draw(st.sampled_from(_atoms))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.sampled_from(_atoms))
    if kind == 1:
        return neg(draw(formulas(depth=depth - 1)))
    a = draw(formulas(depth=depth - 1))
    b = draw(formulas(depth=depth - 1))
    return (disj, conj, implies)[kind - 2](a, b)


@given(formulas())
def test_canon_idempotent(f):
    c = canon(f)
    assert canon(c) is c


@given(formulas())
def test_substitution_commutes_with_canon(f):
    p = free("P", O)
    t = const("a0", O)
    assert substitute(f, {p: t}) is substitute(canon(f), {p: t})
