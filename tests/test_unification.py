"""Pattern unification and Huet-style pre-unification."""

import itertools
import random
import time

from ep_prover import unification
from ep_prover.terms import (
    Const, I, O, Signature, Subst, app, arg_types, bound, canon, const, fn,
    free, head_of, lam, substitute,
)
from ep_prover.unification import (
    FAIL, NOT_PATTERN, _Clash, general_bindings, is_eta_var, pattern_unify,
    pre_unify, simplify_pairs,
)


IO = fn(I, res=O)
III = fn(I, I, res=I)
f = const("f", fn(I, res=I))
g = const("g", III)
a = const("a", I)
b = const("b", I)
p = const("p", IO)


def fv(name, ty=I):
    return free(name, ty)


def unify_ok(pairs, subst):
    for s, t in pairs:
        if subst.apply(s) is not subst.apply(t):
            return False
    return True


def test_is_eta_var():
    F = fv("F", fn(I, res=I))
    assert is_eta_var(canon(F)) is F
    assert is_eta_var(canon(f)) is None


def test_simplify_pairs_decomposes_rigid():
    X = fv("X")
    s, fr, ff = simplify_pairs([(canon(app(f, X)), canon(app(f, a)))],
                               Subst())
    assert not fr and not ff
    assert s.apply(X) is a


def test_simplify_pairs_clash():
    try:
        simplify_pairs([(a, b)], Subst())
        assert False, "expected a clash"
    except _Clash:
        pass


def test_simplify_pairs_defers_flex_flex():
    F, G = fv("F", IO), fv("G", IO)
    _, fr, ff = simplify_pairs([(canon(app(F, a)), canon(app(G, b)))],
                               Subst())
    assert not fr and len(ff) == 1


def test_pattern_unify_solves_patterns():
    F = fv("F", fn(I, res=I))
    pairs = [(canon(lam(I, app(F, bound(0, I)))),
              canon(lam(I, app(f, bound(0, I)))))]
    res = pattern_unify(pairs)
    assert res not in (FAIL, NOT_PATTERN)
    assert unify_ok(pairs, res)


def test_pattern_unify_detects_rigid_occurs():
    X = fv("X")
    res = pattern_unify([(canon(X), canon(app(f, X)))])
    assert res is FAIL


def test_pattern_unify_rejects_non_patterns():
    F = fv("F", fn(I, res=I))
    res = pattern_unify([(canon(app(F, a)), canon(a))])
    assert res is NOT_PATTERN


def test_pre_unify_simple():
    X = fv("X")
    out = pre_unify([(canon(app(f, X)), canon(app(f, a)))], Signature())
    assert out.unifiers
    assert all(unify_ok([(canon(app(f, X)), canon(app(f, a)))], u.subst)
               for u in out.unifiers)


def test_pre_unify_flex_rigid_imitation_and_projection():
    F = fv("F", fn(I, res=I))
    pairs = [(canon(app(F, a)), canon(app(f, a)))]
    out = pre_unify(pairs, Signature())
    images = {u.subst.apply(canon(F)) for u in out.unifiers}
    # imitation \x. f x and projection-led \x. x give two solutions
    assert canon(lam(I, app(f, bound(0, I)))) in images
    assert canon(f) in images or canon(lam(I, app(f, a))) in images


def test_pre_unify_definite_failure():
    out = pre_unify([(canon(a), canon(b))], Signature())
    assert not out.unifiers and not out.exhausted


def test_pre_unify_flex_flex_residuals():
    F, G = fv("F", IO), fv("G", IO)
    pairs = [(canon(app(F, a)), canon(app(G, b)))]
    out = pre_unify(pairs, Signature())
    assert out.unifiers
    assert any(u.residuals for u in out.unifiers)


def test_general_bindings_imitation_head():
    from ep_prover.clauses import head_of
    sig = Signature()
    gbs = general_bindings(fn(I, res=O), p, sig)
    assert gbs
    assert head_of(gbs[0]) is p


def test_pre_unify_respects_depth_budget():
    # an unsolvable cyclic flex-rigid problem must terminate
    F = fv("F", fn(I, res=I))
    pairs = [(canon(app(F, a)), canon(app(f, app(F, a))))]
    out = pre_unify(pairs, Signature(), depth=3)
    assert all(unify_ok(pairs, u.subst) for u in out.unifiers)


def test_pre_unify_stops_at_an_expired_deadline():
    F = fv("F", fn(I, res=I))
    pairs = [(canon(app(F, a)), canon(app(f, b)))]
    assert pre_unify(pairs, Signature()).unifiers
    out = pre_unify(pairs, Signature(), deadline=time.monotonic() - 1)
    assert out.unifiers == []
    assert out.exhausted


def _random_term(rng, depth, vars_):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice([a, b] + vars_)
    if roll < 0.6:
        return app(f, _random_term(rng, depth - 1, vars_))
    return app(g, _random_term(rng, depth - 1, vars_),
               _random_term(rng, depth - 1, vars_))


def test_generated_solvable_sets_all_unifiers_verify():
    """Smaller-scale version of the soundness suite in acceptance."""
    rng = random.Random(42)
    vars_ = [fv("U"), fv("V"), fv("W")]
    ground = [a, b, app(f, a), app(g, a, b)]
    for _ in range(100):
        t = canon(_random_term(rng, 3, vars_))
        sigma = {v: rng.choice(ground) for v in vars_}
        pairs = [(t, canon(Subst(sigma).apply(t)))]
        out = pre_unify(pairs, Signature())
        assert out.unifiers, f"solvable set not solved: {pairs}"
        for u in out.unifiers:
            assert unify_ok(pairs, u.subst)


# ---------------------------------------------------------------------------
# The subtree memo: a run's shared memo answers as a cold search would
# ---------------------------------------------------------------------------

II = fn(I, res=I)


def _count_recalls(monkeypatch):
    """The arguments of every memo answer, in order."""
    calls = []
    recall = unification._recall

    def counted(*args):
        calls.append(args)
        return recall(*args)
    monkeypatch.setattr(unification, "_recall", counted)
    return calls


def _assert_same_solve(out, sig, cold, cold_sig):
    assert [list(u.subst.map.items()) for u in out.unifiers] \
        == [list(u.subst.map.items()) for u in cold.unifiers]
    assert [u.residuals for u in out.unifiers] \
        == [u.residuals for u in cold.unifiers]
    assert (out.exhausted, out.fresh) == (cold.exhausted, cold.fresh)
    assert sig._fv == cold_sig._fv


def test_a_memo_entry_holds_only_its_own_subtrees_cut(monkeypatch):
    """K a = b, F (f (f a)) = f (f a) at depth 2: the imitation for F
    leaves G (f (f a)) = f a, cut one level further down; then the
    projection leaves K a = b, solved without a cut.  Met again as a
    root at depth 1, that node is answered uncut."""
    recalls = _count_recalls(monkeypatch)
    F, K = fv("F", II), fv("K", II)
    ffa = canon(app(f, app(f, a)))
    sig, memo = Signature(), {}
    first = pre_unify([(canon(app(K, a)), b), (canon(app(F, ffa)), ffa)],
                      sig, depth=2, memo=memo)
    assert first.exhausted and len(first.unifiers) == 1
    pairs = [(canon(app(fv("L", II), a)), b)]
    cold_sig = sig.copy()
    cold = pre_unify(pairs, cold_sig, depth=1)
    assert not cold.exhausted and cold.unifiers
    _assert_same_solve(pre_unify(pairs, sig, depth=1, memo=memo), sig,
                       cold, cold_sig)
    assert len(recalls) == 1


def _flex_term(rng, depth, leaves, heads):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(leaves)
    sub = [_flex_term(rng, depth - 1, leaves, heads) for _ in range(2)]
    if roll < 0.55:
        h = rng.choice(heads)
        return app(h, *sub[:len(arg_types(h.ty))])
    if roll < 0.8:
        return app(f, sub[0])
    return app(g, *sub)


def _rename(rng, pairs, pool, new_names):
    """pairs with its variables renamed injectively and simultaneously,
    each to a variable of its type drawn from pool or to a new one."""
    xs = sorted({v for s, t in pairs for v in s.fvs | t.fvs},
                key=lambda v: v.name)
    ren = {}
    for v in xs:
        choices = [w for w in pool
                   if w.ty is v.ty and w not in ren.values()]
        ren[v] = rng.choice(choices) if choices and rng.random() < 0.7 \
            else fv(next(new_names), v.ty)
    return [(substitute(s, ren), substitute(t, ren)) for s, t in pairs]


def _child(rng, pairs, new_names):
    """The pending pairs of a child of the root of pairs' search: its
    first flex-rigid pair's head bound to one of the partial bindings
    tried there, their variables given new names; None for a problem
    whose root does not branch."""
    try:
        _, flex_rigid, flex_flex = simplify_pairs(pairs, Subst())
    except _Clash:
        return None
    if not flex_rigid:
        return None
    s, t = flex_rigid[0]
    rigid = head_of(t)
    minted = []
    b = rng.choice(general_bindings(
        head_of(s).ty, rigid if isinstance(rigid, Const) else None,
        Signature(), minted))
    b = substitute(b, {v: fv(next(new_names), v.ty) for v in minted})
    return [(substitute(x, {head_of(s): b}), substitute(y, {head_of(s): b}))
            for x, y in flex_rigid + flex_flex]


def test_memoized_solves_equal_cold_solves(monkeypatch):
    """A seeded sequence of problems, with renamed copies of earlier ones
    and problems that share subproblems with them, solved with one
    shared memo and each one cold on a copy of the signature."""
    rng = random.Random(17)
    recalls = _count_recalls(monkeypatch)
    heads = [fv("F", II), fv("G", II), fv("H", III)]
    leaves = [a, b, fv("X"), fv("Y")]
    new_names = (f"R{k}" for k in itertools.count())
    sig, memo = Signature(), {}
    seen, minted = [], []
    kinds = {"exhausted": 0, "residuals": 0, "unifiers": 0}
    for _ in range(300):
        # copies come from problems that branched, mostly with the
        # original's budgets
        roll = rng.random()
        pairs, depth, limit = rng.choice(seen) if seen else (None, 4, 4)
        if seen and roll < 0.3:
            pairs = _rename(rng, pairs, heads + leaves + minted, new_names)
        elif seen and roll < 0.45:
            # a subproblem the earlier search met one level down
            pairs, depth = _child(rng, pairs, new_names), depth - 1
        elif seen and roll < 0.6:
            # an earlier problem under a rigid context, or together with
            # a renamed copy of another one
            pairs = [(canon(app(f, s)), canon(app(f, t))) for s, t in pairs]
            if rng.random() < 0.5:
                pairs += _rename(rng, rng.choice(seen)[0], heads + leaves,
                                 new_names)
        else:
            pairs = [(canon(_flex_term(rng, 3, leaves, heads)),
                      canon(_flex_term(rng, 2, leaves, heads)))
                     for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.3:
            depth, limit = rng.choice((2, 4, 6)), rng.choice((1, 2, 4))
        cold_sig = sig.copy()
        cold = pre_unify(pairs, cold_sig, depth=depth, limit=limit)
        out = pre_unify(pairs, sig, depth=depth, limit=limit, memo=memo)
        _assert_same_solve(out, sig, cold, cold_sig)
        if out.fresh:
            seen.append((pairs, depth, limit))
        minted += out.fresh
        kinds["exhausted"] += out.exhausted
        kinds["residuals"] += any(u.residuals for u in out.unifiers)
        kinds["unifiers"] += bool(out.unifiers)
    # answers at roots and below them, with and without unifiers
    assert len(recalls) > 50, len(recalls)
    assert sum(bool(subst) for _, _, subst, _, _ in recalls) > 5
    assert sum(bool(entry[1]) for entry, *_ in recalls) > 30
    assert min(kinds.values()) > 30, kinds
