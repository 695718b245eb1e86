"""Pattern unification and Huet-style pre-unification."""

import random
import time

from ep_prover.terms import (
    I, O, Signature, Subst, app, bound, canon, const, fn, free, head_of, lam,
)
from ep_prover.unification import (
    FAIL, NOT_PATTERN, _Clash, general_bindings, is_eta_var, pattern_unify,
    pre_unify, simplify_pairs,
)


IO = fn(I, res=O)
II = fn(I, res=I)
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


def test_pattern_unify_hands_a_shared_flexible_head_to_pre_unification():
    """Both sides headed by the same variable: the pair is unifiable, by
    a constant image, so it is a flex-flex pair outside the fragment and
    not an occurs-check failure."""
    F, G, H = fv("F", III), fv("G", II), fv("H")
    x, y = bound(1, I), bound(0, I)
    swapped = (canon(lam(I, lam(I, app(F, x, y)))),
               canon(lam(I, lam(I, app(F, y, x)))))
    under_f = (canon(lam(I, app(G, y))), canon(lam(I, app(G, app(f, y)))))
    for pair, image in ((swapped, lam(I, lam(I, H))), (under_f, lam(I, H))):
        assert unify_ok([pair], Subst().bind(head_of(pair[0]), canon(image)))
        assert pattern_unify([pair]) is NOT_PATTERN
        out = pre_unify([pair], Signature())
        assert [u.residuals for u in out.unifiers] == [(pair,)]
    # a rigid context around the other side still fails the occurs check
    assert pattern_unify([(canon(lam(I, app(G, y))),
                           canon(lam(I, app(f, app(G, y)))))]) is FAIL


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


def test_pre_unify_reports_a_cut_branch_beside_a_solved_one():
    """K a = b, F (f (f a)) = f (f a) at depth 2: the imitation for F
    leaves G (f (f a)) = f a, cut one level further down; then the
    projection leaves K a = b, solved without a cut.  The outcome keeps
    both: exhausted, with one unifier."""
    F, K = fv("F", II), fv("K", II)
    ffa = canon(app(f, app(f, a)))
    pairs = [(canon(app(K, a)), b), (canon(app(F, ffa)), ffa)]
    out = pre_unify(pairs, Signature(), depth=2)
    assert out.exhausted and len(out.unifiers) == 1
    assert unify_ok(pairs, out.unifiers[0].subst)


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
