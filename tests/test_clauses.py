"""Literals, clauses, alpha-invariant keys, matching and subsumption."""

import random

from ep_prover.terms import (
    I, O, Signature, app, base_type, bound, canon, const, disj, fn, free,
    lam, neg,
)
from ep_prover.clauses import (
    Clause, EMPTY_CLAUSE, Literal, alpha_key, clause_weight, head_of,
    is_empty_clause, is_flex_flex, literal, match_literal, match_terms,
    prop_literal, rename_clause, subsumes,
)


IO = fn(I, res=O)
p = const("p", IO)
q = const("q", IO)
a = const("a", I)
b = const("b", I)
X = free("X", I)
Y = free("Y", I)


def lit(t, pos=True):
    return prop_literal(t, pos)


def test_literal_orientation_is_symmetric():
    l1 = literal(app(p, a), app(q, b), True)
    l2 = literal(app(q, b), app(p, a), True)
    assert l1 == l2


def test_true_kept_on_right():
    l = prop_literal(app(p, a), True)
    assert l.is_shorthand
    assert l.rhs.ty is O


def test_clause_is_sorted_multiset():
    l1, l2 = lit(app(p, a)), lit(app(q, b))
    assert Clause([l1, l2]) == Clause([l2, l1])
    assert Clause([l1, l1]) != Clause([l1])


def test_empty_clause_flex_flex_only():
    F = free("F", IO)
    G = free("G", IO)
    c = Clause([literal(app(F, a), app(G, b), False)])
    assert is_flex_flex(c.literals[0])
    assert is_empty_clause(c)
    assert is_empty_clause(EMPTY_CLAUSE)
    assert not is_empty_clause(Clause([lit(app(p, a))]))


def test_head_of_strips_binders():
    t = canon(lam(I, app(p, bound(0, I))))
    assert head_of(t) is p


def test_clause_weight_positive():
    assert clause_weight(Clause([lit(app(p, a))])) > 0
    assert clause_weight(EMPTY_CLAUSE) == 0


def test_alpha_key_invariant_under_renaming():
    c = Clause([lit(app(p, X)), lit(app(q, X), False)])
    sig = Signature()
    variant, ren = rename_clause(c, sig)
    assert variant != c
    assert alpha_key(variant) == alpha_key(c)


def test_alpha_key_distinguishes_variable_sharing():
    shared = Clause([lit(app(p, X)), lit(app(q, X))])
    split = Clause([lit(app(p, X)), lit(app(q, Y))])
    assert alpha_key(shared) != alpha_key(split)


def test_alpha_key_distinguishes_polarity():
    assert alpha_key(Clause([lit(app(p, a))])) \
        != alpha_key(Clause([lit(app(p, a), False)]))


def test_ground_clauses_key_on_their_content():
    # built separately, in different literal orders
    c1 = Clause([lit(app(p, a)), literal(a, b, False)])
    c2 = Clause([literal(b, a, False), lit(app(p, a))])
    assert c1 is not c2
    assert alpha_key(c1) == alpha_key(c2) == c1._key


def test_ground_key_differs_from_non_ground_key_of_same_shape():
    for ground, open_ in (
            (Clause([lit(app(p, a))]), Clause([lit(app(p, X))])),
            (Clause([lit(app(p, a)), lit(app(q, b), False)]),
             Clause([lit(app(p, X)), lit(app(q, Y), False)])),
            (Clause([literal(a, b, True)]), Clause([literal(X, b, True)]))):
        assert alpha_key(ground) != alpha_key(open_)


J = base_type("j")
_SORTED_VARS = {I: [free(f"X{k}", I) for k in range(3)],
                J: [free(f"U{k}", J) for k in range(3)]}
_SORTED_FUNS = {I: [const("f", fn(I, res=I)), const("k", fn(J, res=I))],
                J: [const("g", fn(J, res=J))]}
_SORTED_CONSTS = {I: [a], J: [const("c", J)]}


def _sorted_term(rng, sort, depth):
    if depth == 0 or rng.random() < 0.5:
        pool = _SORTED_VARS[sort] if rng.random() < 0.7 \
            else _SORTED_CONSTS[sort]
        return rng.choice(pool)
    h = rng.choice(_SORTED_FUNS[sort])
    return app(h, _sorted_term(rng, h.ty.arg, depth - 1))


def _sorted_clause(rng):
    lits = []
    for _ in range(rng.randint(1, 2)):
        sort = rng.choice((I, J))
        lits.append(literal(_sorted_term(rng, sort, 2),
                            _sorted_term(rng, sort, 2), rng.random() < 0.5))
    return Clause(lits)


def test_equal_alpha_keys_are_variants_across_sorts():
    rng = random.Random(11)
    by_key = {}
    for _ in range(600):
        c = _sorted_clause(rng)
        by_key.setdefault(alpha_key(c), []).append(c)
    shared = [cs for cs in by_key.values() if len(cs) > 1]
    assert shared
    sig = Signature()
    for cs in shared:
        for d in cs[1:]:
            d, _ = rename_clause(d, sig)
            assert len(d) == len(cs[0])
            assert subsumes(cs[0], d) and subsumes(d, cs[0])


def test_match_terms_first_order():
    m = match_terms(canon(app(p, X)), canon(app(p, a)), {})
    assert m == {X: a}
    assert match_terms(canon(app(p, X)), canon(app(q, a)), {}) is None


def test_match_terms_consistency():
    pat = canon(disj(app(p, X), app(q, X)))
    assert match_terms(pat, canon(disj(app(p, a), app(q, a))), {}) \
        is not None
    assert match_terms(pat, canon(disj(app(p, a), app(q, b))), {}) is None


def test_match_terms_pattern_abstraction():
    F = free("F", IO)
    pat = canon(lam(I, app(F, bound(0, I))))
    tgt = canon(lam(I, app(p, bound(0, I))))
    m = match_terms(pat, tgt, {})
    assert m is not None
    assert m[F] is canon(p)


def test_match_terms_respects_bindable_set():
    # a variable outside the bindable set is a rigid head
    m = match_terms(canon(X), canon(Y), {}, bindable=frozenset())
    assert m is None
    assert match_terms(canon(X), canon(X), {}, bindable=frozenset()) == {}


def test_match_terms_resolves_bound_heads():
    # once X is bound, further occurrences must agree after substitution
    m = match_terms(canon(app(p, X)), canon(app(p, a)), {})
    assert match_terms(canon(X), canon(a), m) == m
    assert match_terms(canon(X), canon(b), m) is None


def test_match_literal_tries_both_orientations():
    pl = literal(X, a, True)
    tl = literal(b, a, True)
    assert any(m[X] is b for m in match_literal(pl, tl, {}))


def test_subsumes_basics():
    unit = Clause([lit(app(p, X))])
    inst = Clause([lit(app(p, a)), lit(app(q, b))])
    assert subsumes(unit, inst)
    assert not subsumes(inst, unit)
    assert subsumes(unit, unit)


def test_subsumes_alpha_variant():
    c = Clause([lit(app(p, X)), lit(app(q, X), False)])
    variant, _ = rename_clause(c, Signature())
    assert subsumes(c, variant) and subsumes(variant, c)


def test_subsumes_does_not_bind_target_variables():
    # {p X} does not subsume {p a | p Y} by instantiating Y
    c = Clause([lit(app(p, X)), lit(app(q, X))])
    d = Clause([lit(app(p, a)), lit(app(q, Y))])
    assert not subsumes(c, d)


def test_subsumes_needs_consistent_binding():
    c = Clause([lit(app(p, X)), lit(app(q, X))])
    d = Clause([lit(app(p, a)), lit(app(q, b))])
    assert not subsumes(c, d)
