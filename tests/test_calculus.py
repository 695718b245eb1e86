"""Inference rules: paramodulation, factoring, extensionality, and
clause simplification."""

from ep_prover.terms import (
    Const, FALSE, I, O, Signature, TRUE, app, bound, canon, const, fn, free,
    lam,
)
from ep_prover.clauses import Clause, head_of, literal, prop_literal
from ep_prover.calculus import (
    _orient, bool_ext, eqfac_candidates, exhaustive_instantiate, func_ext,
    finite_domain, inj_rule, match_injectivity, para_candidates, prim_subst,
    simplify,
)


IO = fn(I, res=O)
p = const("p", IO)
f = const("f", fn(I, res=I))
a = const("a", I)
b = const("b", I)


def plit(t, pos=True):
    return prop_literal(canon(t), pos)


def test_para_rewrites_and_emits_constraint():
    c = Clause([plit(app(p, a))])
    eq = Clause([literal(a, b, True)])
    out = list(para_candidates(c, eq))
    assert out
    rewritten = [x for x in out
                 if any(l.lhs is canon(app(p, b)) for l in x)]
    assert rewritten
    # the conclusion carries a negative unification constraint
    assert any(not l.pos and not l.is_shorthand
               for l in rewritten[0])


def test_para_skips_truth_constant_sides():
    c = Clause([plit(app(p, a))])
    taut = Clause([literal(TRUE, TRUE, True)])
    assert all(TRUE not in (l.lhs, l.rhs)
               for x in para_candidates(c, taut)
               for l in x if l.pos and not l.is_shorthand)


def test_eqfac_merges_same_polarity_literals():
    X, Y = free("X", I), free("Y", I)
    c = Clause([plit(app(p, X)), plit(app(p, Y))])
    out = list(eqfac_candidates(c))
    assert out
    assert all(len(x) >= 1 for x in out)


def test_bool_ext_positive_split():
    q, r = const("q", O), const("r", O)
    c = Clause([literal(q, r, True)])
    c1, c2 = bool_ext(c, 0)
    # together the halves say q <=> r
    pols = sorted(tuple(sorted(l.pos for l in half)) for half in (c1, c2))
    assert pols == [(False, True), (False, True)]


def test_bool_ext_negative_split():
    q, r = const("q", O), const("r", O)
    c = Clause([literal(q, r, False)])
    c1, c2 = bool_ext(c, 0)
    pols = sorted(tuple(sorted(l.pos for l in half)) for half in (c1, c2))
    assert pols == [(False, False), (True, True)]


def test_func_ext_applies_fresh_argument():
    g = const("g", fn(I, res=I))
    c = Clause([literal(f, g, False)])
    sig = Signature()
    out = func_ext(c, 0, sig)
    (l,) = out.literals
    assert l.lhs.ty is I and not l.pos


def test_func_ext_positive_uses_fresh_variable():
    g = const("g", fn(I, res=I))
    c = Clause([literal(f, g, True)])
    out = func_ext(c, 0, Signature())
    (l,) = out.literals
    assert l.lhs.ty is I
    assert l.free_vars()


def test_prim_subst_offers_logical_heads():
    F = free("F", O)
    c = Clause([prop_literal(F, True)])
    out = prim_subst(c, 0, Signature(), (I,))
    # the head each constraint literal offers for F
    heads = {head_of(t).name for x in out for l in x if l not in c.literals
             for t in (l.lhs, l.rhs) if isinstance(head_of(t), Const)}
    assert {"~", "|", "!!", "="} <= heads
    for constrained in out:
        assert len(constrained) == len(c) + 1


def test_prim_subst_needs_flexible_head():
    c = Clause([plit(app(p, a))])
    assert prim_subst(c, 0, Signature(), (I,)) == []


def test_match_injectivity_shape():
    X, Y = free("X", I), free("Y", I)
    c = Clause([literal(app(f, X), app(f, Y), False),
                literal(X, Y, True)])
    assert match_injectivity(c) is f


def test_inj_rule_postulates_left_inverse():
    X, Y = free("X", I), free("Y", I)
    c = Clause([literal(app(f, X), app(f, Y), False),
                literal(X, Y, True)])
    sig = Signature()
    out = inj_rule(c, sig, set())
    assert out is not None
    (l,) = out.literals
    assert l.pos
    # applying again for the same symbol is suppressed
    assert inj_rule(c, sig, {"f"}) is None


def test_finite_domain_sizes():
    assert len(finite_domain(O)) == 2
    assert len(finite_domain(fn(O, res=O))) == 4


def test_exhaustive_instantiate():
    P = free("P", O)
    q = const("q", O)
    c = Clause([prop_literal(canon(app(const("c2", fn(O, res=O)), P)), True)])
    insts = exhaustive_instantiate(c, P)
    assert len(insts) == 2
    assert all(P not in x.free_vars() for x in insts)


def test_orient_prefers_larger_side():
    big = canon(app(f, app(f, a)))
    small = canon(a)
    assert _orient(small, big) == (big, small)
    assert _orient(big, small) == (big, small)
    assert _orient(small, small) is None


def test_simplify_removes_duplicates_and_trivial():
    l = plit(app(p, a))
    triv = literal(a, a, False)
    out = simplify(Clause([l, l, triv]))
    assert out.changed
    assert out.clause.literals == (l,)


def test_simplify_detects_tautology():
    l = plit(app(p, a))
    out = simplify(Clause([l, plit(app(p, a), False)]))
    assert out.clause is None and out.tautology


def test_simplify_returns_the_input_clause_when_nothing_applies():
    X = free("X", I)
    c = Clause([plit(app(p, a)), plit(app(p, X), False), literal(a, b, False)])
    unit = Clause([plit(app(p, b))])
    out = simplify(c, [(5, unit)])
    assert out.clause is c
    assert not out.changed and not out.tautology and out.used_units == ()


def test_simplify_complementary_equations_are_a_tautology():
    pos = literal(a, b, True)
    out = simplify(Clause([pos, literal(b, a, False)]))
    assert out.clause is None and out.tautology and out.changed


def test_simplify_absurd_false_literal():
    out = simplify(Clause([prop_literal(FALSE, True), plit(app(p, a))]))
    assert out.clause.literals == (plit(app(p, a)),)


def test_simplify_destructive_equality_resolution():
    X = free("X", I)
    c = Clause([literal(X, a, False), plit(app(p, X))])
    out = simplify(c)
    assert out.changed
    assert out.clause.literals == (plit(app(p, a)),)


def test_simplify_unit_rewriting():
    c = Clause([plit(app(p, app(f, a)))])
    unit = Clause([literal(app(f, a), a, True)])
    out = simplify(c, [(7, unit)])
    assert out.changed and 7 in out.used_units
    assert out.clause.literals == (plit(app(p, a)),)


def test_simplify_unit_cutting():
    c = Clause([plit(app(p, a), False), plit(app(p, b))])
    unit = Clause([plit(app(p, a))])
    out = simplify(c, [(3, unit)])
    assert out.changed
    assert out.clause.literals == (plit(app(p, b)),)


def test_simplify_never_rewrites_toward_flexible_head():
    # a unit equation whose small side is variable-headed must be ignored:
    # using it would undo extensionality progress
    F = free("F", fn(I, res=I))
    unit = Clause([literal(app(f, app(f, a)), app(F, a), True)])
    c = Clause([plit(app(p, app(f, app(f, a))))])
    out = simplify(c, [(11, unit)])
    assert not out.changed


def test_head_of_on_eta_long_constant():
    assert head_of(canon(f)) is f
