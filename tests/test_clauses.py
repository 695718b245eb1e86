"""Literals, clauses, alpha-invariant keys, matching and subsumption."""

import random
from collections import Counter
from itertools import product

import pytest

from ep_prover import calculus, clauses, saturation
from ep_prover.terms import (
    Abs, Bound, Const, Free, I, O, Signature, app, base_type, bound, canon,
    const, disj, fn, free, invert_pattern, lam, neg, subterm_positions,
    substitute, type_str,
)
from ep_prover.clauses import (
    Clause, EMPTY_CLAUSE, Literal, alpha_key, clause_weight, head_of,
    heads_fit, is_empty_clause, is_flex_flex, match_literal, match_terms,
    prop_literal, rename_clause, subsumes,
)
from ep_prover.saturation import ProverConfig, Saturation, saturate
from ep_prover.tptp import parse_problem

from test_saturation import _corpus_problems


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
    l1 = Literal(app(p, a), app(q, b), True)
    l2 = Literal(app(q, b), app(p, a), True)
    assert l1 == l2


def test_literal_canonicalizes_function_typed_sides():
    g = const("g", fn(I, I, res=I))
    F = free("F", fn(I, res=I))
    x = bound(0, I)
    # g a, a partial application, and F, a bare function variable: both
    # eta-short; the right side is also a redex under a binder
    l = Literal(app(g, a), lam(I, app(lam(I, app(F, x)), x)), False)
    sides = {l.lhs, l.rhs}
    assert sides == {lam(I, app(g, a, x)), lam(I, app(F, x))}
    assert all(canon(s) is s for s in sides)
    assert l == Literal(canon(app(g, a)), canon(F), False)
    assert Literal(F, lam(I, app(F, x)), True).lhs is lam(I, app(F, x))


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
    c = Clause([Literal(app(F, a), app(G, b), False)])
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
    c1 = Clause([lit(app(p, a)), Literal(a, b, False)])
    c2 = Clause([Literal(b, a, False), lit(app(p, a))])
    assert c1 is not c2
    assert alpha_key(c1) == alpha_key(c2) == c1._key


def test_ground_key_differs_from_non_ground_key_of_same_shape():
    for ground, open_ in (
            (Clause([lit(app(p, a))]), Clause([lit(app(p, X))])),
            (Clause([lit(app(p, a)), lit(app(q, b), False)]),
             Clause([lit(app(p, X)), lit(app(q, Y), False)])),
            (Clause([Literal(a, b, True)]), Clause([Literal(X, b, True)]))):
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
        lits.append(Literal(_sorted_term(rng, sort, 2),
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


def test_match_terms_binds_a_variable_the_target_shares():
    # X against the target's own X is the binding X -> X, not a free pass
    assert match_terms(canon(X), canon(X), {}) == {X: X}
    assert match_terms(canon(X), canon(a), {X: X}) is None


def test_match_terms_resolves_bound_heads():
    # once X is bound, further occurrences must agree after substitution
    m = match_terms(canon(app(p, X)), canon(app(p, a)), {})
    assert match_terms(canon(X), canon(a), m) == m
    assert match_terms(canon(X), canon(b), m) is None


def test_instance_check_keys_on_the_images():
    # F applied to a constant is no pattern: `match_terms` compares the
    # instance under the binding with the target
    F = free("F_inst", fn(I, res=I))
    pat = canon(app(F, a))
    ident = canon(lam(I, bound(0, I)))
    to_b = canon(lam(I, b))
    assert match_terms(pat, a, {F: ident}) == {F: ident}
    assert match_terms(pat, a, {F: to_b}) is None
    assert match_terms(pat, b, {F: to_b}) == {F: to_b}
    assert match_terms(pat, b, {F: ident}) is None


def test_inversion_keys_on_the_arguments_and_the_target():
    G = free("G_inv", fn(I, I, res=I))
    f2 = const("f2", fn(I, I, res=I))
    x, y = bound(1, I), bound(0, I)
    tgt = canon(lam(I, lam(I, app(f2, x, y))))
    m1 = match_terms(canon(lam(I, lam(I, app(G, x, y)))), tgt, {})
    m2 = match_terms(canon(lam(I, lam(I, app(G, y, x)))), tgt, {})
    assert m1[G] is canon(f2)
    assert m2[G] is canon(lam(I, lam(I, app(f2, y, x))))


def test_a_repeated_inversion_is_answered_by_the_memo():
    f2 = const("f2", fn(I, I, res=I))
    args = (bound(1, I), bound(0, I))
    body = canon(app(f2, bound(0, I), bound(1, I)))
    first = invert_pattern(args, body)
    hits = invert_pattern.cache_info().hits
    assert invert_pattern(args, body) is first
    assert invert_pattern.cache_info().hits == hits + 1
    assert first is canon(lam(I, lam(I, app(f2, bound(0, I), bound(1, I)))))


def test_match_literal_tries_both_orientations():
    pl = Literal(X, a, True)
    tl = Literal(b, a, True)
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


def test_subsumes_with_shared_names_does_not_chase_bindings():
    # X -> Y, Y -> a maps q X to q Y, not to q a
    p2 = const("p2", fn(I, I, res=O))
    c = Clause([lit(app(p2, X, Y)), lit(app(q, X))])
    d = Clause([lit(app(p2, Y, a)), lit(app(q, a))])
    assert not subsumes(c, d)


def test_subsumes_with_shared_names_binds_the_shared_variable():
    # {p X | q X} does not subsume {p X | q a}: X -> X leaves q a unmatched
    c = Clause([lit(app(p, X)), lit(app(q, X))])
    d = Clause([lit(app(p, X)), lit(app(q, a))])
    assert not subsumes(c, d)


def test_subsumes_instance_over_shifted_names():
    # the second clause is the first under U0 -> U1, U1 -> U2
    g = const("g", fn(J, res=J))
    U0, U1, U2 = _SORTED_VARS[J]
    c = Clause([Literal(app(g, app(g, U0)), U1, False),
                Literal(U0, U1, False)])
    d = Clause([Literal(app(g, app(g, U1)), U2, False),
                Literal(U1, U2, False)])
    assert subsumes(c, d)


def test_subsumes_keeps_higher_order_patterns():
    # F -> (λx. h x b) matches P F, and then F a is compared as h a b
    ii = fn(I, res=I)
    P = const("P", fn(ii, res=O))
    h = const("h", fn(I, I, res=I))
    F = free("F", ii)
    c = Clause([lit(app(P, F)), lit(app(q, app(F, a)))])
    d = Clause([lit(app(P, lam(I, app(h, bound(0, I), b)))),
                lit(app(q, app(h, a, b)))])
    assert subsumes(c, d)


def test_subsumes_matches_non_pattern_literals_last():
    # as above, but r sorts after q, so q (F a) comes first in c and can
    # only be matched once r F has bound F
    ii = fn(I, res=I)
    r = const("r", fn(ii, res=O))
    h = const("h", fn(I, I, res=I))
    F = free("F", ii)
    c = Clause([lit(app(r, F)), lit(app(q, app(F, a)))])
    d = Clause([lit(app(r, lam(I, app(h, bound(0, I), b)))),
                lit(app(q, app(h, a, b)))])
    assert c.literals[0].lhs.fvs and c.literals[0].lhs.head is q
    assert subsumes(c, d)


def _subsumes_by_search(c, d):
    """First-order subsumption by brute force: every map of c's variables
    to same-sorted subterms of d, then multiset inclusion of literals."""
    subterms = {s for l in d.literals for t in (l.lhs, l.rhs)
                for _, s in subterm_positions(t)}
    fvs = sorted(c.free_vars(), key=lambda v: v.name)
    pools = [[s for s in subterms if s.ty is v.ty] for v in fvs]
    want = Counter(d.literals)
    for images in product(*pools):
        m = dict(zip(fvs, images))
        inst = Counter(Literal(substitute(l.lhs, m), substitute(l.rhs, m),
                               l.pos) for l in c.literals)
        if all(want[l] >= k for l, k in inst.items()):
            return True
    return False


def test_subsumes_agrees_with_search_on_shared_names():
    rng = random.Random(7)
    verdicts = Counter()
    checked = 0
    while checked < 400:
        c = _sorted_clause(rng)
        if rng.random() < 0.5:
            # an instance of c over the same variable names, maybe widened
            m = {v: _sorted_term(rng, v.ty, 1) for v in c.free_vars()}
            lits = [Literal(substitute(l.lhs, m), substitute(l.rhs, m),
                            l.pos) for l in c.literals]
            if rng.random() < 0.5:
                lits += _sorted_clause(rng).literals
            d = Clause(lits)
        else:
            d = _sorted_clause(rng)
        if not c.free_vars() & d.free_vars():
            continue
        checked += 1
        expected = _subsumes_by_search(c, d)
        assert subsumes(c, d) is expected, (c, d)
        verdicts[expected] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 100


def _ground_literals():
    g = const("g", fn(I, res=I))
    atoms = [canon(app(p, a)), canon(app(p, b)), canon(app(q, a)),
             canon(app(q, app(g, a)))]
    return ([lit(t, pos) for t in atoms for pos in (True, False)]
            + [Literal(x, y, pos) for x, y in ((a, b), (app(g, a), b),
                                               (atoms[0], atoms[2]))
               for pos in (True, False)])


def test_ground_subsumption_agrees_with_matching():
    """A ground c without repeated literals subsumes d by inclusion of
    literal keys; the answer must be that of `heads_fit` and `_embed`,
    for ground c with repeated literals, non-ground d and the empty
    clause too."""
    rng = random.Random(13)
    pool = _ground_literals()
    open_lits = [lit(app(p, X)), Literal(X, a, True), lit(app(q, Y), False)]
    seen = Counter()
    for _ in range(3000):
        c = Clause(rng.choice(pool) for _ in range(rng.randrange(4)))
        d = list(rng.choice(pool) for _ in range(rng.randrange(6)))
        if rng.random() < 0.5:
            # d draws c's literals, so that many pairs subsume
            d += rng.sample(c.literals, rng.randrange(len(c) + 1))
        if rng.random() < 0.25:
            d.append(rng.choice(open_lits))
        d = Clause(d)
        expected = heads_fit(c, d) and clauses._embed(
            clauses._match_info(c)[1], d.literals, 0, {}, 0)
        assert subsumes(c, d) is expected, (c, d)
        repeated = len(set(c._key)) < len(c)
        seen[expected, repeated, bool(d.free_vars()), len(c) == 0] += 1
    for repeated, open_d, empty in product((False, True), repeat=3):
        if empty and repeated:
            continue
        assert seen[True, repeated, open_d, empty] >= 10
        assert empty or seen[False, repeated, open_d, empty] >= 10


# ---------------------------------------------------------------------------
# alpha_key from name-blind ids against the string walk it replaced, and
# the rigid-head pre-check of subsumes, on the clauses of real runs
# ---------------------------------------------------------------------------

def _sig_by_strings(t, names, out):
    if isinstance(t, Const):
        out.append("c:" + t.name)
    elif isinstance(t, Free):
        if names is None:
            out.append("f:*:" + type_str(t.ty))
        else:
            out.append("f:%d:%s" % (names.setdefault(t, len(names)),
                                    type_str(t.ty)))
    elif isinstance(t, Bound):
        out.append("b:%d" % t.index)
    elif isinstance(t, Abs):
        out.append("l:" + type_str(t.var_ty))
        _sig_by_strings(t.body, names, out)
    else:
        out.append("a:%d" % len(t.args))
        _sig_by_strings(t.head, names, out)
        for a in t.args:
            _sig_by_strings(a, names, out)


def _alpha_key_by_strings(c):
    """`alpha_key` with nothing minted as it was before `_blind`: literals
    sorted by a name-blind string walk, then walked again to number the
    variables."""
    if not c.free_vars():
        return c._key

    def blind(l):
        acc = ["+" if l.pos else "-"]
        _sig_by_strings(l.lhs, None, acc)
        _sig_by_strings(l.rhs, None, acc)
        return tuple(acc)

    names = {}
    out = []
    for l in sorted(c.literals, key=blind):
        out.append("+" if l.pos else "-")
        _sig_by_strings(l.lhs, names, out)
        _sig_by_strings(l.rhs, names, out)
    return tuple(out)


def _assert_bijection(pairs):
    forward, backward = {}, {}
    for x, y in pairs:
        assert forward.setdefault(x, y) == y
        assert backward.setdefault(y, x) == x
    return len(forward)


def _run_problem(path):
    prob = parse_problem(open(path).read(), path.rsplit("/", 1)[-1])
    return saturate(prob, ProverConfig(time_limit=60))


@pytest.fixture(scope="module")
def cantor_runs():
    """Per Cantor problem: the records of its run and every (P clause, new
    clause) pair of its `_enqueue` calls.  These runs solve the
    constraint set of every clause they keep at intake, picked or not:
    the search defers that to the pick, and the clauses those solves
    make feed the `alpha_key` and `subsumes` samples below."""
    runs = {}
    enqueue = Saturation._enqueue
    unify_at_intake = Saturation._unify_at_intake
    for name in ("sur_cantor", "inj_cantor"):
        pairs = []

        def spy_enqueue(self, d, key):
            pairs.extend((self.records[p].clause, d.clause) for p in self.P)
            return enqueue(self, d, key)

        def eager_unify(self, d, kept):
            unify_at_intake(self, d, kept)
            pairs = self.deferred.pop(d.id, None)
            if pairs is not None:
                self._pre_unify(d, pairs)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(Saturation, "_enqueue", spy_enqueue)
            m.setattr(Saturation, "_unify_at_intake", eager_unify)
            res = _run_problem(f"problems/{name}.p")
        assert res.status == "Theorem"
        runs[name] = res.records, pairs
    return runs


def test_alpha_key_partitions_recorded_clauses_like_the_string_walk(
        cantor_runs):
    runs = [records for records, _ in cantor_runs.values()]
    runs += [saturate(make(), ProverConfig(time_limit=60)).records
             for make in _corpus_problems()]
    assert len(runs) == 24
    # keys are compared within a run: runs may mint the same name at
    # different types
    clauses_seen = shared = 0
    for records in runs:
        cs = [d.clause for d in records.values() if d.clause is not None]
        keys = _assert_bijection((_alpha_key_by_strings(c), alpha_key(c))
                                 for c in cs)
        # a minted set that names none of the constants changes nothing
        assert _assert_bijection(
            (alpha_key(c), alpha_key(c, {"no_such_constant"}))
            for c in cs) == keys
        clauses_seen += len(cs)
        shared += len({c._key for c in cs}) - keys
    assert clauses_seen > 5000
    # some keys are shared by clauses that differ in their names
    assert shared > 0


def test_heads_fit_rejects_rigid_mismatches():
    P = free("P", IO)
    ii = fn(I, res=I)
    k = const("k", fn(ii, ii, res=I))
    f, g = bound(1, ii), bound(0, ii)
    for c, d in (
            # a constant head against the target's free-variable head
            (Clause([lit(app(p, X))]), Clause([lit(app(P, a))])),
            # different bound variables as heads
            (Clause([Literal(lam(ii, lam(ii, app(f, X))), canon(k), True)]),
             Clause([Literal(lam(ii, lam(ii, app(g, a))), canon(k), True)])),
            # opposite polarity
            (Clause([lit(app(p, X))]), Clause([lit(app(p, a), False)]))):
        assert not heads_fit(c, d)
        assert not subsumes(c, d)


def test_heads_fit_keeps_flexible_heads_and_swapped_sides():
    F = free("F", IO)
    # a flexible head of c fits any head of d: F -> p
    c = Clause([Literal(F, q, True)])
    d = Clause([Literal(p, q, True)])
    assert head_of(c.literals[0].rhs) is F
    assert heads_fit(c, d) and subsumes(c, d)
    # b = X matches a = b with its sides swapped
    c = Clause([Literal(b, X, True)])
    d = Clause([Literal(a, b, True)])
    assert c.literals[0].lhs is b and d.literals[0].rhs is b
    assert heads_fit(c, d) and subsumes(c, d)


def test_heads_fit_never_rejects_a_match(cantor_runs):
    pairs = [(c, d) for c, d in cantor_runs["sur_cantor"][1]
             if len(c) <= len(d)]
    fits = [heads_fit(c, d) for c, d in pairs]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(clauses, "heads_fit", lambda c, d: True)
        matched = [subsumes(c, d) for c, d in pairs]
    assert any(matched)
    assert not any(m and not f for m, f in zip(matched, fits))
    assert fits.count(False) * 2 > len(pairs)


def _clear_match_memos():
    invert_pattern.cache_clear()
    clauses._instance.cache_clear()
    clauses._rigid_head.cache_clear()


def test_match_memos_answer_as_a_cold_computation():
    """Every `subsumes`, `cuts` and `simplify` answer of a `sur_cantor`
    run and of the corpus runs, which fill the matching memos as they
    go, equals the answer recomputed with all three memos cleared
    first.  The corpus runs cut and rewrite with units, which the
    `sur_cantor` run does not.  The search checks a clause against P
    only when it is picked, so the `subsumes` sample also takes every
    (P clause, new clause) pair of each `_enqueue` call.  A unit that
    `simplify` used from those it finds by lookup (`UnitIndex.ground`)
    has cut the literal complementary to its own without asking `cuts`;
    the `cuts` sample takes that pair too."""
    subsumed, cut, simplified = [], [], []
    enqueue = Saturation._enqueue

    def spy_subsumes(c, d):
        out = clauses.subsumes(c, d)
        subsumed.append((c, d, out))
        return out

    def spy_enqueue(self, d, key):
        for p in self.P:
            spy_subsumes(self.records[p].clause, d.clause)
        return enqueue(self, d, key)

    def spy_cuts(unit, l):
        out = clauses.cuts(unit, l)
        cut.append((unit, l, out))
        return out

    def spy_simplify(c, units=(), deadline=None):
        out = calculus.simplify(c, units, deadline)
        simplified.append((c, tuple(units), out))
        looked_up = {uid for _, _, uid in units.ground.values()}
        clause_of = dict(units)
        for uid in out[1]:
            if uid in looked_up:
                ul = clause_of[uid].literals[0]
                cut.append((clause_of[uid],
                            Literal(ul.lhs, ul.rhs, not ul.pos), True))
        return out
    with pytest.MonkeyPatch.context() as m:
        m.setattr(saturation, "subsumes", spy_subsumes)
        m.setattr(calculus, "cuts", spy_cuts)
        m.setattr(saturation, "simplify", spy_simplify)
        m.setattr(Saturation, "_enqueue", spy_enqueue)
        res = _run_problem("problems/sur_cantor.p")
        assert res.status == "Theorem"
        for make in _corpus_problems():
            res = saturate(make(), ProverConfig(time_limit=60))
            assert res.status in ("Theorem", "ContradictoryAxioms",
                                  "Unsatisfiable")
    for c, d, out in subsumed:
        _clear_match_memos()
        assert clauses.subsumes(c, d) is out
    for unit, l, out in cut:
        _clear_match_memos()
        assert clauses.cuts(unit, l) is out
    for c, units, out in simplified:
        _clear_match_memos()
        assert calculus.simplify(c, units) == out
    # 9,342 calls and 163 hits, 13,552 calls and 200 cuts, 1,633 calls
    # and 197 rewrites or cuts when this was written; since the unit
    # index, 5,394 `cuts` calls and 120 cuts by lookup, 200 cuts in all,
    # and 1,449 `simplify` calls
    assert len(subsumed) > 5000 and sum(o for *_, o in subsumed) > 100
    assert len(cut) > 5000 and sum(o for *_, o in cut) > 100
    assert sum(bool(used) for *_, (_, used) in simplified) > 100
