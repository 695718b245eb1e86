"""Inference rules: paramodulation, factoring, extensionality, and
clause simplification."""

import time

import pytest

from ep_prover.terms import (
    Const, FALSE, Free, I, O, Signature, TRUE, app, bound, canon, const, fn,
    free, lam,
)
from ep_prover import calculus, saturation
from ep_prover.clauses import (
    Clause, Literal, head_of, match_literal, prop_literal,
)
from ep_prover.cnf import OutOfTime
from ep_prover.calculus import (
    UnitIndex, _orient, _rewrite_once, _try_der, bool_ext,
    eqfac_candidates, func_ext, finite_domain, inj_rule, instantiate,
    match_injectivity, ordered_resolution, para_candidates, paramod_ordered,
    prim_subst, simplify,
)
from ep_prover.modal import embed
from ep_prover.saturation import ProverConfig, saturate
from ep_prover.tptp import parse_problem


IO = fn(I, res=O)
p = const("p", IO)
f = const("f", fn(I, res=I))
a = const("a", I)
b = const("b", I)


def plit(t, pos=True):
    return prop_literal(canon(t), pos)


def test_para_rewrites_and_emits_constraint():
    X = free("X", I)
    c = Clause([plit(app(p, app(f, a)))])
    eq = Clause([Literal(app(f, X), b, True)])
    out = list(para_candidates(c, eq))
    assert out
    rewritten = [x for x in out
                 if any(l.lhs is canon(app(p, b)) for l in x)]
    # the conclusion carries the negative unification constraint
    assert rewritten == [Clause([plit(app(p, b)),
                                 Literal(app(f, a), app(f, X), False)])]


def test_para_emits_no_constraint_for_the_side_itself():
    c = Clause([plit(app(p, a))])
    eq = Clause([Literal(a, b, True)])
    # a rewritten by a = b: the constraint [a = a]^ff is left out
    assert Clause([plit(app(p, b))]) in list(para_candidates(c, eq))


def test_para_skips_truth_constant_sides():
    c = Clause([plit(app(p, a))])
    taut = Clause([Literal(TRUE, TRUE, True)])
    assert all(TRUE not in (l.lhs, l.rhs)
               for x in para_candidates(c, taut)
               for l in x if l.pos and not l.is_shorthand)


def test_para_skips_a_ground_atom_into_a_different_ground_atom():
    q, r = const("q", O), const("r", O)
    assert list(para_candidates(Clause([prop_literal(r, False)]),
                                Clause([prop_literal(q, True)]))) == []
    pa = canon(app(p, a))
    assert list(para_candidates(Clause([prop_literal(q, False)]),
                                Clause([prop_literal(pa, True)]))) == []


def test_para_keeps_ground_resolution():
    q = const("q", O)
    out = list(para_candidates(Clause([prop_literal(q, False)]),
                               Clause([prop_literal(q, True)])))
    # the bare resolvent, without [$true = $true]^ff and [q = q]^ff
    assert out == [Clause([])]
    r = const("r", O)
    out = list(para_candidates(
        Clause([prop_literal(q, False), prop_literal(r, True)]),
        Clause([prop_literal(q, True), prop_literal(r, False)])))
    assert out == [Clause([prop_literal(r, True), prop_literal(r, False)])]


def test_para_keeps_a_ground_atom_into_a_proper_subterm():
    q = const("q", O)
    h = const("h", fn(O, res=O))
    hq = canon(app(h, q))
    out = list(para_candidates(Clause([prop_literal(hq, False)]),
                               Clause([prop_literal(q, True)])))
    # the whole atom h @ q is not rewritten, and [q = q]^ff is left out
    assert out == [Clause([prop_literal(canon(app(h, TRUE)), False)])]


def test_para_walks_every_position_of_other_atoms():
    """Only a ground atom into a constant atom skips the walk over
    positions; a non-ground or non-constant atom keeps every one."""
    q = const("q", O)
    P = free("P", fn(I, res=O))
    X = free("X", I)
    PX = canon(app(P, X))
    # a non-ground atom into a constant one: [$true = $true]^ff is left
    # out, the constraint kept
    assert list(para_candidates(Clause([prop_literal(q, False)]),
                                Clause([prop_literal(PX, True)]))) \
        == [Clause([Literal(q, PX, False)])]
    # a ground atom into a non-ground one
    assert list(para_candidates(Clause([prop_literal(PX, False)]),
                                Clause([prop_literal(q, True)]))) \
        == [Clause([Literal(PX, q, False)])]
    # a ground atom into the proper subterms of a non-constant one
    g = const("g", fn(O, O, res=O))
    gqq = canon(app(g, q, q))
    assert list(para_candidates(Clause([prop_literal(gqq, False)]),
                                Clause([prop_literal(q, True)]))) \
        == [Clause([prop_literal(canon(app(g, TRUE, q)), False)]),
            Clause([prop_literal(canon(app(g, q, TRUE)), False)])]


def test_para_keeps_atoms_with_free_variables():
    q = const("q", O)
    P = free("P", fn(I, res=O))
    X = free("X", I)
    PX = canon(app(P, X))
    assert list(para_candidates(Clause([prop_literal(q, False)]),
                                Clause([prop_literal(PX, True)])))
    assert list(para_candidates(Clause([prop_literal(PX, False)]),
                                Clause([prop_literal(q, True)])))


def test_ordered_resolution_resolves_on_maximal_atoms_only():
    # q ranks above p: atoms of one class are ordered by skey
    q, r = const("q", O), const("r", O)
    p0 = const("p0", O)
    pq = Clause([prop_literal(p0, True), prop_literal(q, True)])
    not_p, not_q = (Clause([prop_literal(x, False)]) for x in (p0, q))
    assert list(para_candidates(not_q, pq, set())) \
        == [Clause([prop_literal(p0, True)])]
    assert list(para_candidates(not_p, pq, set())) == []
    # the unordered calculus resolves on either atom
    assert list(para_candidates(not_p, pq)) \
        == [Clause([prop_literal(q, True)])]
    # a minted atom ranks below every other atom
    assert list(para_candidates(not_p, pq, {"q"})) \
        == [Clause([prop_literal(q, True)])]
    assert list(para_candidates(not_q, pq, {"q"})) == []
    # among minted atoms, skey decides again
    assert list(para_candidates(not_q, pq, {"p0", "q"})) \
        == [Clause([prop_literal(p0, True)])]
    # the maximal literal of the other premise must be the negative one
    rq = Clause([prop_literal(q, False), prop_literal(r, True)])
    assert list(para_candidates(rq, pq, set())) == []
    assert list(para_candidates(rq, Clause([prop_literal(r, False)]),
                                set())) == []
    # a clause with the atom at both polarities is no premise of itself
    taut = Clause([prop_literal(q, False), prop_literal(q, True)])
    assert list(para_candidates(taut, taut, set())) == []


def test_paramod_ordered_takes_the_runs_decision():
    sig = Signature()
    q = const("q", O)
    p0 = const("p0", O)
    pq = Clause([prop_literal(p0, True), prop_literal(q, True)])
    not_p = Clause([prop_literal(p0, False)])
    assert list(paramod_ordered(not_p, pq, sig, True)) == []
    assert list(paramod_ordered(not_p, pq, sig, False)) \
        == [Clause([prop_literal(q, True)])]
    sig.system.add("q")
    assert list(paramod_ordered(not_p, pq, sig, True)) \
        == [Clause([prop_literal(q, True)])]


def test_ordered_resolution_needs_constant_atoms_only():
    q = const("q", O)
    X = free("X", I)
    ground = [Clause([prop_literal(q, True)]),
              Clause([prop_literal(q, False),
                      prop_literal(const("r", O), True)])]
    assert ordered_resolution(ground)
    assert ordered_resolution([])
    assert not ordered_resolution(ground + [Clause([plit(app(p, a))])])
    assert not ordered_resolution([Clause([Literal(a, b, True)])])
    assert not ordered_resolution([Clause([Literal(q, FALSE, True)])])
    assert not ordered_resolution(
        [Clause([prop_literal(free("P", O), True)])])
    assert not ordered_resolution([Clause([Literal(X, a, False)])])


def test_eqfac_merges_same_polarity_literals():
    X, Y = free("X", I), free("Y", I)
    c = Clause([plit(app(p, X)), plit(app(p, Y))])
    out = list(eqfac_candidates(c))
    assert out
    assert all(len(x) >= 1 for x in out)


def test_eqfac_yields_each_conclusion_once():
    X, Y = free("X", I), free("Y", I)
    c = Clause([Literal(app(f, X), a, True), Literal(app(f, b), Y, True)])
    out = list(eqfac_candidates(c))
    # two literals to keep, each with two pairings of the sides
    assert len(out) == len(set(out)) == 4
    prob = parse_problem(open("problems/sur_cantor.p").read(),
                         "sur_cantor.p")
    res = saturate(prob, ProverConfig(time_limit=60))
    steps = [d for d in res.records.values() if d.rule == "eqfactor_ordered"]
    given = {d.parents[0] for d in steps}
    conclusions = 0
    for gid in given:
        out = list(eqfac_candidates(res.records[gid].clause))
        assert len(out) == len(set(out)), gid
        conclusions += len(out)
    # the search records every conclusion of the clauses it factors
    assert conclusions == len(steps) > 0


def test_eqfac_skips_two_ground_propositional_literals():
    q, r = const("q", O), const("r", O)
    for pos in (True, False):
        c = Clause([prop_literal(q, pos), prop_literal(r, pos)])
        assert list(eqfac_candidates(c)) == []


def test_eqfac_factors_pairs_that_are_not_both_ground_propositional():
    X, Y = free("X", I), free("Y", I)
    ground, open_ = plit(app(p, a)), plit(app(p, X))
    assert list(eqfac_candidates(Clause([ground, open_])))
    assert list(eqfac_candidates(Clause([open_, plit(app(p, Y))])))
    # ground equations that are not propositional literals
    assert list(eqfac_candidates(Clause([Literal(a, b, True),
                                         Literal(app(f, a), b, True)])))


def test_bool_ext_positive_split():
    q, r = const("q", O), const("r", O)
    c = Clause([Literal(q, r, True)])
    c1, c2 = bool_ext(c, 0)
    # together the halves say q <=> r
    pols = sorted(tuple(sorted(l.pos for l in half)) for half in (c1, c2))
    assert pols == [(False, True), (False, True)]


def test_bool_ext_negative_split():
    q, r = const("q", O), const("r", O)
    c = Clause([Literal(q, r, False)])
    c1, c2 = bool_ext(c, 0)
    pols = sorted(tuple(sorted(l.pos for l in half)) for half in (c1, c2))
    assert pols == [(False, False), (True, True)]


def test_func_ext_applies_fresh_argument():
    g = const("g", fn(I, res=I))
    c = Clause([Literal(f, g, False)])
    sig = Signature()
    out = func_ext(c, 0, sig)
    (l,) = out.literals
    assert l.lhs.ty is I and not l.pos


def test_func_ext_positive_uses_fresh_variable():
    g = const("g", fn(I, res=I))
    c = Clause([Literal(f, g, True)])
    out = func_ext(c, 0, Signature())
    (l,) = out.literals
    assert l.lhs.ty is I
    assert l.free_vars()


def test_prim_subst_offers_logical_heads():
    F = free("F", O)
    c = Clause([prop_literal(F, True)])
    out = prim_subst(c, Signature(), (I,))
    # the head each constraint literal offers for F
    heads = {head_of(t).name for x in out for l in x if l not in c.literals
             for t in (l.lhs, l.rhs) if isinstance(head_of(t), Const)}
    assert {"~", "|", "!!", "="} <= heads
    for constrained in out:
        assert len(constrained) == len(c) + 1


def test_prim_subst_needs_flexible_head():
    c = Clause([plit(app(p, a))])
    assert prim_subst(c, Signature(), (I,)) == []


def test_match_injectivity_shape():
    X, Y = free("X", I), free("Y", I)
    c = Clause([Literal(app(f, X), app(f, Y), False),
                Literal(X, Y, True)])
    assert match_injectivity(c) is f


def test_inj_rule_postulates_left_inverse():
    X, Y = free("X", I), free("Y", I)
    c = Clause([Literal(app(f, X), app(f, Y), False),
                Literal(X, Y, True)])
    sig = Signature()
    (out,) = inj_rule(c, sig, set())
    (l,) = out.literals
    assert l.pos
    # applying again for the same symbol is suppressed
    assert inj_rule(c, sig, {"f"}) == []


def test_finite_domain_sizes():
    assert len(finite_domain(O)) == 2
    assert len(finite_domain(fn(O, res=O))) == 4


def test_exhaustive_instantiate():
    P = free("P", O)
    c = Clause([prop_literal(canon(app(const("c2", fn(O, res=O)), P)), True)])
    insts = instantiate(c)
    assert len(insts) == 2
    assert all(P not in x.free_vars() for x in insts)
    assert instantiate(Clause([plit(app(p, free("X", I)))])) == []


def test_orient_prefers_larger_side():
    big = canon(app(f, app(f, a)))
    small = canon(a)
    assert _orient(small, big) == (big, small)
    assert _orient(big, small) == (big, small)
    assert _orient(small, small) is None


# f3 c c X = g2 X X and g2 (d (d Y)) Z = f3 c c Z: each shrinks as
# written, but the first duplicates X, so f3 c c (d (d a)) rewrites to
# itself
c0 = const("c", I)
d = const("d", fn(I, res=I))
f3 = const("f3", fn(I, I, I, res=I))
g2 = const("g2", fn(I, I, res=I))


def test_orient_rejects_a_variable_duplicating_equation():
    X = free("X", I)
    assert _orient(canon(app(f3, c0, c0, X)), canon(app(g2, X, X))) is None
    assert _orient(canon(app(g2, X, X)), canon(app(f3, c0, c0, X))) is None


def test_orient_rejects_an_open_equation_of_equal_sizes():
    X, Y = free("X", I), free("Y", I)
    assert _orient(canon(app(g2, X, Y)), canon(app(g2, Y, X))) is None
    # a ground one is still oriented, by structural key
    assert _orient(canon(app(g2, a, b)), canon(app(g2, b, a))) is not None


def test_orient_rejects_an_applied_variable():
    F = free("F", fn(I, res=I))
    big, small = canon(app(g2, app(F, a), a)), canon(app(F, a))
    assert _orient(big, small) is None
    assert _orient(small, big) is None


def test_orient_keeps_a_variable_condition_equation():
    X, Y = free("X", I), free("Y", I)
    big = canon(app(g2, app(d, app(d, Y)), X))
    small = canon(app(f3, c0, c0, X))
    assert _orient(small, big) == (big, small)


def test_simplify_checks_the_deadline_after_a_changing_pass():
    l = plit(app(p, a))
    past = time.monotonic() - 1
    assert simplify(Clause([l]), (), past)[0] is not None
    with pytest.raises(OutOfTime):
        simplify(Clause([l, l]), (), past)


def test_simplify_removes_duplicates_and_trivial():
    l = plit(app(p, a))
    triv = Literal(a, a, False)
    out, used = simplify(Clause([l, l, triv]))
    assert out.literals == (l,) and used == ()


def test_simplify_detects_tautology():
    l = plit(app(p, a))
    assert simplify(Clause([l, plit(app(p, a), False)])) == (None, ())


def test_simplify_returns_the_input_clause_when_nothing_applies():
    X = free("X", I)
    c = Clause([plit(app(p, a)), plit(app(p, X), False), Literal(a, b, False)])
    unit = Clause([plit(app(p, b))])
    out, used = simplify(c, [(5, unit)])
    assert out is c and used == ()


def test_simplify_complementary_equations_are_a_tautology():
    pos = Literal(a, b, True)
    assert simplify(Clause([pos, Literal(b, a, False)])) == (None, ())


def test_simplify_absurd_false_literal():
    out, _ = simplify(Clause([prop_literal(FALSE, True), plit(app(p, a))]))
    assert out.literals == (plit(app(p, a)),)


def test_simplify_destructive_equality_resolution():
    X = free("X", I)
    c = Clause([Literal(X, a, False), plit(app(p, X))])
    out, used = simplify(c)
    assert out.literals == (plit(app(p, a)),) and used == ()


def test_simplify_unit_rewriting():
    c = Clause([plit(app(p, app(f, a)))])
    unit = Clause([Literal(app(f, a), a, True)])
    out, used = simplify(c, [(7, unit)])
    assert out.literals == (plit(app(p, a)),) and used == (7,)
    # both sides of an equation, one side per pass
    c = Clause([Literal(app(d, app(f, a)), app(g2, app(f, a), b), False)])
    out, used = simplify(c, [(7, unit)])
    assert out.literals == (Literal(app(d, a), app(g2, a, b), False),)
    assert used == (7,)


def test_simplify_unit_cutting():
    c = Clause([plit(app(p, a), False), plit(app(p, b))])
    unit = Clause([plit(app(p, a))])
    out, used = simplify(c, [(3, unit)])
    assert out.literals == (plit(app(p, b)),) and used == (3,)
    # an instance of the unit, in either orientation
    X = free("X", I)
    eq_unit = Clause([Literal(app(f, X), a, True)])
    for lit in (Literal(app(f, b), a, False), Literal(a, app(f, b), False)):
        out, used = simplify(Clause([lit, plit(app(p, b))]), [(5, eq_unit)])
        assert out.literals == (plit(app(p, b)),) and used == (5,)
    # no cut without fitting heads or opposite polarity
    q = const("q", IO)
    for lits in ([plit(app(q, a), False), plit(app(p, b))],
                 [plit(app(p, a)), plit(app(q, b))]):
        c = Clause(lits)
        assert simplify(c, [(3, unit)]) == (c, ())


def _simplify_with_probes(c, units=()):
    """`simplify` as it was when unit cutting built a probe literal per
    (unit, literal) pair and matched it with `match_literal`."""
    lits = list(c.literals)
    changed = False
    used = []
    while True:
        progressed = False
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
        for uid, unit in units:
            if len(unit.literals) != 1 or unit is c:
                continue
            ul = unit.literals[0]
            if ul.pos and not ul.is_shorthand:
                ori = _orient(ul.lhs, ul.rhs)
                if ori is not None and not isinstance(
                        head_of(ori[1]), Free):
                    big, small = ori
                    for k, l in enumerate(lits):
                        nl = _rewrite_once(l.lhs, big, small)
                        if nl is not None:
                            lits[k] = Literal(nl, l.rhs, l.pos)
                            progressed = True
                            used.append(uid)
                            break
                        nr = _rewrite_once(l.rhs, big, small)
                        if nr is not None:
                            lits[k] = Literal(l.lhs, nr, l.pos)
                            progressed = True
                            used.append(uid)
                            break
                    if progressed:
                        break
            cut = None
            for k, l in enumerate(lits):
                if l.pos is ul.pos:
                    continue
                probe = Literal(ul.lhs, ul.rhs, l.pos)
                if any(True for _ in match_literal(probe, l, {})):
                    cut = k
                    break
            if cut is not None:
                del lits[cut]
                progressed = True
                used.append(uid)
                break
        if progressed:
            changed = True
            continue
        break
    if not changed:
        return c, ()
    return Clause(lits), tuple(dict.fromkeys(used))


def _looked_up(units: UnitIndex) -> set:
    """The ids of the units that `simplify` finds by lookup: a unit it
    used from these has cut a literal."""
    return {uid for _, _, uid in units.ground.values()}


def test_unit_cutting_without_probes_simplifies_as_before(monkeypatch):
    """Every `simplify` call of a `sur_cantor` run and of the corpus runs
    returns what the probe-literal version returns.  The cuts counted
    are those of `cuts` and those of the units `simplify` found by
    lookup (`UnitIndex.ground`), which never reach `cuts`."""
    calls, cuts, differ = [0], [0], []

    def both(c, units=(), deadline=None):
        got = simplify(c, units, deadline)
        want = _simplify_with_probes(c, units)
        calls[0] += 1
        cuts[0] += len(set(got[1]) & _looked_up(units))
        # the same clause, and c itself exactly when nothing applied
        if got != want or (got[0] is c) is not (want[0] is c):
            differ.append((c, got, want))
        return got

    def counted_cuts(unit, l):
        found = real_cuts(unit, l)
        cuts[0] += found
        return found
    real_cuts = calculus.cuts
    monkeypatch.setattr(saturation, "simplify", both)
    monkeypatch.setattr(calculus, "cuts", counted_cuts)
    expected = dict(line.split() for line in
                    open("problems/corpus/expected_status.txt"))
    paths = ["problems/sur_cantor.p"]
    paths += [f"problems/corpus/{name}" for name in sorted(expected)]
    for path in paths:
        prob = parse_problem(open(path).read(), path.rsplit("/", 1)[-1])
        if prob.logic_spec is not None:
            prob = embed(prob)
        assert saturate(prob, ProverConfig(time_limit=60)).status in (
            "Theorem", "ContradictoryAxioms", "Unsatisfiable")
    assert differ == []
    # 1,837 calls and 202 cuts when this was written; 1,449 calls and
    # 200 cuts, 120 of them by lookup, since the unit index
    assert calls[0] > 1000 and cuts[0] > 100


def test_simplify_never_rewrites_toward_flexible_head():
    # a unit equation whose small side is variable-headed must be ignored:
    # using it would undo extensionality progress
    F = free("F", fn(I, res=I))
    unit = Clause([Literal(app(f, app(f, a)), app(F, a), True)])
    c = Clause([plit(app(p, app(f, app(f, a))))])
    assert simplify(c, [(11, unit)]) == (c, ())


def test_head_of_on_eta_long_constant():
    assert head_of(canon(f)) is f


q = const("q", IO)
r = const("r", O)
X = free("X", I)


def _both_ways(c, pairs):
    """simplify by the index of `pairs`, checked against the plain scan of
    every unit in order."""
    out = simplify(c, UnitIndex(pairs))
    assert out == _simplify_with_probes(c, pairs)
    assert simplify(c, pairs) == out
    return out


def test_unit_index_keeps_the_first_unit_in_order():
    """The earliest unit that applies is used, whether it is found by
    lookup (a ground unit that cannot rewrite) or by the ordered scan
    (an open unit), with the same `used` order as a plain scan."""
    ground = Clause([plit(app(q, b), False)])
    open_unit = Clause([plit(app(q, X), False)])
    index = UnitIndex([(1, open_unit), (2, ground)])
    assert [e[2] for e in index.ground.values()] == [2]
    assert index.scan == [(1, open_unit)]
    assert list(index) == [(1, open_unit), (2, ground)]
    # both cut [q b]^tt: the first in order is used
    c = Clause([plit(app(q, b)), plit(app(p, a))])
    for pairs, uid in (([(1, open_unit), (2, ground)], 1),
                       ([(2, ground), (1, open_unit)], 2)):
        assert _both_ways(c, pairs) == (Clause([plit(app(p, a))]), (uid,))
    # each cuts its own literal: `used` follows the order of the units
    other = Clause([plit(app(p, X), False)])
    c = Clause([plit(app(q, b)), plit(app(p, a)), prop_literal(r, True)])
    rest = Clause([prop_literal(r, True)])
    assert _both_ways(c, [(1, other), (2, ground)]) == (rest, (1, 2))
    assert _both_ways(c, [(2, ground), (1, other)]) == (rest, (2, 1))
    # an earlier open equation rewrites the literal the ground unit
    # would cut; a later one comes too late
    eq = Clause([Literal(app(f, X), a, True)])
    cut_pfb = Clause([plit(app(p, app(f, b)), False)])
    c = Clause([plit(app(p, app(f, b)))])
    assert _both_ways(c, [(1, eq), (2, cut_pfb)]) \
        == (Clause([plit(app(p, a))]), (1,))
    assert _both_ways(c, [(2, cut_pfb), (1, eq)]) == (Clause([]), (2,))


def test_unit_index_lets_a_positive_ground_equation_rewrite():
    eq = Clause([Literal(app(f, a), b, True)])
    index = UnitIndex([(4, eq)])
    assert index.scan == [(4, eq)] and not index.ground
    c = Clause([plit(app(p, app(f, a))), prop_literal(r, True)])
    assert _both_ways(c, [(4, eq)]) \
        == (Clause([plit(app(p, b)), prop_literal(r, True)]), (4,))
    # and cuts its complement by identity, in either orientation
    for lit in (Literal(app(f, a), b, False), Literal(b, app(f, a), False)):
        assert _both_ways(Clause([lit, prop_literal(r, True)]), [(4, eq)]) \
            == (Clause([prop_literal(r, True)]), (4,))


def test_unit_index_never_contracts_a_unit_by_itself():
    for c in (Clause([Literal(app(f, a), b, True)]),
              Clause([Literal(app(f, a), b, False)]),
              Clause([plit(app(p, a), False)]),
              Clause([Literal(app(f, X), a, True)])):
        assert _both_ways(c, [(1, c)]) == (c, ())


def test_replay_contracts_by_the_index_of_the_unit_parents(monkeypatch):
    """The checker's `rewrite`/`simp` replay hands `simplify` the
    `UnitIndex` of the step's unit parents, in their recorded order, as
    the search hands it the index of P's units; among them are ground
    units it finds by lookup."""
    from ep_prover import replay
    from ep_prover.replay import replay_proof
    seen = []

    def spy(c, units=(), deadline=None):
        seen.append(units)
        return simplify(c, units, deadline)
    monkeypatch.setattr(replay, "simplify", spy)
    prob = embed(parse_problem(open(
        "problems/corpus/modal_s5_five.p").read(), "modal_s5_five.p"))
    res = saturate(prob, ProverConfig(time_limit=60))
    assert replay_proof(res, prob) == []
    steps = [d for d in res.records.values()
             if d.rule in ("rewrite", "simp")]
    seen.clear()
    complaints = replay.ProofChecker(res, prob).check(
        [res.records[i] for i in sorted(res.records)])
    assert not [m for m in complaints if " (rewrite)" in m or " (simp)" in m]
    assert len(seen) == len(steps) > 0
    for d, units in zip(steps, seen):
        assert type(units) is UnitIndex
        assert list(units) == [(i, res.records[i].clause)
                               for i in d.parents[1:]]
    assert any(units.ground for units in seen)
