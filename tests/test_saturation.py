"""Saturation loop: statuses, proof extraction, determinism."""

import gc
import random
import time

import pytest

from ep_prover import calculus, saturation
from ep_prover.clauses import Clause, Literal, prop_literal, subsumes
from ep_prover.calculus import _para_target, para_candidates
from ep_prover.cnf import OutOfTime, normalize
from ep_prover.saturation import (
    Derived, ProverConfig, Saturation, _needs_cnf, extract_proof, saturate,
)
from ep_prover.unification import pre_unify
from ep_prover.terms import (
    FALSE, I, O, TRUE, Signature, app, bound, canon, conj, const, disj,
    equality, exists, fn, forall, free, iff, implies, neg, replace_at,
    subterm_positions,
)
from ep_prover.tptp import AnnotatedFormula, Problem, parse_problem
from ep_prover.modal import embed
from ep_prover.replay import replay_proof

from test_acceptance import _ATOMS, _gen_formula, _to_term


def prove(text, timeout=30.0, **kw):
    prob = parse_problem(text, "t.p")
    return saturate(prob, ProverConfig(time_limit=timeout, **kw))


def test_modus_ponens_chain():
    res = prove("""
    thf(p_type, type, (p: $o)). thf(q_type, type, (q: $o)).
    thf(r_type, type, (r: $o)).
    thf(a1, axiom, p).
    thf(a2, axiom, ( p => q )).
    thf(a3, axiom, ( q => r )).
    thf(c, conjecture, r).
    """)
    assert res.status == "Theorem"
    proof = extract_proof(res.records, res.empty_id)
    assert proof[-1].clause is not None
    rules = {d.rule for d in proof}
    assert "neg_conjecture" in rules and "cnf" in rules


def test_counter_satisfiable_conjecture():
    res = prove("""
    thf(p_type, type, (p: $o)). thf(q_type, type, (q: $o)).
    thf(a1, axiom, p).
    thf(c, conjecture, q).
    """)
    assert res.status == "CounterSatisfiable"


def test_weight_cut_prevents_a_saturation_verdict():
    # p @ t |- p @ t with t = 120 nested (g @ _ @ a): both input clauses
    # exceed the clause-weight cut, so the search cannot claim saturation
    t = "a"
    for _ in range(120):
        t = f"( g @ {t} @ a )"
    res = prove(f"""
    thf(g_type, type, (g: $i > $i > $i)).
    thf(a_type, type, (a: $i)).
    thf(p_type, type, (p: $i > $o)).
    thf(ax, axiom, ( p @ {t} )).
    thf(c, conjecture, ( p @ {t} )).
    """)
    assert res.status == "GaveUp"


def test_satisfiable_axioms_only():
    res = prove("""
    thf(p_type, type, (p: $o)).
    thf(a1, axiom, p).
    """)
    assert res.status == "Satisfiable"


def test_unsatisfiable_axioms_only():
    res = prove("""
    thf(p_type, type, (p: $o)).
    thf(a1, axiom, p).
    thf(a2, axiom, (~ p)).
    """)
    assert res.status == "Unsatisfiable"


def test_contradictory_axioms_with_unrelated_conjecture():
    res = prove("""
    thf(p_type, type, (p: $o)). thf(q_type, type, (q: $o)).
    thf(a1, axiom, p).
    thf(a2, axiom, (~ p)).
    thf(c, conjecture, q).
    """)
    assert res.status == "ContradictoryAxioms"


def test_theorem_when_refutation_uses_conjecture():
    res = prove("""
    thf(p_type, type, (p: $o)).
    thf(a1, axiom, p).
    thf(c, conjecture, p).
    """)
    assert res.status == "Theorem"


def test_timeout_reported():
    res = prove(open("problems/inj_cantor.p").read(), timeout=0.5,
                enable_inj=False)
    assert res.status == "Timeout"


def test_conjecture_ancestry_tracked():
    res = prove("""
    thf(p_type, type, (p: $o)).
    thf(c, conjecture, ( p | ~ p )).
    """)
    assert res.status == "Theorem"
    assert any(d.rule == "neg_conjecture"
               for d in extract_proof(res.records, res.empty_id))


def test_extract_proof_is_topologically_ordered():
    res = prove("""
    thf(p_type, type, (p: $i > $o)).
    thf(a1, axiom, ( ! [X: $i]: ( p @ X ) )).
    thf(c, conjecture, ( ? [X: $i]: ( p @ X ) )).
    """)
    proof = extract_proof(res.records, res.empty_id)
    seen = set()
    for d in proof:
        assert all(pid in seen for pid in d.parents)
        seen.add(d.id)
    assert proof[-1].id == res.empty_id


def test_extract_proof_of_a_long_chain_with_a_diamond():
    # 1 <- 2 <- ... <- 3000, except that 101 and 102 both derive from 100
    # and 103 from both of them; 50 derives from 49 but leads nowhere
    parents = {i: (i - 1,) for i in range(2, 3001)}
    parents[1] = ()
    parents[102] = (100,)
    parents[103] = (102, 101)
    parents[51] = (49,)
    records = {i: Derived(i, "simp", "thm", ps) for i, ps in parents.items()}
    proof = extract_proof(records, 3000)
    ids = [d.id for d in proof]
    assert ids == sorted(set(range(1, 3001)) - {50})
    position = {i: k for k, i in enumerate(ids)}
    assert all(position[p] < position[d.id]
               for d in proof for p in d.parents)


def test_unit_entering_p_is_used_by_the_next_simplification():
    # p is picked first; the next pick, ~p | q | r, is cut by it
    res = prove("""
    thf(p_type, type, (p: $o)). thf(q_type, type, (q: $o)).
    thf(r_type, type, (r: $o)).
    thf(a1, axiom, p).
    thf(a2, axiom, ( ~ p | q | r )).
    """)
    assert res.status == "Satisfiable"
    unit = next(d.id for d in res.records.values()
                if d.rule == "cnf" and len(d.clause) == 1)
    cuts = [d for d in res.records.values() if d.rule == "rewrite"]
    assert any(unit in d.parents and len(d.clause) == 2 for d in cuts)


def test_timeout_inside_clausification():
    # b0 <=> (b1 <=> ... b14) has 2^14 clauses without naming
    atoms = [const(f"b{i}", O) for i in range(15)]
    f = atoms[-1]
    for x in reversed(atoms[:-1]):
        f = iff(x, f)
    sig = Signature()
    for x in atoms:
        sig.declare(x.name, O)
    prob = Problem(sig, [AnnotatedFormula("f", "axiom", canon(f))],
                   None, "chain.p")
    t0 = time.monotonic()
    res = saturate(prob, ProverConfig(time_limit=1e-3, naming_threshold=0))
    assert res.status == "Timeout"
    assert time.monotonic() - t0 < 2
    assert not any(d.rule == "cnf" for d in res.records.values())


def test_timeout_inside_forward_simplification(monkeypatch):
    sat = Saturation(parse_problem("""
    thf(p_type, type, (p: $o)). thf(q_type, type, (q: $o)).
    thf(a1, axiom, ( p | q )).
    """, "t.p"), ProverConfig(time_limit=30))
    real = saturation.simplify

    def slow(c, units=(), deadline=None):
        if sat.picks:     # the given clause's forward simplification
            raise OutOfTime
        return real(c, units, deadline)
    monkeypatch.setattr(saturation, "simplify", slow)
    assert sat.run().status == "Timeout"


def test_definition_expansion_recorded():
    res = prove("""
    thf(p_type, type, (p: $o)).
    thf(d_type, type, (d: $o)).
    thf(d_def, definition, ( d = ( p | ~ p ) )).
    thf(c, conjecture, d).
    """)
    assert res.status == "Theorem"
    assert any(d.rule == "defexp_and_simp_and_etaexpand"
               for d in res.records.values())


def test_exhaustive_o_instantiation_in_preprocess():
    res = prove("""
    thf(c, conjecture, ( ? [P: $o]: ( P & ~ ~ P ) )).
    """)
    assert res.status == "Theorem"
    assert any(d.rule == "instantiate" for d in res.records.values())


def test_prim_subst_depth_limited():
    prob = parse_problem(open("problems/sur_cantor.p").read(), "s.p")
    sat = Saturation(prob, ProverConfig(time_limit=30, ps_limit=3))
    sat.run()
    assert all(d.ps_depth <= 3 for d in sat.records.values())


def test_determinism_identical_records():
    text = open("problems/sur_cantor.p").read()
    r1 = prove(text)
    r2 = prove(text)
    assert r1.status == r2.status == "Theorem"
    assert r1.empty_id == r2.empty_id
    assert set(r1.records) == set(r2.records)
    for i in r1.records:
        assert r1.records[i].rule == r2.records[i].rule
        assert r1.records[i].parents == r2.records[i].parents
        assert r1.records[i].clause == r2.records[i].clause


def test_eager_unification_emits_solved_clause():
    res = prove("""
    thf(f_type, type, (f: $i > $i)).
    thf(a_type, type, (a: $i)).
    thf(c, conjecture, ( ? [X: $i]: ( ( f @ X ) = ( f @ a ) ) )).
    """)
    assert res.status == "Theorem"
    assert any(d.rule in ("pre_uni", "pattern_uni")
               for d in res.records.values())


def test_normalize_returns_no_clause_that_needs_cnf():
    # insert_new renormalizes every clause for which _needs_cnf holds and
    # records each result as a new clause; a result that needed CNF again
    # would come back forever
    rng = random.Random(13)
    a, b = const("a", I), const("b", I)
    qi = const("qi", fn(I, res=O))
    ps = [const("p", O), const("q", O), free("P", O), TRUE, FALSE]
    x = bound(0, I)

    def formula(depth, qdepth=0):
        roll = rng.randrange(9)
        if depth == 0 or roll == 0:
            leaves = ps + [app(qi, a), app(qi, free("X", I))] \
                + [app(qi, bound(k, I)) for k in range(qdepth)]
            return rng.choice(leaves)
        def sub():
            return formula(depth - 1, qdepth)

        if roll == 1:
            return neg(sub())
        if roll in (2, 3):
            return rng.choice((disj, conj, implies, iff))(sub(), sub())
        if roll == 4:
            quant = rng.choice((forall, exists))
            return quant(I, disj(app(qi, x), formula(depth - 1, qdepth + 1)))
        if roll == 5:
            return equality(rng.choice((a, b)), rng.choice((a, b)))
        if roll == 6:
            return equality(sub(), sub())
        return rng.choice(ps)

    def literal():
        if rng.random() < 0.2:
            s = rng.choice((a, b, free("X", I)))
            return Literal(s, rng.choice((s, a, b)), rng.random() < 0.5)
        if rng.random() < 0.2:
            return Literal(formula(2), formula(2), rng.random() < 0.5)
        return prop_literal(formula(3), rng.random() < 0.5)

    needing = 0
    for _ in range(300):
        c = Clause([literal() for _ in range(rng.randint(1, 3))])
        needing += _needs_cnf(c)
        for threshold in (16, 2, 0):
            out = normalize(c, Signature(), threshold)
            assert not any(_needs_cnf(nc) for nc in out), c
    assert needing > 150


# ---------------------------------------------------------------------------
# A constraint set outside the pattern fragment is pre-unified when its
# clause is picked, not when the clause is made
# ---------------------------------------------------------------------------

def _counting_pre_unify(monkeypatch, sat):
    """Patch `saturation.pre_unify` to note the pick count of `sat` at
    each call; returns the list of notes."""
    at_pick = []

    def counted(*args, **kw):
        at_pick.append(sat.picks)
        return pre_unify(*args, **kw)
    monkeypatch.setattr(saturation, "pre_unify", counted)
    return at_pick


@pytest.mark.parametrize("name", ["sur_cantor", "inj_cantor"])
def test_pre_unify_runs_at_most_once_per_pick(monkeypatch, name):
    prob = parse_problem(open(f"problems/{name}.p").read(), f"{name}.p")
    sat = Saturation(prob, ProverConfig(time_limit=60))
    at_pick = _counting_pre_unify(monkeypatch, sat)
    assert sat.run().status == "Theorem"
    # a clause made only of constraints is solved when it is made, any
    # other constraint set outside the pattern fragment when its clause
    # is picked
    assert 0 < len(at_pick) <= sat.picks


@pytest.mark.parametrize("name", ["sur_cantor", "inj_cantor"])
def test_every_deferred_clause_is_in_u_at_each_pick(monkeypatch, name):
    select = Saturation._select
    deferred = []

    def checked(self):
        assert set(self.deferred) <= set(self.U)
        deferred.append(len(self.deferred))
        return select(self)
    monkeypatch.setattr(Saturation, "_select", checked)
    prob = parse_problem(open(f"problems/{name}.p").read(), f"{name}.p")
    assert saturate(prob, ProverConfig(time_limit=60)).status == "Theorem"
    assert max(deferred) > 0


def _deferral_run():
    """A run with p, f and a declared, its deadline set, and the clause
    {[p a]^tt, [F a ~ f a]^ff}, whose constraint is outside the pattern
    fragment."""
    prob = parse_problem("""
    thf(p_type, type, (p: $i > $o)).
    thf(f_type, type, (f: $i > $i)).
    thf(a_type, type, (a: $i)).
    """, "t.p")
    sat = Saturation(prob, ProverConfig(time_limit=30))
    sat.deadline = time.monotonic() + 30
    sig = sat.sig
    p, f, a = (const(n, sig.constants[n]) for n in ("p", "f", "a"))
    F = free("F", fn(I, res=I))
    c = Clause([prop_literal(canon(app(p, a)), True),
                Literal(canon(app(F, a)), canon(app(f, a)), False)])
    return sat, c


def test_a_kept_clause_waits_for_its_pick(monkeypatch):
    sat, c = _deferral_run()
    at_pick = _counting_pre_unify(monkeypatch, sat)
    d = sat.record("cnf", clause=c)
    sat.insert_new(d)
    assert sat.U == [d.id] and list(sat.deferred) == [d.id]
    assert at_pick == []
    sat._pre_unify_given(d.id)
    assert at_pick == [0] and sat.deferred == {}
    assert any(r.rule == "pre_uni" and r.parents == (d.id,)
               for r in sat.records.values())


def test_a_subsumed_clause_is_never_pre_unified(monkeypatch):
    sat, c = _deferral_run()
    at_pick = _counting_pre_unify(monkeypatch, sat)
    X = free("X", I)
    p = const("p", sat.sig.constants["p"])
    unit = sat.record("cnf", clause=Clause([prop_literal(canon(app(p, X)),
                                                          True)]))
    sat.P.append(unit.id)
    d = sat.record("cnf", clause=c)
    sat.insert_new(d)
    # the clause waits in U like any other: P is checked at the pick
    assert sat.U == [d.id] and list(sat.deferred) == [d.id]
    # the problem has no formulas, so the run picks only this clause and
    # discards it; P keeps a non-ground clause, so the run gives up
    assert sat.run().status == "GaveUp"
    assert sat.picks == 1 and sat.P == [unit.id]
    assert sat.U == [] and sat.deferred == {} and at_pick == []


def test_a_picked_clause_solves_its_deferred_constraint():
    """The proof goes through the pre-unifier of an input clause that
    has a literal besides its constraint, so it was solved at the
    clause's pick."""
    prob = parse_problem("""
    thf(f_type, type, (f: $i > $i)).
    thf(q_type, type, (q: $i > $o)).
    thf(a_type, type, (a: $i)).
    thf(b_type, type, (b: $i)).
    thf(ax, axiom, ![F: $i > $i]: (((F @ a) = (f @ a)) => (q @ (F @ b)))).
    thf(c, conjecture, q @ (f @ b)).
    """, "t.p")
    res = saturate(prob, ProverConfig(time_limit=30))
    assert res.status == "Theorem"
    proof = extract_proof(res.records, res.empty_id)
    (step,) = [d for d in proof if d.rule == "pre_uni"]
    (parent,) = step.parents
    assert len(res.records[parent].clause.literals) == 2
    assert replay_proof(res, prob) == []


# ---------------------------------------------------------------------------
# Skipping the factoring of two ground propositional literals leaves the
# search as it was
# ---------------------------------------------------------------------------

def _eqfac_every_pair(c):
    """`eqfac_candidates` as it was before ground propositional pairs were
    skipped: every same-polarity pair of literals of the same side type."""
    n = len(c.literals)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            li, lj = c.literals[i], c.literals[j]
            if li.pos is not lj.pos or li.lhs.ty is not lj.lhs.ty:
                continue
            rest = [m for k, m in enumerate(c.literals) if k != j]
            for swap_i in (False, True):
                s, t = (li.rhs, li.lhs) if swap_i else (li.lhs, li.rhs)
                for swap_j in (False, True):
                    u, v = (lj.rhs, lj.lhs) if swap_j else (lj.lhs, lj.rhs)
                    yield Clause(rest + [Literal(s, u, False),
                                         Literal(t, v, False)])


def _given_clauses(monkeypatch, make_problem, config, name, enumerator):
    """Status and the clauses entering P, in order, of one run with
    `enumerator` in place of the calculus function `name`."""
    entered = []
    generate = Saturation._generate

    def spy(self, gid):
        entered.append(self.records[gid].clause)
        return generate(self, gid)
    with monkeypatch.context() as m:
        # the search calls eqfac_candidates itself, and para_candidates
        # through paramod_ordered
        for module in (saturation, calculus):
            if hasattr(module, name):
                m.setattr(module, name, enumerator)
        m.setattr(Saturation, "_generate", spy)
        status = Saturation(make_problem(), config).run().status
    return status, entered


def _assert_same_search(monkeypatch, make_problem, config, name, old,
                        new=None):
    """The run with the old enumerator and the run with `new` (by default
    the current one) pick the same clauses and end in the same status."""
    old_run = _given_clauses(monkeypatch, make_problem, config, name, old)
    new_run = _given_clauses(monkeypatch, make_problem, config, name,
                             new or getattr(calculus, name))
    assert new_run == old_run
    return new_run[1]


def _seeded_problems():
    """Makers of 300 seeded propositional problems (seed 11)."""
    rng = random.Random(11)
    for _ in range(300):
        term = canon(_to_term(_gen_formula(rng, 8)))

        def make_problem(term=term):
            sig = Signature()
            for c in _ATOMS:
                sig.declare(c.name, O)
            return Problem(sig, [AnnotatedFormula("f", "axiom", term)],
                           None, "sample.p")
        yield make_problem


def _corpus_problems():
    """Makers of the corpus problems, modal ones embedded."""
    expected = dict(line.split() for line in
                    open("problems/corpus/expected_status.txt"))
    for name in sorted(expected):
        text = open(f"problems/corpus/{name}").read()

        def make_problem(text=text, name=name):
            prob = parse_problem(text, name)
            return embed(prob) if prob.logic_spec is not None else prob
        yield make_problem


_SWEEP_CONFIG = ProverConfig(time_limit=30, naming_threshold=10 ** 9)


def test_skipped_factorings_leave_propositional_searches_unchanged(
        monkeypatch):
    factored = 0
    for make_problem in _seeded_problems():
        given = _assert_same_search(monkeypatch, make_problem, _SWEEP_CONFIG,
                                    "eqfac_candidates", _eqfac_every_pair)
        factored += any(len(c) > 1 for c in given)
    # most searches pick a clause with a pair of literals to factor
    assert factored > 100


def test_skipped_factorings_leave_corpus_searches_unchanged(monkeypatch):
    for make_problem in _corpus_problems():
        _assert_same_search(monkeypatch, make_problem,
                            ProverConfig(time_limit=60),
                            "eqfac_candidates", _eqfac_every_pair)


# ---------------------------------------------------------------------------
# Skipping paramodulation between two different ground atoms leaves the
# search as it was
# ---------------------------------------------------------------------------

def _para_every_position(c, d):
    """`para_candidates` as it was before a ground atom [p]^tt stopped
    rewriting a different ground atom [q]^ff as a whole."""
    for j, lit_d in enumerate(d.literals):
        if not lit_d.pos:
            continue
        rest_d = d.literals[:j] + d.literals[j + 1:]
        for i, lit_c in enumerate(c.literals):
            if c is d and i == j:
                continue
            if lit_c.pos and lit_c.is_shorthand and lit_d.is_shorthand:
                continue
            rest = [m for k, m in enumerate(c.literals) if k != i]
            rest.extend(rest_d)
            for swap in (False, True):
                l, r = (lit_d.rhs, lit_d.lhs) if swap \
                    else (lit_d.lhs, lit_d.rhs)
                if l is TRUE or l is FALSE:
                    continue
                for side in (0, 1):
                    s, t = (lit_c.lhs, lit_c.rhs) if side == 0 \
                        else (lit_c.rhs, lit_c.lhs)
                    if side == 1 and s is lit_c.lhs:
                        continue
                    for pi, sub in subterm_positions(s):
                        if sub.ty is not l.ty or not _para_target(sub):
                            continue
                        yield Clause([Literal(replace_at(s, pi, r), t,
                                              lit_c.pos)]
                                     + rest + [Literal(sub, l, False)])


def _unordered(monkeypatch):
    """Make every run use the unordered calculus, which still serves every
    problem that is not ground propositional: the differential tests of
    paramodulation compare two unordered enumerators, on problems that
    would otherwise resolve on maximal atoms only."""
    monkeypatch.setattr(saturation, "ordered_resolution",
                        lambda clauses: False)


def _para_counting_skips(skipped):
    """`para_candidates` that adds to skipped[0] the conclusions it leaves
    out against `_para_every_position`."""
    def counted(c, d):
        out = list(para_candidates(c, d))
        skipped[0] += sum(1 for _ in _para_every_position(c, d)) - len(out)
        return iter(out)
    return counted


def test_skipped_paramodulants_leave_propositional_searches_unchanged(
        monkeypatch):
    _unordered(monkeypatch)
    fired = 0
    for make_problem in _seeded_problems():
        skipped = [0]
        _assert_same_search(monkeypatch, make_problem, _SWEEP_CONFIG,
                            "para_candidates", _para_every_position,
                            _para_counting_skips(skipped))
        fired += skipped[0] > 0
    # most searches paramodulate a ground atom into another one
    assert fired > 100


def test_skipped_paramodulants_leave_corpus_searches_unchanged(monkeypatch):
    _unordered(monkeypatch)
    for make_problem in _corpus_problems():
        _assert_same_search(monkeypatch, make_problem,
                            ProverConfig(time_limit=60),
                            "para_candidates", _para_every_position)


# ---------------------------------------------------------------------------
# Leaving out the literals that are false by construction leaves the search
# as it was
# ---------------------------------------------------------------------------

def _para_with_trivial_literals(c, d):
    """`para_candidates` as it was before its conclusions left out the
    rewritten literal [t ~ t]^ff and the constraint [l ~ l]^ff, which
    the saturation loop then renormalized away."""
    for j, lit_d in enumerate(d.literals):
        if not lit_d.pos:
            continue
        rest_d = d.literals[:j] + d.literals[j + 1:]
        for i, lit_c in enumerate(c.literals):
            if c is d and i == j:
                continue
            if lit_c.pos and lit_c.is_shorthand and lit_d.is_shorthand:
                continue
            skip_root = lit_c.is_shorthand and lit_d.is_shorthand \
                and not lit_c.lhs.fvs and not lit_d.lhs.fvs \
                and lit_c.lhs is not lit_d.lhs
            rest = [m for k, m in enumerate(c.literals) if k != i]
            rest.extend(rest_d)
            for swap in (False, True):
                l, r = (lit_d.rhs, lit_d.lhs) if swap \
                    else (lit_d.lhs, lit_d.rhs)
                if l is TRUE or l is FALSE:
                    continue
                for side in (0, 1):
                    s, t = (lit_c.lhs, lit_c.rhs) if side == 0 \
                        else (lit_c.rhs, lit_c.lhs)
                    if side == 1 and s is lit_c.lhs:
                        continue
                    for pi, sub in subterm_positions(s):
                        if sub.ty is not l.ty or not _para_target(sub):
                            continue
                        if skip_root and sub is s:
                            continue
                        yield Clause([Literal(replace_at(s, pi, r), t,
                                              lit_c.pos)]
                                     + rest + [Literal(sub, l, False)])


def test_para_yields_the_old_conclusions_as_renormalization_left_them():
    """Pair by pair over the initial clauses of 40 seeded problems, each
    conclusion normalizes as the old one did, and is the old one where
    that needed no renormalization.  `para_candidates` without `minted`
    is the unordered calculus, which these problems would not run on."""
    sig = Signature()

    def normal(x):
        return normalize(x, sig, 10 ** 9) if _needs_cnf(x) else {x}
    checked = 0
    for make_problem in list(_seeded_problems())[:40]:
        sat = Saturation(make_problem(), _SWEEP_CONFIG)
        sat.preprocess()
        clauses = [d.clause for d in sat.records.values()
                   if d.clause is not None and not _needs_cnf(d.clause)]
        for c in clauses:
            for d in clauses:
                old = list(_para_with_trivial_literals(c, d))
                new = list(para_candidates(c, d))
                assert len(new) == len(old)
                for x, y in zip(old, new):
                    assert normal(y) == normal(x)
                    if not _needs_cnf(x):
                        assert y == x
                    checked += 1
    assert checked > 1000


def test_clean_paramodulants_leave_propositional_searches_unchanged(
        monkeypatch):
    _unordered(monkeypatch)
    resolvents = 0
    for make_problem in _seeded_problems():
        _assert_same_search(monkeypatch, make_problem, _SWEEP_CONFIG,
                            "para_candidates", _para_with_trivial_literals)
        records = saturate(make_problem(), _SWEEP_CONFIG).records
        assert not any(d.rule == "cnf"
                       and records[d.parents[0]].rule == "paramod_ordered"
                       for d in records.values())
        resolvents += sum(d.rule == "paramod_ordered"
                          for d in records.values())
    # 380 when this was written, each renormalized as a `cnf` step before
    assert resolvents > 300


def test_clean_paramodulants_leave_corpus_searches_unchanged(monkeypatch):
    _unordered(monkeypatch)
    for make_problem in _corpus_problems():
        _assert_same_search(monkeypatch, make_problem,
                            ProverConfig(time_limit=60),
                            "para_candidates", _para_with_trivial_literals)


# ---------------------------------------------------------------------------
# Forward subsumption by P is checked when a clause is picked, not when it
# is made
# ---------------------------------------------------------------------------

def test_no_subsumption_check_at_intake(monkeypatch):
    insert_new = Saturation.insert_new
    depth, at_intake, calls = [0], [0], [0]

    def tracked(self, d):
        depth[0] += 1
        try:
            return insert_new(self, d)
        finally:
            depth[0] -= 1

    def counted(c, d):
        calls[0] += 1
        at_intake[0] += depth[0] > 0
        return subsumes(c, d)
    monkeypatch.setattr(Saturation, "insert_new", tracked)
    monkeypatch.setattr(saturation, "subsumes", counted)
    for label, make_problem in _benchmark_problems():
        res = saturate(make_problem(), ProverConfig(time_limit=60))
        assert res.status in ("Theorem", "ContradictoryAxioms"), label
    assert calls[0] > 0 and at_intake[0] == 0


_PENDING = object()


def test_a_pick_is_discarded_exactly_when_p_subsumes_it(monkeypatch):
    """Each pick that survives contraction and is not the run's last
    enters P exactly when no clause of P at that pick subsumes it."""
    select, contract = Saturation._select, Saturation._contract
    generate = Saturation._generate
    discarded = 0
    for label, make_problem in _benchmark_problems():
        picks, entered = [], set()

        def picked(self):
            gid = select(self)
            # [picked id, P at the pick, its contracted record]
            picks.append([gid, list(self.P), _PENDING])
            return gid

        def contracted(self, d):
            out = contract(self, d)
            if picks and picks[-1][2] is _PENDING:
                # the first contraction after a pick is that of the pick
                picks[-1][2] = out
            return out

        def generated(self, gid):
            entered.add(gid)
            return generate(self, gid)
        with monkeypatch.context() as m:
            m.setattr(Saturation, "_select", picked)
            m.setattr(Saturation, "_contract", contracted)
            m.setattr(Saturation, "_generate", generated)
            res = saturate(make_problem(), ProverConfig(time_limit=60))
        assert res.status in ("Theorem", "ContradictoryAxioms"), label
        for gid, P, g in picks[:-1]:
            if g is None:
                continue
            subsumed = any(subsumes(res.records[p].clause, g.clause)
                           for p in P)
            assert subsumed is (g.id not in entered), (label, gid)
            discarded += subsumed
    # 13 when this was written
    assert discarded > 0


# ---------------------------------------------------------------------------
# A run allocates no reference cycles and pauses the cyclic collector only
# while it runs
# ---------------------------------------------------------------------------

def _benchmark_problems():
    """(label, maker) of the 27 benchmark runs: the corpus, both Cantor
    problems, contradictory.p and becker.p under both S5 encodings."""
    expected = dict(line.split() for line in
                    open("problems/corpus/expected_status.txt"))
    for name, make in zip(sorted(expected), _corpus_problems()):
        yield name, make
    for name in ("sur_cantor.p", "inj_cantor.p", "contradictory.p"):
        text = open(f"problems/{name}").read()
        yield name, lambda text=text, name=name: parse_problem(text, name)
    text = open("problems/becker.p").read()
    for mode in ("relational", "universal"):
        yield (f"becker.p {mode}",
               lambda mode=mode: embed(parse_problem(text, "becker.p"), mode))


@pytest.mark.slow
def test_a_run_leaves_no_cyclic_garbage():
    """With the collector off throughout, nothing a run drops is left for
    it: reference counting has freed it all."""
    was_enabled = gc.isenabled()
    found = {}
    try:
        for label, make_problem in _benchmark_problems():
            prob = make_problem()
            gc.disable()
            gc.collect()
            res = saturate(prob, ProverConfig(time_limit=60))
            found[label] = gc.collect()
            assert res.status in ("Theorem", "ContradictoryAxioms"), label
    finally:
        if was_enabled:
            gc.enable()
    assert len(found) == 27
    assert {k: n for k, n in found.items() if n} == {}


_SAT_TEXT = """
thf(p_type, type, (p: $o)). thf(q_type, type, (q: $o)).
thf(a1, axiom, ( p | q )).
"""


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collectors_state(monkeypatch, enabled):
    real = saturation.simplify
    inside = []

    def watched(c, units=(), deadline=None):
        inside.append(gc.isenabled())
        return real(c, units, deadline)

    def failing(c, units=(), deadline=None):
        raise RuntimeError("simplify failed")

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setattr(saturation, "simplify", watched)
        assert prove("""
        thf(p_type, type, (p: $o)). thf(a1, axiom, p).
        thf(c, conjecture, p).
        """).status == "Theorem"
        assert inside and not any(inside)
        assert gc.isenabled() is enabled
        assert prove(_SAT_TEXT, timeout=-1).status == "Timeout"
        assert gc.isenabled() is enabled
        monkeypatch.setattr(saturation, "simplify", failing)
        with pytest.raises(RuntimeError, match="simplify failed"):
            prove(_SAT_TEXT)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
