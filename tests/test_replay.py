"""The independent proof replay checker."""

import glob

import pytest

from ep_prover.terms import (
    FALSE, O, Signature, TRUE, app, bound, canon, const, fn, free, I, lam,
    neg, pi_const, substitute,
)
from ep_prover.clauses import (
    EMPTY_CLAUSE, Clause, Literal, alpha_key, prop_literal,
)
from ep_prover.cnf import normalize
from ep_prover.modal import embed
from ep_prover.replay import ProofChecker, ground_step_valid, replay_proof
from ep_prover.saturation import (
    Derived, ProverConfig, Result, extract_proof, saturate,
)
from ep_prover.tptp import (
    AnnotatedFormula, Problem, RULE_VOCABULARY, parse_problem, rule_status,
)


def run(path, timeout=30.0):
    prob = parse_problem(open(path).read(), path.rsplit("/", 1)[-1])
    res = saturate(prob, ProverConfig(time_limit=timeout))
    return prob, res


def test_valid_proof_replays_cleanly():
    prob, res = run("problems/sur_cantor.p")
    assert (res.status, res.ordered) == ("Theorem", False)
    assert replay_proof(res, prob) == []


def test_replay_uses_the_runs_naming_threshold():
    # and its decision to resolve on maximal atoms only
    path = "problems/corpus/prop_equiv_comm.p"
    prob = parse_problem(open(path).read(), "prop_equiv_comm.p")
    res = saturate(prob, ProverConfig(time_limit=30, naming_threshold=2))
    assert (res.status, res.ordered) == ("Theorem", True)
    assert any(d.rule == "cnf"
               for d in extract_proof(res.records, res.empty_id))
    assert replay_proof(res, prob) == []


def test_every_record_of_every_run_replays():
    """Not only the proof: every clause the clausifier and the rules made
    on the way, with the run's own settings, so the ordered runs are
    replayed by the ordered calculus.  A `paramod_ordered` record with
    free variables is left out: the orientation of a literal depends on
    variable names, so its replay rejects some valid records.  Every
    ground one is replayed."""
    paths = sorted(glob.glob("problems/*.p")
                   + glob.glob("problems/corpus/*.p"))
    assert len(paths) == 26
    cnf_records = ground_para = 0
    ordered = []
    for path in paths:
        prob = parse_problem(open(path).read(), path.rsplit("/", 1)[-1])
        if prob.logic_spec is not None:
            prob = embed(prob, "relational")
        res = saturate(prob, ProverConfig(time_limit=60))
        assert res.empty_id is not None, path
        records = [res.records[i] for i in sorted(res.records)]
        cnf_records += sum(d.rule == "cnf" for d in records)
        if res.ordered:
            ordered.append(prob.name)
        checker = ProofChecker(res, prob)
        open_para = {f"{d.id} (paramod_ordered)" for d in records
                     if d.rule == "paramod_ordered" and d.clause.free_vars()}
        complaints = [c for c in checker.check(records)
                      if c.split(":")[0] not in open_para]
        assert complaints == [], path
        ground_para += sum(d.rule == "paramod_ordered"
                           and not d.clause.free_vars() for d in records)
    # 674 while each ground resolvent was renormalized as a `cnf` step,
    # 235 while every kept constraint set was pre-unified at intake
    assert cnf_records == 186
    # ground resolvents and ground paramodulants, all replayed
    assert ground_para == 14
    # the ground propositional runs, which resolve on maximal atoms only
    assert ordered == [
        "contradictory.p", "bool_ext_simple.p", "prop_equiv_comm.p",
        "prop_excluded_middle.p", "prop_k.p", "prop_peirce.p"]


PQR = """
thf(p_t, type, p: $o). thf(q_t, type, q: $o). thf(r_t, type, r: $o).
thf(a1, axiom, ( p | r )). thf(a2, axiom, ( ~ p )).
thf(a3, axiom, ( ~ r | q )).
"""


def test_ordered_run_replays_resolution_on_maximal_atoms_only():
    # atoms rank p < q < r, so ordered resolution of {p | r} resolves on
    # r only: into {~r | q} it may, into {~p} it may not
    prob = parse_problem(PQR, "pqr.p")
    res = saturate(prob, ProverConfig(time_limit=30))
    assert (res.status, res.ordered) == ("Satisfiable", True)
    records = res.records
    by_clause = {d.clause: d.id for d in records.values() if d.rule == "cnf"}
    p, q, r = (const(x, O) for x in "pqr")

    def clause(*lits):
        return Clause([prop_literal(a, pos) for a, pos in lits])
    p_or_r = by_clause[clause((p, True), (r, True))]
    not_p = by_clause[clause((p, False))]
    not_r_or_q = by_clause[clause((r, False), (q, True))]
    good = _step(records, "paramod_ordered", (not_r_or_q, p_or_r),
                 clause=clause((p, True), (q, True)))
    bad = _step(records, "paramod_ordered", (not_p, p_or_r),
                clause=clause((r, True)))
    steps = [records[i] for i in sorted(records)]
    assert ProofChecker(res, prob).check(steps) == [
        f"{bad.id} (paramod_ordered): "
        "no paramod_ordered inference produces this clause"]
    # both steps are sound, and the unordered calculus draws both
    assert ground_step_valid([records[i].clause for i in bad.parents],
                             bad.clause)
    assert ProofChecker(_result(records), prob).check(steps) == []


def test_corrupted_clause_is_detected():
    prob, res = run("problems/sur_cantor.p")
    proof = extract_proof(res.records, res.empty_id)
    victim = next(d for d in proof if d.rule == "paramod_ordered")
    p = const("zzz", fn(I, res=O))
    a = const("zza", I)
    victim.clause = Clause([prop_literal(canon(app(p, a)), True)])
    checker = ProofChecker(res, prob)
    assert any(str(victim.id) in c for c in checker.check(proof))


def test_swapped_paramodulation_parents_are_detected():
    # the search records paramodulation as (into, from), and the checker
    # replays it in that direction only
    prob, res = run("problems/sur_cantor.p")
    proof = extract_proof(res.records, res.empty_id)
    (victim,) = [d for d in proof if d.rule == "paramod_ordered"]
    assert victim.id == 928
    into, frm = victim.parents
    assert (into, frm) == (441, 363)
    victim.parents = (frm, into)
    complaints = ProofChecker(res, prob).check(proof)
    assert complaints == ["928 (paramod_ordered): "
                          "no paramod_ordered inference produces this clause"]
    victim.parents = (frm,)
    complaints = ProofChecker(res, prob).check(proof)
    assert complaints == ["928 (paramod_ordered): "
                          "the parents are not the rule's premises"]


def test_missing_parent_is_a_complaint():
    p = const("p", O)
    prob = _axiom(Signature(), "m.p", p)
    records = {}
    _input(records, prob)
    _step(records, "cnf", (99,), clause=Clause([prop_literal(p, True)]))
    checker = ProofChecker(_result(records), prob)
    assert checker.check(list(records.values())) \
        == ["2: parent 99 not recorded"]


def test_unknown_rule_is_detected():
    prob, res = run("problems/sur_cantor.p")
    proof = extract_proof(res.records, res.empty_id)
    proof[-1].rule = "made_up_rule"
    checker = ProofChecker(res, prob)
    assert any("unknown rule" in c for c in checker.check(proof))


def test_rewrite_and_simp_steps_are_told_apart_by_their_unit_parents():
    # the search records a contraction as rewrite exactly when a unit
    # rewrote or cut the clause, and lists those units as parents
    prob, res = run("problems/corpus/prop_peirce.p")
    proof = extract_proof(res.records, res.empty_id)
    simp, rewrite = (d for d in proof if d.rule in ("simp", "rewrite"))
    assert (simp.rule, len(simp.parents)) == ("simp", 1)
    assert (rewrite.rule, len(rewrite.parents)) == ("rewrite", 2)
    assert ProofChecker(res, prob).check(proof) == []
    rewrite.rule = "simp"
    assert ProofChecker(res, prob).check(proof) \
        == [f"{rewrite.id} (simp): a simp step with a unit parent"]
    rewrite.rule, simp.rule = "rewrite", "rewrite"
    assert ProofChecker(res, prob).check(proof) \
        == [f"{simp.id} (rewrite): a rewrite step without a unit parent"]


def test_every_rule_has_a_replay():
    assert set(ProofChecker.REPLAY) == set(RULE_VOCABULARY) | {"input"}


@pytest.mark.parametrize("rule", sorted(ProofChecker.REPLAY))
def test_a_step_off_its_rules_premises_is_a_complaint(rule):
    # a parent that holds neither a formula nor a clause lacks what every
    # rule reads of it; only an input and a negated conjecture of the
    # problem have no parents
    records = {}
    bare = _step(records, "cnf")
    cases = [(bare.id,)] if rule in ("input", "neg_conjecture") \
        else [(bare.id,), ()]
    checker = ProofChecker(_result(records),
                           Problem(Signature(), [], None, "m.p"))
    for parents in cases:
        d = _step(records, rule, parents,
                  clause=Clause([prop_literal(const("p", O), True)]))
        complaints = checker.check([bare, d])
        assert [c for c in complaints if c.startswith(f"{d.id} ")] \
            == [f"{d.id} ({rule}): the parents are not the rule's premises"]


def test_rule_without_replay_is_detected(monkeypatch):
    prob, res = run("problems/corpus/prop_k.p")
    proof = extract_proof(res.records, res.empty_id)
    monkeypatch.delitem(ProofChecker.REPLAY, proof[-1].rule)
    complaints = ProofChecker(res, prob).check(proof)
    assert f"{proof[-1].id}: no replay for rule {proof[-1].rule}" \
        in complaints


def test_blind_key_identifies_skolem_renamings():
    f1 = const("sk1", fn(I, res=O))
    f2 = const("sk2", fn(I, res=O))
    a = const("a", I)
    minted = {"sk1", "sk2"}
    c1 = Clause([prop_literal(canon(app(f1, a)), True)])
    c2 = Clause([prop_literal(canon(app(f2, a)), True)])
    assert alpha_key(c1, minted) == alpha_key(c2, minted)
    # but a non-minted constant is not blinded
    c3 = Clause([prop_literal(canon(app(const("g", fn(I, res=O)), a)), True)])
    assert alpha_key(c1, minted) != alpha_key(c3, minted)
    # a minted constant renames to a minted constant, not to a variable
    p = const("p", fn(I, res=O))
    s1, s2 = const("sk1", I), const("sk2", I)
    assert alpha_key(Clause([prop_literal(app(p, s1), True)]), minted) \
        != alpha_key(Clause([prop_literal(app(p, free("X", I)), True)]),
                     minted)
    # and the renaming may swap minted constants, but not merge them
    q = const("q", fn(I, I, res=O))

    def q_key(x, y):
        return alpha_key(Clause([prop_literal(app(q, x, y), True)]), minted)
    assert q_key(s1, s2) == q_key(s2, s1)
    assert q_key(s1, s1) != q_key(s1, s2)


def _result(records):
    """A result holding `records`, made with the default settings."""
    return Result("Theorem", records)


def _step(records, rule, parents=(), **fields):
    d = Derived(len(records) + 1, rule, rule_status(rule), parents, **fields)
    records[d.id] = d
    return d


def _axiom(sig, name, formula):
    """A problem `name` over `sig` whose one formula is the axiom ax."""
    return Problem(sig, [AnnotatedFormula("ax", "axiom", formula)], None,
                   name)


def _input(records, prob):
    """The record that states the last formula of `prob`, an axiom, as
    the search states it."""
    f = prob.formulas[-1]
    return _step(records, "input", formula=f.formula, role="axiom",
                 source=(prob.name, f.name))


def test_a_stated_formula_off_the_problem_is_a_complaint():
    """A record without parents must hold the problem formula its source
    names, stated with the search's rule and role for it.  Planted with
    an empty `cnf` child as the refutation, an input holding $false
    replayed cleanly while inputs were taken as given."""
    prob, res = run("problems/corpus/prop_k.p")
    assert replay_proof(res, prob) == []
    conj = prob.formulas[-1]
    assert conj.role == "conjecture"
    src = (prob.name, conj.name)
    records = res.records
    fake = _step(records, "input", formula=FALSE, role="conjecture",
                 source=src)
    res.empty_id = _step(records, "cnf", (fake.id,), clause=EMPTY_CLAUSE).id
    assert replay_proof(res, prob) == [
        f"{fake.id} (input): not the problem formula its source names"]
    # the conjecture stated as an axiom, or as a negated conjecture
    as_axiom = _step(records, "input", formula=conj.formula, role="axiom",
                     source=src)
    negated = _step(records, "neg_conjecture", formula=conj.formula,
                    role="negated_conjecture", source=src)
    nowhere = _step(records, "input", formula=conj.formula,
                    role="conjecture", source=(prob.name, "no_such"))
    assert ProofChecker(res, prob).check([as_axiom, negated, nowhere]) == [
        f"{as_axiom.id} (input): not the problem formula its source names",
        f"{negated.id} (neg_conjecture): neither its parent negated nor "
        "the problem formula its source names",
        f"{nowhere.id} (input): not the problem formula its source names"]
    (stated,) = [d for d in records.values()
                 if d.rule == "input" and d.id < fake.id]
    assert ProofChecker(res, prob).check([stated]) == []


def test_cnf_replay_mints_past_the_runs_variables():
    # the parent holds the run's V1 free under a quantifier, so the
    # variable the replay mints for y must not be called V1 too
    sig = Signature()
    q = const("q", fn(I, I, res=O))
    sig.declare("q", q.ty)
    v1 = sig.fresh_free(I)
    parent = canon(app(pi_const(I), lam(I, app(q, bound(0, I), v1))))
    (clause,) = normalize(Clause([prop_literal(parent, True)]), sig)
    prob = _axiom(sig, "v1.p", parent)
    records = {}
    _input(records, prob)
    _step(records, "cnf", (1,), clause=clause)
    checker = ProofChecker(_result(records), prob)
    assert checker.check(list(records.values())) == []


def test_cnf_step_may_not_rename_an_inherited_skolem():
    # sk1 is the parent's own, so clausification must keep it; the
    # child's sk2 is minted too, but no renaming of minted constants
    # may turn one into the other
    sig = Signature()
    p = const("p", fn(I, res=O))
    sig.declare("p", p.ty)
    sk1 = sig.fresh_skolem(I)
    sk2 = sig.fresh_skolem(I)
    prob = _axiom(sig, "sk.p", canon(app(p, sk1)))
    records = {}
    _input(records, prob)
    _step(records, "cnf", (1,),
          clause=Clause([prop_literal(canon(app(p, sk2)), True)]))
    checker = ProofChecker(_result(records), prob)
    assert checker.check(list(records.values())) \
        == ["2 (cnf): clausification does not produce this clause"]


def test_swapped_user_constants_named_like_skolems_are_detected():
    prob = parse_problem("""
    thf(sk1_type, type, (sk1: $i)).
    thf(sk2_type, type, (sk2: $i)).
    thf(p_type, type, (p: $i > $i > $o)).
    thf(a1, axiom, ( p @ sk1 @ sk2 )).
    thf(c, conjecture, ( p @ sk1 @ sk2 )).
    """, "swap.p")
    res = saturate(prob, ProverConfig(time_limit=30))
    assert res.status == "Theorem"
    assert replay_proof(res, prob) == []
    proof = extract_proof(res.records, res.empty_id)
    victim = next(d for d in proof if d.rule == "cnf")
    (l,) = victim.clause.literals
    p = l.lhs.head
    sk1, sk2 = l.lhs.args
    victim.clause = Clause([prop_literal(app(p, sk2, sk1), l.pos)])
    complaints = ProofChecker(res, prob).check(proof)
    assert any(c.startswith(f"{victim.id} (cnf)") for c in complaints)


def test_prim_subst_replays_at_the_runs_types():
    # P a may be instantiated by a quantifier over j, a type that only the
    # constant k mentions; the clauses themselves hold no j
    prob = parse_problem("""
    thf(j_type, type, (j: $tType)).
    thf(k_type, type, (k: j)).
    thf(a_type, type, (a: $i)).
    thf(ax, axiom, ( ! [P: $i > $o]: ( P @ a ) )).
    """, "types.p")
    sig = prob.signature
    j = sig.constants["k"]
    ax = prob.formulas[-1].formula
    (clause,) = normalize(Clause([prop_literal(ax, True)]), sig)
    (l,) = clause.literals
    P = l.lhs.head
    V = free("W", fn(I, j, res=O))
    binding = lam(I, app(pi_const(j), lam(j, app(V, bound(1, I),
                                                bound(0, j)))))
    records = {}
    _input(records, prob)
    _step(records, "cnf", (1,), clause=clause)
    _step(records, "prim_subst", (2,),
          clause=Clause([l, Literal(P, binding, False)]))
    checker = ProofChecker(_result(records), prob)
    assert checker.check(list(records.values())) == []


def test_instantiate_replays_only_the_first_finite_variable():
    # preprocessing instantiates the first $o variable by name; an
    # instance of another one is not a step the search makes
    prob = parse_problem("""
    thf(q_type, type, (q: $o > $o > $o)).
    thf(ax, axiom, ( ! [P: $o, Q: $o]: ( q @ P @ Q ) )).
    """, "inst.p")
    ax = prob.formulas[-1].formula
    (clause,) = normalize(Clause([prop_literal(ax, True)]),
                          prob.signature)
    first, later = sorted(clause.free_vars(), key=lambda v: v.name)

    def instance_of(x):
        records = {}
        _input(records, prob)
        _step(records, "cnf", (1,), clause=clause)
        (l,) = clause.literals
        _step(records, "instantiate", (2,), clause=Clause([prop_literal(
            substitute(l.lhs, {x: TRUE}), l.pos)]))
        return ProofChecker(_result(records), prob).check(
            list(records.values()))
    assert instance_of(first) == []
    assert instance_of(later) == [
        "3 (instantiate): no instantiate inference produces this clause"]


def test_ground_step_valid_accepts_resolution():
    p, q = const("p", O), const("q", O)
    parent1 = Clause([prop_literal(p, True), prop_literal(q, True)])
    parent2 = Clause([prop_literal(p, False)])
    child = Clause([prop_literal(q, True)])
    assert ground_step_valid([parent1, parent2], child) is True


def test_ground_step_valid_rejects_non_consequence():
    p, q = const("p", O), const("q", O)
    parent = Clause([prop_literal(p, True)])
    child = Clause([prop_literal(q, True)])
    assert ground_step_valid([parent], child) is False


def test_ground_step_valid_evaluates_boolean_equations():
    p, q = const("p", O), const("q", O)
    eq = Clause([Literal(p, q, True)])
    half = Clause([prop_literal(p, True), prop_literal(q, False)])
    assert ground_step_valid([eq], half) is True
    bad = Clause([prop_literal(p, True), prop_literal(q, True)])
    assert ground_step_valid([eq], bad) is False


def test_ground_step_valid_skips_nonpropositional():
    f = const("f", fn(I, res=I))
    a, b = const("a", I), const("b", I)
    eq = Clause([Literal(app(f, a), app(f, b), True)])
    assert ground_step_valid([eq], eq) is None
    X = free("X", O)
    c = Clause([prop_literal(X, True)])
    assert ground_step_valid([c], c) is None


def test_a_negated_axiom_is_no_negated_conjecture():
    """A `neg_conjecture` step negates the conjecture: its parent must be
    an `input` record of role `conjecture`.  Planted on the axiom's input
    it replayed cleanly while any formula record was accepted."""
    text = "thf(p_t,type,p:$o). thf(a,axiom,p). thf(c,conjecture,p)."
    prob = parse_problem(text, "neg_ax.p")
    res = saturate(prob, ProverConfig(time_limit=30))
    assert replay_proof(res, prob) == []
    records = res.records
    (axiom,) = [d for d in records.values()
                if d.rule == "input" and d.role == "axiom"]
    (negated,) = [d for d in records.values() if d.rule == "neg_conjecture"]
    checker = ProofChecker(res, prob)
    assert checker.check([records[negated.parents[0]], negated]) == []
    planted = _step(records, "neg_conjecture", (axiom.id,),
                    formula=canon(neg(axiom.formula)),
                    role="negated_conjecture")
    assert checker.check([axiom, planted]) == [
        f"{planted.id} (neg_conjecture): the parents are not the rule's "
        "premises"]
