"""The independent proof replay checker."""

from ep_prover.terms import O, app, canon, const, fn, free, I
from ep_prover.clauses import Clause, Literal, prop_literal
from ep_prover.replay import (
    ProofChecker, blind_key, ground_step_valid, replay_proof,
)
from ep_prover.saturation import ProverConfig, extract_proof, saturate
from ep_prover.tptp import parse_problem


def run(path, timeout=30.0):
    prob = parse_problem(open(path).read(), path.rsplit("/", 1)[-1])
    res = saturate(prob, ProverConfig(time_limit=timeout))
    return prob, res


def test_valid_proof_replays_cleanly():
    prob, res = run("problems/sur_cantor.p")
    assert res.status == "Theorem"
    assert replay_proof(res, prob) == []


def test_replay_uses_the_runs_naming_threshold():
    path = "problems/corpus/prop_equiv_comm.p"
    prob = parse_problem(open(path).read(), "prop_equiv_comm.p")
    res = saturate(prob, ProverConfig(time_limit=30, naming_threshold=2))
    assert res.status == "Theorem"
    assert any(d.rule == "cnf"
               for d in extract_proof(res.records, res.empty_id))
    assert replay_proof(res, prob) == []


def test_corrupted_clause_is_detected():
    prob, res = run("problems/sur_cantor.p")
    proof = extract_proof(res.records, res.empty_id)
    victim = next(d for d in proof if d.rule == "paramod_ordered")
    p = const("zzz", fn(I, res=O))
    a = const("zza", I)
    victim.clause = Clause([prop_literal(canon(app(p, a)), True)])
    checker = ProofChecker(res.records, prob)
    assert any(str(victim.id) in c for c in checker.check(proof))


def test_unknown_rule_is_detected():
    prob, res = run("problems/sur_cantor.p")
    proof = extract_proof(res.records, res.empty_id)
    proof[-1].rule = "made_up_rule"
    checker = ProofChecker(res.records, prob)
    assert any("unknown rule" in c for c in checker.check(proof))


def test_blind_key_identifies_skolem_renamings():
    f1 = const("sk1", fn(I, res=O))
    f2 = const("sk2", fn(I, res=O))
    a = const("a", I)
    c1 = Clause([prop_literal(canon(app(f1, a)), True)])
    c2 = Clause([prop_literal(canon(app(f2, a)), True)])
    assert blind_key(c1) == blind_key(c2)
    # but a non-minted constant is not blinded
    c3 = Clause([prop_literal(canon(app(const("g", fn(I, res=O)), a)), True)])
    assert blind_key(c1) != blind_key(c3)


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
