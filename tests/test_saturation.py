"""Saturation loop: statuses, proof extraction, determinism."""

from ep_prover.saturation import (
    ProverConfig, Saturation, extract_proof, saturate,
)
from ep_prover.tptp import parse_problem


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
    assert any(d.rule == "neg_conjecture" for d in res.records.values())
    assert res.records[res.empty_id].from_conjecture


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
