"""Kripke-semantics embedding of modal problems into classical HOL."""

import pytest

from ep_prover.terms import I, O, fn, spine, Const
from ep_prover.tptp import (
    LogicSpec, UnsupportedInputError, parse_problem, print_formula,
)
from ep_prover.modal import (
    MWORLD, W2O, embed, frame_axioms, lift_type, mangle_type,
    quantifier_name, uses_modal_operators,
)


def spec_text(system="S5", consequence="global"):
    return f"""
    thf(s, logic, ( $modal := [
        $constants := $rigid, $quantification := $constant,
        $consequence := ${consequence},
        $modalities := $modal_system_{system} ] )).
    """


def test_lift_type():
    assert lift_type(O) is W2O
    assert lift_type(I) is I
    assert lift_type(fn(I, res=O)) is fn(I, res=W2O)
    assert lift_type(fn(fn(I, res=O), res=O)) \
        is fn(fn(I, res=W2O), res=W2O)


def test_mangle_type_oracle():
    assert mangle_type(lift_type(fn(I, res=O))) \
        == "_o__d_i_t__o_mworld_t__d_o_c__c_"
    assert quantifier_name("forall", lift_type(fn(I, res=O))) \
        == "mforall_const__o__d_i_t__o_mworld_t__d_o_c__c_"
    assert quantifier_name("exists", I) == "mexists_const__o__d_i_c_"


def _frame_names(spec):
    return [f.name for f in frame_axioms(spec)]


def test_frame_axioms_by_system():
    cases = {
        "K": [],
        "D": ["mrel_mserial"],
        "T": ["mrel_mreflexive"],
        "B": ["mrel_mreflexive", "mrel_msymmetric"],
        "S4": ["mrel_mreflexive", "mrel_mtransitive"],
        "S5": ["mrel_mreflexive", "mrel_meuclidean"],
    }
    for system, expected in cases.items():
        spec = LogicSpec()
        spec.system = system
        assert _frame_names(spec) == expected, system


def test_frame_axioms_by_scheme_list():
    spec = LogicSpec()
    spec.system = None
    spec.axioms = ["K", "T", "4"]
    assert _frame_names(spec) == ["mrel_mreflexive", "mrel_mtransitive"]


def test_uses_modal_operators():
    text = "thf(p_type, type, (p: $o)). thf(x, axiom, ( $box @ p ))."
    assert uses_modal_operators(parse_problem(text, "t.p"))
    assert not uses_modal_operators(
        parse_problem("thf(x, axiom, $true).", "t.p"))


def test_embed_requires_logic_spec():
    text = "thf(p_type, type, (p: $o)). thf(x, axiom, ( $box @ p ))."
    with pytest.raises(UnsupportedInputError):
        embed(parse_problem(text, "t.p"))


def _embedded(system="S5", consequence="global", s5_mode="relational",
              conjecture="( ( $box @ p ) => p )", extra=""):
    text = (spec_text(system, consequence)
            + "thf(p_type, type, (p: $o)).\n" + extra
            + f"thf(goal, conjecture, {conjecture}).")
    return embed(parse_problem(text, "t.p"), s5_mode)


def test_embed_leaves_no_modal_residue():
    prob = _embedded()
    assert not uses_modal_operators(prob)
    assert prob.logic_spec is None


def test_embed_global_wraps_in_mvalid():
    prob = _embedded(consequence="global",
                     extra="thf(ax, axiom, p).\n")
    by_role = {}
    for f in prob.formulas:
        by_role.setdefault(f.role, []).append(f)
    for f in by_role["axiom"] + by_role["conjecture"]:
        if f.name.startswith("mrel_"):
            continue
        h, _ = spine(f.formula)
        assert isinstance(h, Const) and h.name == "mvalid", f.name


def test_embed_local_axioms_at_fresh_world():
    prob = _embedded(consequence="local",
                     extra="thf(ax, axiom, p).\n")
    ax = next(f for f in prob.formulas
              if f.role == "axiom" and f.name == "ax")
    assert print_formula(ax.formula).endswith("@ cw")
    assert prob.signature.constants["cw"] is MWORLD
    goal = next(f for f in prob.formulas if f.role == "conjecture")
    h, _ = spine(goal.formula)
    assert h.name == "mvalid"


def test_embed_s5_universal_drops_accessibility():
    prob = _embedded(s5_mode="universal")
    assert "mrel" not in prob.signature.constants
    assert not any(f.name.startswith("mrel_") for f in prob.formulas)


def test_embed_s5_relational_keeps_euclidean_frame():
    prob = _embedded(s5_mode="relational")
    assert "mrel" in prob.signature.constants
    names = [f.name for f in prob.formulas if f.role == "axiom"]
    assert "mrel_meuclidean" in names


def test_embed_quantifiers_get_per_type_constants():
    prob = _embedded(
        conjecture="( ! [X: $i]: ? [Y: $i]: ( ( $box @ ( q @ X @ Y ) ) "
                   "=> ( $box @ ( q @ X @ Y ) ) ) )",
        extra="thf(q_type, type, (q: $i > $i > $o)).\n")
    assert "mforall_const__o__d_i_c_" in prob.signature.constants
    assert "mexists_const__o__d_i_c_" in prob.signature.constants


def test_embed_definitions_print_compactly():
    prob = _embedded()
    defs = {f.name: f for f in prob.formulas if f.role == "definition"}
    assert print_formula(defs["mimplies_def"].formula) == (
        "mimplies = ( ^ [A: mworld > $o,B: mworld > $o,C: mworld] : "
        "( ( A @ C ) => ( B @ C ) ) )")
    assert "mbox_def" in defs and "mvalid_def" in defs


def test_embedded_problem_is_provable():
    from ep_prover.saturation import ProverConfig, saturate
    prob = _embedded(system="T")
    res = saturate(prob, ProverConfig(time_limit=30))
    assert res.status == "Theorem"


def test_system_k_does_not_prove_reflexivity_scheme():
    from ep_prover.saturation import ProverConfig, saturate
    prob = _embedded(system="K")
    res = saturate(prob, ProverConfig(time_limit=3))
    assert res.status != "Theorem"


def test_embedded_definitions_are_expanded():
    from ep_prover.replay import replay_proof
    from ep_prover.saturation import ProverConfig, saturate
    prob = _embedded(system="K", conjecture="( $box @ p )",
                     extra="thf(p_def, definition, ( p = $true )).\n")
    (d,) = [f for f in prob.formulas if f.name == "p_def"]
    assert d.role == "definition"
    res = saturate(prob, ProverConfig(time_limit=30))
    assert res.status == "Theorem"
    assert replay_proof(res, prob) == []
