"""End-to-end acceptance suite.

Each test exercises the prover as a whole: fixed benchmark problems with
wall-clock budgets, randomized soundness sweeps over the unifier and the
propositional fragment, proof replay, and output determinism.
"""

import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from ep_prover import cli
from ep_prover.terms import (
    AND, Const, IFF, IMPLIES, NOT, O, OR, Signature, Subst, app,
    arg_types, canon, const, free, fn, I,
)
from ep_prover.clauses import head_of, match_terms
from ep_prover.modal import embed
from ep_prover.replay import check_ground_steps, replay_proof
from ep_prover.saturation import ProverConfig, extract_proof, saturate
from ep_prover.tptp import (
    AnnotatedFormula, Problem, RULE_VOCABULARY, parse_problem,
)
from ep_prover.unification import (
    Unifier, _Clash, general_bindings, pre_unify,
    simplify_pairs,
)


PROBLEMS = "problems"
ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_problem(path, timeout, s5_mode="relational", **kw):
    name = path.rsplit("/", 1)[-1]
    prob = parse_problem(open(path).read(), name)
    if prob.logic_spec is not None:
        prob = embed(prob, s5_mode)
    t0 = time.monotonic()
    res = saturate(prob, ProverConfig(time_limit=timeout, **kw))
    return prob, res, time.monotonic() - t0


def run_cli(*args, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "ep_prover.cli", *args],
        capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def sur_cantor():
    return run_problem(f"{PROBLEMS}/sur_cantor.p", 30)


@pytest.fixture(scope="module")
def inj_cantor():
    return run_problem(f"{PROBLEMS}/inj_cantor.p", 120)


@pytest.fixture(scope="module")
def becker():
    return run_problem(f"{PROBLEMS}/becker.p", 60)


@pytest.fixture(scope="module")
def contradictory():
    return run_problem(f"{PROBLEMS}/contradictory.p", 5)


# ---------------------------------------------------------------------------
# 1. Cantor's theorem for surjections
# ---------------------------------------------------------------------------

def test_surjective_cantor_within_budget(sur_cantor):
    prob, res, elapsed = sur_cantor
    assert res.status == "Theorem"
    assert elapsed <= 30


def test_surjective_cantor_proof_replays(sur_cantor):
    prob, res, _ = sur_cantor
    assert replay_proof(res, prob) == []


def test_surjective_cantor_rules_documented(sur_cantor):
    _, res, _ = sur_cantor
    proof = extract_proof(res.records, res.empty_id)
    # input formulas carry a file() source; everything else must use a
    # documented inference rule
    assert {d.rule for d in proof if d.rule != "input"} \
        <= set(RULE_VOCABULARY)


# ---------------------------------------------------------------------------
# 2. Cantor's theorem for injections needs the inverse-function rule
# ---------------------------------------------------------------------------

def test_injective_cantor_within_budget(inj_cantor):
    prob, res, elapsed = inj_cantor
    assert res.status == "Theorem"
    assert elapsed <= 120
    proof = extract_proof(res.records, res.empty_id)
    assert any(d.rule == "inj" for d in proof)
    assert replay_proof(res, prob) == []


@pytest.mark.slow
def test_injective_cantor_fails_without_inverse_rule():
    _, res, _ = run_problem(f"{PROBLEMS}/inj_cantor.p", 10,
                            enable_inj=False)
    assert res.status != "Theorem"


# ---------------------------------------------------------------------------
# 3. Becker's postulate in quantified S5, both encodings
# ---------------------------------------------------------------------------

# Reference symbol preamble for the relational S5 proof: base type, frame
# predicate, lifted connectives and quantifier constants, skolem constants.
EXPECTED_PREAMBLE = """
thf(mworld_type,type,(
    mworld: $tType )).

thf(mrel_type,type,(
    mrel: mworld > mworld > $o )).

thf(meuclidean_type,type,(
    meuclidean: ( mworld > mworld > $o ) > $o )).

thf(meuclidean_def,definition,
    ( meuclidean
    = ( ^ [A: mworld > mworld > $o] :
        ! [B: mworld,C: mworld,D: mworld] :
          ( ( ( A @ B @ C )
            & ( A @ B @ D ) )
         => ( A @ C @ D ) ) ) )).

thf(mvalid_type,type,(
    mvalid: ( mworld > $o ) > $o )).

thf(mvalid_def,definition,
    ( mvalid
    = ( ^ [A: mworld > $o] : 
        ! [B: mworld] :
          ( A @ B ) ) )).

thf(mimplies_type,type,(
    mimplies: ( mworld > $o ) > ( mworld > $o ) > mworld > $o )).

thf(mimplies_def,definition,
    ( mimplies
    = ( ^ [A: mworld > $o,B: mworld > $o,C: mworld] :
          ( ( A @ C )
         => ( B @ C ) ) ) )).

thf(mdia_type,type,(
    mdia: ( mworld > $o ) > mworld > $o )).

thf(mdia_def,definition,
    ( mdia
    = ( ^ [A: mworld > $o,B: mworld] :
        ? [C: mworld] :
          ( ( mrel @ B @ C )
          & ( A @ C ) ) ) )).

thf(mbox_type,type,(
    mbox: ( mworld > $o ) > mworld > $o )).

thf(mbox_def,definition,
    ( mbox
    = ( ^ [A: mworld > $o,B: mworld] :
        ! [C: mworld] :
          ( ( mrel @ B @ C )
         => ( A @ C ) ) ) )).

thf(mexists_const__o__d_i_t__d_i_c__type,type,(
    mexists_const__o__d_i_t__d_i_c_: ( ( $i > $i ) > mworld > $o )
                                       > mworld > $o )).

thf(mexists_const__o__d_i_t__d_i_c__def,definition,
    ( mexists_const__o__d_i_t__d_i_c_
    = ( ^ [A: ( $i > $i ) > mworld > $o,B: mworld] :
        ? [C: $i > $i] :
          ( A @ C @ B ) ) )).

thf(mforall_const__o__d_i_t__o_mworld_t__d_o_c__c__type,type,(
    mforall_const__o__d_i_t__o_mworld_t__d_o_c__c_: ( ( $i > mworld > $o )
                                                      > mworld > $o )
                                                      > mworld > $o )).

thf(mforall_const__o__d_i_t__o_mworld_t__d_o_c__c__def,definition,
    ( mforall_const__o__d_i_t__o_mworld_t__d_o_c__c_
    = ( ^ [A: ( $i > mworld > $o ) > mworld > $o,B: mworld] :
        ! [C: $i > mworld > $o] :
          ( A @ C @ B ) ) )).

thf(mforall_const__o__d_i_c__type,type,(
    mforall_const__o__d_i_c_: ( $i > mworld > $o ) > mworld > $o )).

thf(mforall_const__o__d_i_c__def,definition,
    ( mforall_const__o__d_i_c_
    = ( ^ [A: $i > mworld > $o,B: mworld] :
        ! [C: $i] :
          ( A @ C @ B ) ) )).

thf(mforall_const__o__d_i_t__d_i_c__type,type,(
    mforall_const__o__d_i_t__d_i_c_: ( ( $i > $i ) > mworld > $o )
                                        > mworld > $o )).

thf(mforall_const__o__d_i_t__d_i_c__def,definition,
    ( mforall_const__o__d_i_t__d_i_c_
    = ( ^ [A: ( $i > $i ) > mworld > $o,B: mworld] :
        ! [C: $i > $i] :
          ( A @ C @ B ) ) )).

thf(sk1_type,type,(
    sk1: mworld )).

thf(sk2_type,type,(
    sk2: $i > mworld > $o )).

thf(sk3_type,type,(
    sk3: $i > $i )).

thf(sk4_type,type,(
    sk4: $i )).

thf(sk5_type,type,(
    sk5: mworld )).

thf(sk6_type,type,(
    sk6: ( $i > $i ) > mworld )).
"""


def _thf_entries(text):
    """Map entry name -> full text for each thf(...) in a listing."""
    out = {}
    buf = []
    for line in text.splitlines():
        if not buf and not line.startswith("thf("):
            continue
        buf.append(line)
        if line.rstrip().endswith(")).") :
            whole = "\n".join(buf)
            name = re.match(r"thf\(([^,]+),", whole).group(1)
            out[name] = whole
            buf = []
    return out


def _tokens(s):
    return re.findall(r"\$?\w+|\S", s)


def _blind_sk(tokens):
    return ["sk" if re.fullmatch(r"sk\d+(_type)?", t) else t
            for t in tokens]


def test_becker_s5_relational_preamble_matches_reference():
    r = run_cli(f"{PROBLEMS}/becker.p", "-t", "60", "-p")
    assert r.returncode == 0
    assert "% SZS status Theorem for becker.p" in r.stdout
    got = {n: e for n, e in _thf_entries(r.stdout).items()
           if not n.isdigit()}
    want = _thf_entries(EXPECTED_PREAMBLE)
    got_sk = sorted(_blind_sk(_tokens(e)) for n, e in got.items()
                    if re.fullmatch(r"sk\d+_type", n))
    want_sk = sorted(_blind_sk(_tokens(e)) for n, e in want.items()
                     if re.fullmatch(r"sk\d+_type", n))
    assert got_sk == want_sk
    got = {n: e for n, e in got.items()
           if not re.fullmatch(r"sk\d+_type", n)}
    want = {n: e for n, e in want.items()
            if not re.fullmatch(r"sk\d+_type", n)}
    assert set(got) == set(want)
    for n in want:
        assert _tokens(got[n]) == _tokens(want[n]), n


def test_becker_s5_universal_encoding():
    t0 = time.monotonic()
    r = run_cli(f"{PROBLEMS}/becker.p", "-t", "60", "--modal-s5",
                "universal")
    assert time.monotonic() - t0 <= 60
    assert r.returncode == 0
    assert "% SZS status Theorem for becker.p" in r.stdout


@pytest.mark.slow
def test_becker_not_provable_in_k(tmp_path):
    text = open(f"{PROBLEMS}/becker.p").read()
    weak = text.replace("$modal_system_S5", "$modal_system_K")
    assert weak != text
    f = tmp_path / "becker_k.p"
    f.write_text(weak)
    r = run_cli(str(f), "-t", "30", timeout=60)
    assert "% SZS status Theorem" not in r.stdout


# ---------------------------------------------------------------------------
# 4. Contradictory axioms detected and reported as such
# ---------------------------------------------------------------------------

def test_contradictory_axioms_status(contradictory):
    _, res, elapsed = contradictory
    assert res.status == "ContradictoryAxioms"
    assert elapsed <= 5


# ---------------------------------------------------------------------------
# 5. Randomized solvable unification problems: every unifier verifies
# ---------------------------------------------------------------------------

_f = const("f", fn(I, res=I))
_g = const("g", fn(I, I, res=I))
_a = const("a", I)
_b = const("b", I)


def _random_term(rng, depth, leaves):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(leaves)
    if roll < 0.6:
        return app(_f, _random_term(rng, depth - 1, leaves))
    return app(_g, _random_term(rng, depth - 1, leaves),
               _random_term(rng, depth - 1, leaves))


def _unifies(pairs, subst):
    try:
        _, fr, _ = simplify_pairs(pairs, subst)
    except _Clash:
        return False
    return not fr


def test_solvable_sets_every_unifier_verifies():
    rng = random.Random(1)
    vars_ = [free("U", I), free("V", I), free("W", I)]
    for _ in range(1000):
        t = canon(_random_term(rng, 4, [_a, _b] + vars_))
        sigma = Subst({v: canon(_random_term(rng, 2, [_a, _b]))
                       for v in vars_})
        pairs = [(t, sigma.apply(t))]
        out = pre_unify(pairs, Signature())
        assert out.unifiers, f"solvable set not solved: {pairs}"
        for u in out.unifiers:
            assert _unifies(pairs, u.subst)


# ---------------------------------------------------------------------------
# 6. Flex-rigid problems: exhaustive enumeration is covered by pre_unify
# ---------------------------------------------------------------------------

def _enumerate_unifiers(pairs, depth):
    """All unifiers reachable with at most `depth` partial bindings."""
    sig = Signature()
    found = []

    def search(ps, subst, d):
        try:
            subst, fr, ff = simplify_pairs(ps, subst)
        except _Clash:
            return
        if not fr:
            found.append(Unifier(subst, tuple(ff)))
            return
        if d >= depth:
            return
        s, t = fr[0]
        v = head_of(s)
        r = head_of(t)
        head = r if isinstance(r, Const) else None
        for b in general_bindings(v.ty, head, sig):
            search(fr + ff, subst.bind(v, b), d + 1)

    search([(canon(s), canon(t)) for s, t in pairs], Subst(), 0)
    return found


def _subsumed_by(general, special, var):
    gi = general.subst.apply(canon(var))
    si = special.subst.apply(canon(var))
    return match_terms(gi, si, {}) is not None


def test_flex_rigid_enumeration_covered_by_pre_unify():
    rng = random.Random(2)
    flex_types = [fn(I, res=I), fn(I, I, res=I)]
    misses = 0
    for i in range(200):
        fty = rng.choice(flex_types)
        F = free(f"F{i}", fty)
        args = [canon(_random_term(rng, 2, [_a, _b]))
                for _ in arg_types(fty)]
        lhs = canon(app(F, *args))
        rhs = canon(_random_term(rng, 2, [_a, _b]))
        pairs = [(lhs, rhs)]
        enumerated = _enumerate_unifiers(pairs, 4)
        out = pre_unify(pairs, Signature(), depth=8, limit=10 ** 6)
        for e in enumerated:
            if not any(_subsumed_by(u, e, F) for u in out.unifiers):
                misses += 1
    assert misses == 0


# ---------------------------------------------------------------------------
# 7. Propositional fragment agrees with the truth table
# ---------------------------------------------------------------------------

_ATOMS = tuple(const(f"p{i}", O) for i in range(4))
_BINOPS = ("|", "&", "=>", "<=>")
_OP_TERM = {"|": OR, "&": AND, "=>": IMPLIES, "<=>": IFF}


def _gen_formula(rng, budget, atoms=4, leaf=0.25):
    """A formula tree of at most `budget` connectives over the first
    `atoms` atoms; a subtree is a leaf with probability `leaf`."""
    if budget == 0 or rng.random() < leaf:
        return rng.randrange(atoms)
    if rng.random() < 0.3:
        return ("~", _gen_formula(rng, budget - 1, atoms, leaf))
    left = rng.randint(0, budget - 1)
    return (rng.choice(_BINOPS), _gen_formula(rng, left, atoms, leaf),
            _gen_formula(rng, budget - 1 - left, atoms, leaf))


def _eval_formula(node, mask):
    if isinstance(node, int):
        return bool(mask >> node & 1)
    op = node[0]
    if op == "~":
        return not _eval_formula(node[1], mask)
    x = _eval_formula(node[1], mask)
    y = _eval_formula(node[2], mask)
    if op == "|":
        return x or y
    if op == "&":
        return x and y
    if op == "=>":
        return (not x) or y
    return x == y


def _to_term(node, atoms=_ATOMS):
    if isinstance(node, int):
        return atoms[node]
    if node[0] == "~":
        return app(NOT, _to_term(node[1], atoms))
    return app(_OP_TERM[node[0]], _to_term(node[1], atoms),
               _to_term(node[2], atoms))


def _prover_decides(term):
    sig = Signature()
    for c in _ATOMS:
        sig.declare(c.name, O)
    prob = Problem(sig, [AnnotatedFormula("f", "axiom", term)],
                   None, "sample.p")
    # definitional naming would mint fresh atoms and blow up the tiny
    # ground search space, so switch it off for these formulas
    res = saturate(prob, ProverConfig(time_limit=5,
                                      naming_threshold=10 ** 9))
    assert res.status in ("Satisfiable", "Unsatisfiable"), res.status
    return res.status == "Satisfiable"


@pytest.mark.slow
def test_propositional_decisions_match_truth_tables():
    rng = random.Random(3)
    cache = {}
    disagreements = 0
    for _ in range(100_000):
        node = _gen_formula(rng, 8)
        term = canon(_to_term(node))
        expected = any(_eval_formula(node, m) for m in range(16))
        key = id(term)
        if key not in cache:
            cache[key] = _prover_decides(term)
        if cache[key] != expected:
            disagreements += 1
    assert disagreements == 0


_SIX_ATOMS = tuple(const(f"p{i}", O) for i in range(6))


def test_named_propositional_decisions_match_truth_tables():
    """At the default naming threshold `cnf` names subformulas of bigger
    formulas, and ordered resolution ranks the names below the input
    atoms; every verdict must still be the formula's truth table, and
    every refutation must replay."""
    rng = random.Random(5)
    named = unsatisfiable = 0
    for _ in range(1500):
        node = _gen_formula(rng, 12, 6, 0.1)
        for _ in range(3):
            node = ("&", node, _gen_formula(rng, 12, 6, 0.1))
        sig = Signature()
        for c in _SIX_ATOMS:
            sig.declare(c.name, O)
        prob = Problem(sig, [AnnotatedFormula(
            "f", "axiom", canon(_to_term(node, _SIX_ATOMS)))], None, "s.p")
        res = saturate(prob, ProverConfig(time_limit=10))
        assert res.ordered
        expected = any(_eval_formula(node, m) for m in range(64))
        assert res.status == ("Satisfiable" if expected
                              else "Unsatisfiable"), node
        named += bool(sig.system)
        unsatisfiable += not expected
        if not expected:
            assert replay_proof(res, prob) == [], node
    # 1,362 runs minted names, and 453 formulas are unsatisfiable; never
    # resolving on a name, or on a clause of names only, gave 11 wrong
    # verdicts here
    assert named > 1200 and unsatisfiable > 400


# ---------------------------------------------------------------------------
# 8. Ground propositional steps in the benchmark proofs are entailments
# ---------------------------------------------------------------------------

def test_ground_steps_valid_in_benchmark_proofs(
        sur_cantor, inj_cantor, becker, contradictory):
    for prob, res, _ in (sur_cantor, inj_cantor, becker, contradictory):
        proof = extract_proof(res.records, res.empty_id)
        assert check_ground_steps(res.records, proof) == [], prob.name


def test_every_benchmark_refutation_replays(becker, contradictory):
    corpus = sorted(line.split()[0] for line in
                    open(f"{PROBLEMS}/corpus/expected_status.txt"))
    runs = [run_problem(f"{PROBLEMS}/corpus/{name}", 60) for name in corpus]
    runs += [becker, contradictory,
             run_problem(f"{PROBLEMS}/becker.p", 60, s5_mode="universal")]
    for prob, res, _ in runs:
        assert res.empty_id is not None, prob.name
        assert replay_proof(res, prob) == [], prob.name
        proof = extract_proof(res.records, res.empty_id)
        assert check_ground_steps(res.records, proof) == [], prob.name
    assert len(runs) == 25


# ---------------------------------------------------------------------------
# 9. Proof output is deterministic across runs
# ---------------------------------------------------------------------------

def test_proof_output_byte_identical_across_runs():
    cases = [
        (f"{PROBLEMS}/sur_cantor.p", ["-t", "30"]),
        (f"{PROBLEMS}/inj_cantor.p", ["-t", "120"]),
        (f"{PROBLEMS}/becker.p", ["-t", "60"]),
        (f"{PROBLEMS}/contradictory.p", ["-t", "5"]),
    ]
    for path, extra in cases:
        outs = [run_cli(path, "-p", *extra).stdout for _ in range(3)]
        assert outs[0] == outs[1] == outs[2], path
        assert "% SZS output start CNFRefutation" in outs[0], path
        # tests/golden holds the proofs printed before the refactoring of
        # the term walkers and unifier; any change to the search shows here
        name = path.rsplit("/", 1)[-1][:-2]
        with open(f"tests/golden/{name}.out") as f:
            assert outs[0] == f.read(), path


def test_proof_output_unchanged_by_earlier_runs_in_the_process(
        capsys, monkeypatch):
    """The intern table and the memos built on it outlive a run, so a
    later run in the same process starts warm; its proof must still be
    the golden one, also after a benchmark sweep slice filled the
    clausification memos."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from inputs import formula_slice, satisfiable
    for node in formula_slice(7, 1000):
        assert _prover_decides(canon(_to_term(node))) == satisfiable(node)
    for name in ("inj_cantor", "sur_cantor", "contradictory"):
        assert cli.main([f"{PROBLEMS}/{name}.p", "-p"]) == 0, name
        with open(f"tests/golden/{name}.out") as f:
            assert capsys.readouterr().out == f.read(), name


# ---------------------------------------------------------------------------
# 10. Mini-corpus with pinned expected statuses
# ---------------------------------------------------------------------------

def test_corpus_statuses_match_expected_file():
    expected = {}
    for line in open(f"{PROBLEMS}/corpus/expected_status.txt"):
        name, status = line.split()
        expected[name] = status
    assert len(expected) >= 20
    theorems = 0
    for name, status in sorted(expected.items()):
        t0 = time.monotonic()
        r = run_cli(f"{PROBLEMS}/corpus/{name}", "-t", "60", timeout=90)
        elapsed = time.monotonic() - t0
        m = re.search(r"% SZS status (\w+)", r.stdout)
        assert m is not None, name
        assert m.group(1) == status, name
        if status == "Theorem":
            assert elapsed <= 60, name
            theorems += 1
    assert theorems >= 0.9 * len(expected)
