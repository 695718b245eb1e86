"""Clause normal form transformation and definition handling."""

import itertools
import math
import pathlib
import random
import time
import types

import pytest

from ep_prover.terms import (
    AND, Abs, App, FALSE, Free, I, IFF, IMPLIES, NOT, O, OR, Signature,
    TRUE, app, bound, canon, conj, const, disj, equality, exists, fn,
    forall, free, iff, implies, neg, ordered_free_vars, spine,
)
from ep_prover import cnf
from ep_prover.clauses import Clause, Literal, prop_literal
from ep_prover.cnf import (
    CyclicDefinitionError, OutOfTime, _BUILDERS, _CLAUSES, _ESTIMATES,
    _EXPANSIONS, _estimate, _name_subformula, _sub_estimate, definition_map,
    expand_definition_map, expand_definitions, expand_term, formula_kind,
    miniscope, normalize, replace_defined_equalities_term, skolem_term,
)
from ep_prover.modal import embed
from ep_prover.tptp import parse_problem


ROOT = pathlib.Path(__file__).resolve().parent.parent
IO = fn(I, res=O)
p = const("p", O)
q = const("q", O)
qi = const("qi", IO)
a = const("a", I)


def clausify(f, sig=None):
    sig = sig or Signature()
    return normalize(Clause([prop_literal(canon(f), True)]), sig, 16)


def test_formula_kind_spots_connectives():
    assert formula_kind(canon(conj(p, q)))[0] == "and"
    assert formula_kind(canon(disj(p, q)))[0] == "or"
    assert formula_kind(canon(neg(p)))[0] == "not"
    assert formula_kind(canon(p)) is None


def test_conjunction_splits():
    cs = clausify(conj(p, q))
    assert len(cs) == 2
    assert all(len(c.literals) == 1 for c in cs)


def test_disjunction_one_clause():
    (c,) = clausify(disj(p, q))
    assert len(c.literals) == 2


def test_implication_and_negation():
    (c,) = clausify(implies(p, q))
    pols = sorted(l.pos for l in c.literals)
    assert pols == [False, True]


def test_universal_becomes_free_variable():
    (c,) = clausify(forall(I, app(qi, bound(0, I))))
    (l,) = c.literals
    assert len(c.free_vars()) == 1


def test_existential_skolemized_to_constant():
    (c,) = clausify(exists(I, app(qi, bound(0, I))))
    assert not c.free_vars()
    (l,) = c.literals
    _, args = spine(l.lhs)
    assert args[0].ty is I


def test_skolem_depends_on_governing_variables():
    r = const("r", fn(I, I, res=O))
    # ! [X]: ? [Y]: r X Y  gives  r X (sk X)
    f = forall(I, exists(I, app(r, bound(1, I), bound(0, I))))
    (c,) = clausify(f)
    (l,) = c.literals
    _, args = spine(l.lhs)
    h, skargs = spine(args[1])
    assert len(skargs) == 1 and isinstance(skargs[0], Free)


def test_unused_existential_gets_constant_skolem():
    f = forall(I, exists(I, app(qi, bound(0, I))))
    (c,) = clausify(f)
    (l,) = c.literals
    _, args = spine(l.lhs)
    _, skargs = spine(args[0])
    assert not skargs


def test_miniscope_pushes_quantifier_inside():
    f = canon(forall(I, conj(p, app(qi, bound(0, I)))))
    out = canon(miniscope(f))
    assert formula_kind(out)[0] == "and"


def test_leibniz_equality_is_recognized():
    f = canon(forall(IO, implies(app(bound(0, IO), a),
                                 app(bound(0, IO), const("b", I)))))
    out = canon(replace_defined_equalities_term(f))
    k = formula_kind(out)
    assert k is not None and k[0] == "eq"


def test_ordered_free_vars_is_deterministic():
    x, y = free("X", I), free("Y", I)
    t = canon(conj(app(qi, x), app(qi, y)))
    assert ordered_free_vars([t]) == ordered_free_vars([t])
    assert set(ordered_free_vars([t])) == {x, y}


def test_expand_definition_map_chases_chains():
    defs = {"d1": canon(p), "d2": canon(disj(const("d1", O), q))}
    expanded = expand_definition_map(defs)
    t = expand_term(canon(const("d2", O)), expanded)
    assert "d1" not in _const_names(t)


def test_expand_definition_map_rejects_cycles():
    defs = {"d1": canon(const("d2", O)), "d2": canon(const("d1", O))}
    with pytest.raises(CyclicDefinitionError):
        expand_definition_map(defs)


def _const_names(t):
    from ep_prover.terms import Abs, App, Const
    out = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Const):
            out.add(u.name)
        elif isinstance(u, Abs):
            stack.append(u.body)
        elif isinstance(u, App):
            stack.append(u.head)
            stack.extend(u.args)
    return out


# -- equisatisfiability smoke test (the full suite is in acceptance) --------

_ATOMS = [const(f"at{i}", O) for i in range(3)]


def _eval(t, val):
    h, args = spine(t)
    n = h.name
    if n == "$true":
        return True
    if n == "$false":
        return False
    if n == "~":
        return not _eval(args[0], val)
    if n == "|":
        return _eval(args[0], val) or _eval(args[1], val)
    if n == "&":
        return _eval(args[0], val) and _eval(args[1], val)
    if n == "=>":
        return (not _eval(args[0], val)) or _eval(args[1], val)
    if n in ("<=>", "="):
        return _eval(args[0], val) == _eval(args[1], val)
    return val[n]


def _eval_lit(l, val):
    if l.is_shorthand:
        return _eval(l.lhs, val)
    return _eval(l.lhs, val) == _eval(l.rhs, val)


def _sat(clauses, extra_atoms):
    names = sorted({n for n in extra_atoms})
    for vs in itertools.product((True, False), repeat=len(names)):
        val = dict(zip(names, vs))
        ok = True
        for c in clauses:
            if not any(_eval_lit(l, val) is l.pos for l in c.literals):
                ok = False
                break
        if ok:
            return True
    return False


def _random_prop(rng, depth):
    """A random formula over _ATOMS with connectives nested to depth."""
    if depth == 0:
        return rng.choice(_ATOMS)
    op = rng.choice(("~", "|", "&", "=>", "<=>", "atom"))
    if op == "atom":
        return rng.choice(_ATOMS)
    if op == "~":
        return neg(_random_prop(rng, depth - 1))
    fs = {"|": disj, "&": conj, "=>": implies, "<=>": iff}
    return fs[op](_random_prop(rng, depth - 1), _random_prop(rng, depth - 1))


def _random_props():
    rng = random.Random(5)
    return [canon(_random_prop(rng, 3)) for _ in range(200)]


def test_clausification_preserves_satisfiability():
    for f in _random_props():
        tt = any(_eval(f, dict(zip((x.name for x in _ATOMS), vs)))
                 for vs in itertools.product((True, False), repeat=3))
        # threshold 2 makes most formulas name a subformula
        for threshold in (16, 2):
            cs = normalize(Clause([prop_literal(f, True)]), Signature(),
                           threshold)
            atoms = set()
            for c in cs:
                for l in c.literals:
                    atoms |= {n for n in
                              _const_names(l.lhs) | _const_names(l.rhs)
                              if not n.startswith("$")
                              and n not in ("~", "|", "&", "=>", "<=>", "=")}
            assert _sat(cs, atoms) == tt, threshold


def iff_chain(n):
    """b0 <=> (b1 <=> ... b(n-1)): 2^(n-1) clauses without naming."""
    atoms = [const(f"b{i}", O) for i in range(n)]
    f = atoms[-1]
    for x in reversed(atoms[:-1]):
        f = iff(x, f)
    return canon(f)


def test_normalize_stops_at_an_expired_deadline():
    start = Clause([prop_literal(iff_chain(15), True)])
    t0 = time.monotonic()
    with pytest.raises(OutOfTime):
        normalize(start, Signature(), 0, deadline=time.monotonic() - 1)
    assert time.monotonic() - t0 < 1


def test_product_path_polls_the_deadline(monkeypatch):
    # naming off, so the 2^15 clauses are one product; on a clock that
    # ticks once per reading the deadline passes at the 50th poll
    ticks = itertools.count()
    monkeypatch.setattr(cnf, "time",
                        types.SimpleNamespace(monotonic=lambda: next(ticks)))
    start = Clause([prop_literal(iff_chain(16), True)])
    with pytest.raises(OutOfTime):
        normalize(start, Signature(), 0, deadline=50)


def test_formula_kind_memo_matches_the_uncached_computation():
    rng = random.Random(11)
    x = bound(0, I)

    def rand(depth):
        op = rng.choice(("~", "|", "&", "=>", "<=>", "atom", "all", "ex",
                         "eq_i", "eq_o"))
        if depth == 0 or op == "atom":
            return rng.choice((p, q, app(qi, a)))
        if op == "~":
            return neg(rand(depth - 1))
        if op in ("all", "ex"):
            body = disj(app(qi, x), rand(depth - 1))
            return (forall if op == "all" else exists)(I, body)
        if op == "eq_i":
            return equality(a, rng.choice((a, const("b", I))))
        if op == "eq_o":
            return equality(rand(depth - 1), rand(depth - 1))
        fs = {"|": disj, "&": conj, "=>": implies, "<=>": iff}
        return fs[op](rand(depth - 1), rand(depth - 1))

    uncached = formula_kind.__wrapped__
    checked = 0
    for _ in range(200):
        stack = [canon(rand(4))]
        while stack:
            t = stack.pop()
            for _ in range(2):      # a miss, then a hit
                assert formula_kind(t) == uncached(t)
            checked += 1
            if isinstance(t, Abs):
                stack.append(t.body)
            elif isinstance(t, App):
                stack.append(t.head)
                stack.extend(t.args)
    assert checked > 2000


# -- the worklist, kept as the oracle of the product path -------------------

def reference_estimate(t, pos):
    """`_estimate` as it was before its memo: recomputed at every node."""
    k = formula_kind(t)
    if k is None or k[0] == "eq":
        return 1
    if k[0] in ("all", "ex"):
        return reference_estimate(k[1].body, pos)
    return sum(math.prod(reference_estimate(k[j], p) for j, p in lits)
               for lits in _CLAUSES[k[0], pos])


def reference_normalize(c, sig, naming_threshold=16):
    """`normalize` as it was before its product path: every clause goes
    through the worklist, one literal at a time."""
    results = set()
    work = [list(c.literals)]
    while work:
        lits = work.pop()
        changed = False
        for i, l in enumerate(lits):
            if l.lhs is l.rhs:
                if l.pos:
                    changed = True  # tautologous literal, drop clause
                    lits = None
                else:
                    del lits[i]
                    work.append(lits)
                    changed = True
                break
            if not l.is_shorthand:
                continue
            if l.lhs is FALSE:
                if l.pos:
                    del lits[i]
                    work.append(lits)
                else:
                    lits = None  # [⊥]^ff always holds
                changed = True
                break
            k = formula_kind(l.lhs)
            if k is None:
                continue
            if naming_threshold \
                    and reference_estimate(l.lhs, l.pos) > naming_threshold:
                named = _name_subformula(lits, i, sig)
                if named is not None:
                    defs, repl = named
                    lits[i] = repl
                    work.append(lits)
                    work.extend(defs)
                    changed = True
                    break
            rest = lits[:i] + lits[i + 1:]
            tag = k[0]
            if tag == "eq":
                work.append(rest + [Literal(k[1], k[2], l.pos)])
            elif tag in _BUILDERS:
                for cl in _CLAUSES[tag, l.pos]:
                    work.append(rest + [prop_literal(k[j], p) for j, p in cl])
            elif tag in ("all", "ex"):
                body_abs = k[1]
                if (tag == "all") == l.pos:
                    z = sig.fresh_free(body_abs.var_ty)
                    inst = app(body_abs, z)
                else:
                    captured = ordered_free_vars(
                        [x for m in lits for x in (m.lhs, m.rhs)])
                    skt = skolem_term(sig, body_abs.var_ty, captured)
                    inst = app(body_abs, skt)
                work.append(rest + [prop_literal(inst, l.pos)])
            changed = True
            break
        if not changed and lits is not None:
            results.add(Clause(lits))
    return results


def _signature_state(sig):
    return sig._sk, sig._fv, dict(sig.constants)


def _assert_clausified_alike(lits, threshold, sig=None, ref_sig=None):
    """normalize and the reference give the same clauses and mint the
    same symbols, from signatures in the same state."""
    sig = sig or Signature()
    ref_sig = ref_sig or sig.copy()
    assert _signature_state(sig) == _signature_state(ref_sig)
    c = Clause(lits)
    got = normalize(c, sig, threshold)
    assert got == reference_normalize(c, ref_sig, threshold), (c, threshold)
    assert _signature_state(sig) == _signature_state(ref_sig), c
    return got


def sweep_formulas(monkeypatch, count):
    """The first `count` formulas of the benchmark's seed-7 sweep, built
    as its worker builds them."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from inputs import formula_slice
    atoms = tuple(const(f"p{i}", O) for i in range(4))
    ops = {"|": OR, "&": AND, "=>": IMPLIES, "<=>": IFF}

    def to_term(node):
        if isinstance(node, int):
            return atoms[node]
        if node[0] == "~":
            return app(NOT, to_term(node[1]))
        return app(ops[node[0]], to_term(node[1]), to_term(node[2]))

    return [canon(to_term(n)) for n in formula_slice(7, count)]


def test_product_path_matches_the_worklist_on_the_sweep(monkeypatch):
    for f in sweep_formulas(monkeypatch, 3000):
        # the sweep's threshold, and the CLI's, which names
        for threshold in (10 ** 9, 16):
            _assert_clausified_alike([prop_literal(f, True)], threshold)


def test_product_path_matches_the_worklist_on_the_problems():
    paths = sorted(ROOT.glob("problems/**/*.p"))
    assert len(paths) > 25
    checked = 0
    for path in paths:
        prob = parse_problem(path.read_text(), path.name, str(path.parent),
                             str(path))
        probs = [prob]
        if prob.logic_spec is not None:
            probs = [embed(prob, mode) for mode in ("relational",
                                                    "universal")]
        for prob in probs:
            defs = definition_map(prob.formulas)
            sig = prob.signature.copy()
            ref_sig = prob.signature.copy()
            for f in prob.formulas:
                if f.role in ("type", "logic", "definition"):
                    continue
                t = f.formula
                if f.role == "conjecture":
                    t = canon(neg(t))
                t = canon(miniscope(expand_definitions(t, defs)))
                _assert_clausified_alike([prop_literal(t, True)], 16,
                                         sig, ref_sig)
                checked += 1
    assert checked >= 50


def test_product_path_matches_the_worklist_on_random_formulas():
    for f in _random_props():
        for threshold in (0, 2, 16):
            _assert_clausified_alike([prop_literal(f, True)], threshold)


def test_product_path_matches_the_worklist_on_mixed_clauses():
    f = const("f", fn(I, res=I))
    x = free("X", I)
    y = bound(0, I)
    fx = app(f, x)
    some_y = canon(exists(I, app(qi, y)))
    # expanding the first literal before Skolemizing would drop X from
    # the Skolem term: the worklist takes the clause as a whole
    (c,) = _assert_clausified_alike(
        [prop_literal(canon(disj(neg(equality(fx, fx)), q)), True),
         prop_literal(some_y, True)], 16)
    (sk_lit,) = [l for l in c.literals if l.lhs is not q]
    assert spine(spine(sk_lit.lhs)[1][0])[1] == (x,)
    hand = [
        [prop_literal(canon(forall(I, app(qi, y))), False),
         prop_literal(canon(conj(p, q)), True)],
        [prop_literal(canon(iff(p, q)), True), Literal(x, a, False)],
        [prop_literal(canon(equality(conj(p, q), TRUE)), True)],
        # naming judges the formula side afresh: named at threshold 2
        [prop_literal(canon(equality(conj(iff(p, q), app(qi, x)), TRUE)),
                      True)],
        [prop_literal(canon(equality(iff(p, q), TRUE)), False),
         prop_literal(canon(disj(p, FALSE)), True)],
        [prop_literal(canon(conj(TRUE, app(qi, x))), False)],
        [prop_literal(canon(disj(equality(a, a), p)), True)],
        [prop_literal(canon(equality(p, q)), True),
         prop_literal(canon(implies(q, equality(fx, a))), True)],
        [],
    ]
    rng = random.Random(13)
    quantified = [canon(forall(I, disj(app(qi, y), p))),
                  canon(exists(I, conj(app(qi, y), app(qi, x)))),
                  canon(iff(q, forall(I, app(qi, y))))]
    pool = quantified + [canon(app(qi, x)), canon(equality(fx, a))]
    for _ in range(300):
        lits = []
        for _ in range(rng.randint(1, 3)):
            g = rng.choice(pool)
            if rng.random() < 0.7:
                g = canon(rng.choice((disj, conj, implies, iff))(
                    g, _random_prop(rng, 2)))
            lits.append(prop_literal(g, rng.random() < 0.5))
        hand.append(lits)
    for lits in hand:
        for threshold in (0, 2, 16):
            _assert_clausified_alike(lits, threshold)


def test_estimate_memo_matches_the_recomputation():
    rng = random.Random(17)
    for _ in range(300):
        t = canon(_random_prop(rng, rng.randint(1, 5)))
        for pos in (True, False):
            assert _estimate(t, pos) == reference_estimate(t, pos)
            assert _sub_estimate(t, pos) == reference_estimate(t, pos)


def test_estimate_of_a_long_iff_chain_is_instant():
    t0 = time.monotonic()
    assert _estimate(iff_chain(60), True) == 2 ** 59
    assert time.monotonic() - t0 < 1


def test_memos_hold_subformulas_only(monkeypatch):
    """Clausifying the first 1,000 sweep formulas stores nothing but
    their proper subformulas, each once per polarity, and no input
    formula unless another input holds it."""
    inputs = sweep_formulas(monkeypatch, 1000)
    proper = set()
    stack = []
    for f in inputs:
        k = formula_kind(f)
        stack.extend(k[1:] if k else ())
    while stack:
        t = stack.pop()
        if t not in proper:
            proper.add(t)
            k = formula_kind(t)
            stack.extend(k[1:] if k else ())
    memos = _ESTIMATES + _EXPANSIONS
    before = [set(m) for m in memos]
    for f in inputs:
        normalize(Clause([prop_literal(f, True)]), Signature(), 10 ** 9)
    for memo, old in zip(memos, before):
        new = set(memo) - old
        assert new <= proper
        assert len(memo) == len({t.tid for t in memo})
    # and every proper subformula was expanded through the memo
    assert proper <= set(_EXPANSIONS[False]) | set(_EXPANSIONS[True])
