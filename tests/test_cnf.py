"""Clause normal form transformation and definition handling."""

import itertools
import random
import time

import pytest

from ep_prover.terms import (
    Abs, App, Free, I, O, Signature, app, bound, canon, conj, const, disj,
    equality, exists, fn, forall, free, iff, implies, neg, spine,
)
from ep_prover.clauses import Clause, prop_literal
from ep_prover.cnf import (
    CyclicDefinitionError, OutOfTime, expand_definition_map, expand_term,
    formula_kind, miniscope, normalize, ordered_free_vars,
    replace_defined_equalities_term,
)


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


def test_clausification_preserves_satisfiability():
    import random
    rng = random.Random(5)

    def rand(depth):
        if depth == 0:
            return rng.choice(_ATOMS)
        op = rng.choice(("~", "|", "&", "=>", "<=>", "atom"))
        if op == "atom":
            return rng.choice(_ATOMS)
        if op == "~":
            return neg(rand(depth - 1))
        fs = {"|": disj, "&": conj, "=>": implies, "<=>": iff}
        return fs[op](rand(depth - 1), rand(depth - 1))

    for _ in range(200):
        f = canon(rand(3))
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
