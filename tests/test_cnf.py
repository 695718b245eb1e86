"""Clause normal form transformation and definition handling."""

import itertools
import math
import pathlib
import random
import subprocess
import sys
import time
import types

import pytest

from ep_prover.terms import (
    AND, Abs, App, Const, FALSE, Free, I, IFF, IMPLIES, NOT, O, OR, Signature,
    TRUE, app, bound, canon, conj, const, disj, equality, exists, fn,
    forall, free, iff, implies, neg, ordered_free_vars, replace_consts,
    spine, substitute,
)
from ep_prover import cnf
from ep_prover.clauses import Clause, Literal, prop_literal
from ep_prover.cnf import (
    CyclicDefinitionError, OutOfTime, _BUILDERS, _CLAUSES, _ESTIMATES,
    _EXPANSIONS, _estimate, _sub_estimate, definition_map,
    expand_definition_map, expand_definitions, formula_kind,
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
    t = expand_definitions(canon(const("d2", O)), expanded)
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


def test_memo_stores_no_expansion_past_its_cap():
    # naming off: the 2^39 clauses of a 40-atom chain would fill the
    # memo, which outlives the call, on the way to the deadline
    start = Clause([prop_literal(iff_chain(40), True)])
    with pytest.raises(OutOfTime):
        normalize(start, Signature(), 0, deadline=time.monotonic() + 0.2)
    assert max(len(e) for m in _EXPANSIONS for e in m.values()) \
        <= cnf._MAX_STORED


def test_iff_chains_clausify_to_linearly_many_clauses():
    # each link occurs in both polarities; it is named once, not once
    # per definition that holds it
    for n in range(2, 41):
        t0 = time.monotonic()
        cs = normalize(Clause([prop_literal(iff_chain(n), True)]),
                       Signature(), 16, deadline=t0 + 0.05)
        assert len(cs) <= 5 * n + 10, n
    assert len(cs) == 170


def test_deep_quantifier_alternation_clausifies(tmp_path):
    # ! [Y0] : ? [Y1] : ( r Y0 Y1 & ? [Y2] : ( r Y1 Y2 & ... ) ): 140
    # levels that miniscoping cannot flatten, near the parser's limit;
    # read in a fresh interpreter, whose stack is as deep as the CLI's
    n = 140
    body = f"? [Y{n}: $i] : ( r @ Y{n - 1} @ Y{n} )"
    for i in range(n - 1, 0, -1):
        body = f"? [Y{i}: $i] : ( ( r @ Y{i - 1} @ Y{i} ) & {body} )"
    path = tmp_path / "deep.p"
    path.write_text("thf(r_type, type, r: $i > $i > $o).\n"
                    f"thf(ax, axiom, ! [Y0: $i] : {body}).\n")
    script = (
        "import sys\n"
        "from ep_prover.saturation import ProverConfig, Saturation\n"
        "from ep_prover.tptp import parse_problem\n"
        "problem = parse_problem(open(sys.argv[1]).read(), 'deep.p')\n"
        "sat = Saturation(problem, ProverConfig())\n"
        "sat.preprocess()\n"
        "print(sum(d.rule == 'cnf' for d in sat.records.values()))\n")
    r = subprocess.run([sys.executable, "-c", script, str(path)],
                       capture_output=True, text=True, timeout=120)
    assert r.stdout.split() == ["264"], r.stderr[-2000:]


def test_minted_symbols_are_not_shared_between_calls():
    y = bound(0, I)
    f = canon(conj(exists(I, app(qi, y)), forall(I, disj(app(qi, y), p))))
    c = Clause([prop_literal(f, True)])
    sig = Signature()
    first = normalize(c, sig, 16)
    assert normalize(c, sig, 16) != first
    assert (sig._sk, sig._fv) == (2, 2)


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


# -- the worklist, kept as the oracle of the memoized expansion -------------

def reference_estimate(t, pos):
    """`_estimate` as it was before its memo: recomputed at every node."""
    k = formula_kind(t)
    if k is None or k[0] == "eq":
        return 1
    if k[0] in ("all", "ex"):
        return reference_estimate(k[1].body, pos)
    return sum(math.prod(reference_estimate(k[j], p) for j, p in lits)
               for lits in _CLAUSES[k[0], pos])


def reference_name(lits, i, sig, names, defined):
    """Replace the heaviest child of literal i's connective by its name,
    minted the first time the child is named in the call.  Returns
    (the definitions not given yet, replacement literal) or None when
    the literal's shape offers nothing to name."""
    l = lits[i]
    k = formula_kind(l.lhs)
    if k is None or k[0] in ("not", "eq", "all", "ex"):
        return None
    tag, s, u = k
    clauses = _CLAUSES[tag, l.pos]
    cands = []
    for idx, child in enumerate((s, u), 1):
        # the polarities the child occurs with in the clausified literal
        ps = tuple(p for p in (True, False)
                   if any((idx, p) in c for c in clauses))
        est = max(reference_estimate(child, p) for p in ps)
        cands.append((est, idx, child, ps))
    cands.sort(key=lambda c: (-c[0], c[1]))
    est, idx, child, ps = cands[0]
    if est <= 1:
        return None
    if child not in names:
        fvs = ordered_free_vars([child])
        d = sig.fresh_skolem(fn(*[v.ty for v in fvs], res=O))
        names[child] = app(d, *fvs)
    atom = names[child]
    defs = []
    if True in ps and (child, True) not in defined:
        # positive occurrence: atom implies the named subformula
        defs.append([prop_literal(atom, False), prop_literal(child, True)])
    if False in ps and (child, False) not in defined:
        defs.append([prop_literal(child, False), prop_literal(atom, True)])
    defined.update((child, p) for p in ps)
    parts = [atom if j == idx else c for j, c in enumerate((s, u), 1)]
    return defs, prop_literal(_BUILDERS[tag](*parts), l.pos)


def reference_normalize(c, sig, naming_threshold=16):
    """The worklist `normalize` had before its memoized expansion: every
    clause goes through it, one literal at a time.  A Skolem term
    captures the free variables of its quantified formula only, and a
    quantified formula is instantiated and a subformula named once per
    polarity per call, as `normalize` does."""
    results = set()
    work = [list(c.literals)]
    names, defined, instances = {}, set(), {}
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
                named = reference_name(lits, i, sig, names, defined)
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
                inst = instances.get(l)
                if inst is None:
                    if (tag == "all") == l.pos:
                        z = sig.fresh_free(body_abs.var_ty)
                    else:
                        z = skolem_term(sig, body_abs.var_ty,
                                        ordered_free_vars([l.lhs]))
                    inst = instances[l] = prop_literal(app(body_abs, z),
                                                       l.pos)
                work.append(rest + [inst])
            changed = True
            break
        if not changed and lits is not None:
            results.add(Clause(lits))
    return results


def _signature_state(sig):
    return sig._sk, sig._fv, dict(sig.constants)


def _lifted(clauses, sig, minted, fv):
    """The clauses with the constants named in `minted` made free
    variables `$name`, and the free variables among those and the ones
    minted past `V<fv>`."""
    ins = {k: free("$" + k, sig.constants[k]) for k in minted}
    out = {Clause([Literal(replace_consts(l.lhs, ins),
                           replace_consts(l.rhs, ins), l.pos)
                   for l in c.literals]) for c in clauses}
    fresh = {f"V{n}" for n in range(fv + 1, sig._fv + 1)}
    syms = {v for c in out for v in c.free_vars()
            if v.name[0] == "$" or v.name in fresh}
    return out, syms


def _renamed(c, ren):
    return Clause([Literal(substitute(l.lhs, ren), substitute(l.rhs, ren),
                           l.pos) for l in c.literals])


def _same_up_to_minted(got, sig, ref, ref_sig, minted, fv):
    """Whether one bijection of the symbols a call minted, constants and
    variables, renames got into ref.  A symbol can only go to one that
    occurs in the same clauses once all minted symbols are blinded."""
    got, syms = _lifted(got, sig, minted, fv)
    ref, ref_syms = _lifted(ref, ref_sig, minted, fv)

    def classes(clauses, syms):
        out = {}
        for s in syms:
            ren = {v: free("#" if v is not s else "*", v.ty) for v in syms}
            profile = sorted(repr(_renamed(c, ren)) for c in clauses
                             if s in c.free_vars())
            out.setdefault((repr(s.ty), tuple(profile)), []).append(s)
        return out

    mine, theirs = classes(got, syms), classes(ref, ref_syms)
    if {k: len(v) for k, v in mine.items()} \
            != {k: len(v) for k, v in theirs.items()}:
        return False
    keys = sorted(mine)
    choices = [itertools.permutations(theirs[k]) for k in keys]
    for n, pick in enumerate(itertools.product(*choices)):
        assert n < 1000, "too many symbols alike"
        ren = {s: t for k, ts in zip(keys, pick)
               for s, t in zip(mine[k], ts)}
        if {_renamed(c, ren) for c in got} == ref:
            return True
    return False


def _assert_clausified_alike(lits, threshold, sig=None, ref_sig=None):
    """normalize and the reference give the same clauses and mint the
    same symbols, from signatures in the same state.  Where a call mints
    more than one symbol the two may mint them in another order; then
    they mint as many, of the same types, and one renaming of what they
    minted turns the one's clauses into the other's."""
    sig = sig or Signature()
    ref_sig = ref_sig or sig.copy()
    assert _signature_state(sig) == _signature_state(ref_sig)
    sk, fv, old = _signature_state(sig)
    c = Clause(lits)
    got = normalize(c, sig, threshold)
    ref = reference_normalize(c, ref_sig, threshold)
    if got == ref and _signature_state(sig) == _signature_state(ref_sig):
        return got
    assert sig._sk - sk + sig._fv - fv > 1, (c, threshold)
    assert (sig._sk, sig._fv) == (ref_sig._sk, ref_sig._fv), c
    minted = set(sig.constants) - set(old)
    assert minted == set(ref_sig.constants) - set(old), c
    assert sorted(repr(sig.constants[k]) for k in minted) \
        == sorted(repr(ref_sig.constants[k]) for k in minted), c
    assert _same_up_to_minted(got, sig, ref, ref_sig, minted, fv), \
        (c, threshold)
    # later calls continue from the same declarations
    ref_sig.constants.update(sig.constants)
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
    # inner Skolemization: X occurs in the clause but not under ∃y, so
    # the Skolem term is a constant
    (c,) = _assert_clausified_alike(
        [prop_literal(canon(disj(neg(equality(fx, fx)), q)), True),
         prop_literal(some_y, True)], 16)
    (sk_lit,) = [l for l in c.literals if l.lhs is not q]
    assert isinstance(spine(sk_lit.lhs)[1][0], Const)
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
