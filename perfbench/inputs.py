"""Inputs the benchmark makes itself: the seeded propositional slice and
the three fault problems.

Nothing here imports the prover, so the expected answers (truth tables)
are computed independently of it.
"""

import os
import random

N_ATOMS = 4
BUDGET = 8
BINOPS = ("|", "&", "=>", "<=>")


def gen_formula(rng: random.Random, budget: int):
    """Random formula tree: an atom index, ("~", f) or (op, f, g).

    The distribution (4 atoms, size budget 8, 25 % early leaves, 30 %
    negations) matches the prover's propositional acceptance sweep.
    """
    if budget == 0 or rng.random() < 0.25:
        return rng.randrange(N_ATOMS)
    if rng.random() < 0.3:
        return ("~", gen_formula(rng, budget - 1))
    left = rng.randint(0, budget - 1)
    return (rng.choice(BINOPS), gen_formula(rng, left),
            gen_formula(rng, budget - 1 - left))


def formula_slice(seed: int, count: int) -> list:
    """The first `count` distinct formulas drawn with `seed`, in order."""
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        node = gen_formula(rng, BUDGET)
        if node not in seen:
            seen.add(node)
            out.append(node)
    return out


def evaluate(node, mask: int) -> bool:
    if isinstance(node, int):
        return bool(mask >> node & 1)
    op = node[0]
    if op == "~":
        return not evaluate(node[1], mask)
    x, y = evaluate(node[1], mask), evaluate(node[2], mask)
    if op == "|":
        return x or y
    if op == "&":
        return x and y
    if op == "=>":
        return (not x) or y
    return x == y


def satisfiable(node) -> bool:
    """Truth-table satisfiability over all 2^4 valuations."""
    return any(evaluate(node, m) for m in range(1 << N_ATOMS))


# ---------------------------------------------------------------------------
# Fault inputs.  Each one trips a known defect of the prover; the
# benchmark keeps them in the corpus workload and counts them as failed
# operations until the prover handles them.
# ---------------------------------------------------------------------------

def _overweight_theorem() -> str:
    # p @ t |- p @ t with t = 120 nested (g @ _ @ a): a trivial theorem
    # whose input clauses exceed the clause-weight cut
    t = "a"
    for _ in range(120):
        t = f"( g @ {t} @ a )"
    return ("thf(g_type,type,( g: $i > $i > $i )).\n"
            "thf(a_type,type,( a: $i )).\n"
            "thf(p_type,type,( p: $i > $o )).\n"
            f"thf(ax,axiom,( p @ {t} )).\n"
            f"thf(goal,conjecture,( p @ {t} )).\n")


def _deep_term() -> str:
    # a 3,000-deep f @ ... term: deeper than the interpreter's default
    # recursion limit
    t = "a"
    for _ in range(3000):
        t = f"( f @ {t} )"
    return ("thf(f_type,type,( f: $i > $i )).\n"
            "thf(a_type,type,( a: $i )).\n"
            "thf(p_type,type,( p: $i > $o )).\n"
            f"thf(goal,conjecture,( ( p @ {t} ) => ( p @ {t} ) )).\n")


def _cyclic_definitions() -> str:
    return ("thf(q_type,type,( q: $o )).\n"
            "thf(r_type,type,( r: $o )).\n"
            "thf(q_def,definition,( q = r )).\n"
            "thf(r_def,definition,( r = q )).\n"
            "thf(goal,conjecture,q).\n")


# file name -> (text maker, statuses that count as handled); the exit
# code must also be the README's code for the status
FAULTS = {
    "fault_overweight.p": (_overweight_theorem, ("Theorem", "GaveUp")),
    "fault_deep_term.p": (_deep_term, ("Theorem", "GaveUp", "Error")),
    "fault_cyclic_defs.p": (_cyclic_definitions, ("Error",)),
}


def write_faults(directory: str) -> dict:
    """Write the fault problems; returns file name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, (make, _) in FAULTS.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(make())
        paths[name] = path
    return paths
