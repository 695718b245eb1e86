#!/usr/bin/env python3
"""Benchmark of the ep-prover: time to a checked SZS verdict and proof.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload {cantor,prop_sweep,corpus}
                           --seed N --seconds S --trace {0,1}
  python3 perfbench/run.py --self-check

A run repeats whole rounds of its workload until S seconds have passed
and prints one JSON object as its last line: the end-to-end metrics with
--trace 0, the per-layer metrics (and the tracing overhead) with
--trace 1.  Every verdict and every printed proof is checked against
answers computed outside the prover.  See perfbench/README.md.
"""

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import FAULTS, write_faults  # noqa: E402

WORK = os.path.join(HERE, "work")
WORKER_TIMEOUT_S = 120
SETUP_SAMPLES = 7
# A prop_sweep round decides 3,000 formulas, 1,000 in each of three
# processes: the work in one slice of 1,000 varies too much from seed to
# seed (12 % between the quartiles of solve_s over 5 seeds).
SWEEP_PROCESSES = 3
SWEEP_COUNT = 1000
SMALL_SWEEP_COUNT = 20

# The README's fixed 15-rule vocabulary for inference steps.
VOCABULARY = frozenset({
    "neg_conjecture", "defexp_and_simp_and_etaexpand", "miniscope", "cnf",
    "func_ext", "bool_ext", "paramod_ordered", "eqfactor_ordered", "pre_uni",
    "pattern_uni", "rewrite", "simp", "prim_subst", "inj", "instantiate",
})
# Exit code the README assigns to each SZS status.
EXIT_CODES = {"Theorem": 0, "Unsatisfiable": 0, "ContradictoryAxioms": 0,
              "Satisfiable": 0, "CounterSatisfiable": 0,
              "GaveUp": 1, "Timeout": 1, "Error": 2}
REFUTATIONS = ("Theorem", "Unsatisfiable", "ContradictoryAxioms")
GAVE_UP = ("GaveUp", "Timeout", "Error")

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "verdict_p50_ms": "ms",
             "verdict_p99_ms": "ms", "peak_rss_mb": "MB"}

# span -> reported as "<span>_ms" (self time summed over the round)
TIMED_SPANS = (
    "unification.pre", "unification.pattern", "terms.substitute",
    "terms.bind", "clauses.subsumes", "clauses.alpha_key",
    "calculus.simplify", "saturation.units", "saturation.select",
    "saturation.enqueue", "saturation.insert", "cnf.normalize",
    "calculus.para", "calculus.eqfac", "calculus.ext", "calculus.prim_subst",
    "calculus.inj", "clauses.rename", "tptp.parse", "modal.embed",
    "cnf.preprocess", "tptp.print",
)
# span -> reported as "<span>_calls"
COUNTED_SPANS = (
    "unification.pre", "unification.pattern", "terms.substitute",
    "clauses.subsumes", "clauses.alpha_key", "calculus.simplify",
    "cnf.normalize",
)


class BenchError(Exception):
    """The benchmark could not run (not a prover fault)."""


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def call_worker(request: dict) -> dict:
    """Run one job in a fresh interpreter and return its JSON reply, or
    {"crash": ...} if the interpreter died or ran out of time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           json.dumps(request)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crash": f"no reply within {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"worker exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-1000:]}"}
    return json.loads(lines[-1])


def call_worker_or_fail(request: dict) -> dict:
    reply = call_worker(request)
    if "crash" in reply:
        raise BenchError(f"{request['kind']} job failed: {reply['crash']}")
    return reply


def measure_setup() -> float:
    """Median import time of ep_prover.cli in a fresh interpreter."""
    call_worker_or_fail({"kind": "import"})   # compiles the bytecode once
    return statistics.median(
        call_worker_or_fail({"kind": "import"})["import_s"]
        for _ in range(SETUP_SAMPLES))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _top_level_split(s: str) -> list:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _closing(s: str, i: int) -> int:
    """Index of the bracket closing the one opened at s[i]."""
    depth = 0
    for j in range(i, len(s)):
        if s[j] in "([":
            depth += 1
        elif s[j] in ")]":
            depth -= 1
            if depth == 0:
                return j
    raise ValueError("unbalanced brackets")


def check_proof(lines: list, name: str) -> tuple:
    """Check a printed CNFRefutation; returns (problems, rules used)."""
    start = f"% SZS output start CNFRefutation for {name}"
    end = f"% SZS output end CNFRefutation for {name}"
    if start not in lines or end not in lines:
        return ["proof brackets missing"], set()
    body = "\n".join(lines[lines.index(start) + 1:lines.index(end)])
    entries = [e for e in re.split(r"\n(?=thf\()", body) if e.strip()]
    problems, defined, rules = [], set(), set()
    for e in entries:
        m = re.match(r"thf\(([^,]+),(\w+),", e)
        if m is None:
            problems.append(f"malformed entry: {e[:60]!r}")
            continue
        at = e.find("inference(")
        if at >= 0:
            try:
                inner = e[at + len("inference("):_closing(e, at + 9)]
            except ValueError:
                problems.append(f"{m.group(1)}: unbalanced inference")
                continue
            rule, status, parents = _top_level_split(inner)[:3]
            rules.add(rule)
            if rule not in VOCABULARY:
                problems.append(f"{m.group(1)}: rule {rule} not documented")
            for p in _top_level_split(parents.strip()[1:-1]):
                pid = p.split(":", 1)[0].strip()
                if pid not in defined:
                    problems.append(f"{m.group(1)}: parent {pid} not "
                                    "defined before use")
        defined.add(m.group(1))
    if not rules:
        problems.append("proof has no inference step")
    if not entries or not re.match(r"thf\([^,]+,\w+,\s*\(\s*\$false\s*\)",
                                   entries[-1]):
        problems.append("last step is not $false")
    return problems, rules


def szs_status(stdout: str, name: str):
    lines = stdout.splitlines()
    m = re.fullmatch(r"% SZS status (\w+) for (.+)", lines[0]) \
        if lines else None
    if m is None or m.group(2) != name or m.group(1) not in EXIT_CODES:
        return None
    return m.group(1)


class Op:
    """One CLI call and what its output must be."""

    def __init__(self, path, extra=(), expect=None, accept=None,
                 replay=False, needs_rule=None):
        self.name = os.path.basename(path)
        self.argv = [path, "-p", *extra]
        self.expect = expect            # required status, or None
        self.accept = accept            # fault input: acceptable statuses
        self.replay = replay
        self.needs_rule = needs_rule

    def judge(self, reply: dict) -> tuple:
        """(failed, wrong): wrong marks an incorrect definitive output."""
        if reply.get("crash"):
            if self.accept is None:
                print(f"{self.name}: {reply['crash']}", file=sys.stderr)
            return True, False
        status = szs_status(reply["stdout"], self.name)
        if status is None or reply["rc"] != EXIT_CODES[status]:
            if self.accept is None:
                print(f"{self.name}: no SZS status line or exit code "
                      f"{reply['rc']} does not match it", file=sys.stderr)
            return True, False
        problems = []
        if status in REFUTATIONS:
            problems, rules = check_proof(reply["stdout"].splitlines(),
                                          self.name)
            if self.needs_rule and self.needs_rule not in rules:
                problems.append(f"proof has no {self.needs_rule} step")
        if self.accept is not None:
            return status not in self.accept or bool(problems), False
        if status in GAVE_UP:
            return True, False
        problems += reply.get("replay", [])
        if status != self.expect:
            problems.append(f"got {status}, expected {self.expect}")
        for p in problems:
            print(f"{self.name}: {p}", file=sys.stderr)
        return bool(problems), bool(problems)


# ---------------------------------------------------------------------------
# Workloads.  Each returns the operations of one round; the seed only
# orders the problems for the fixed-problem workloads.
# ---------------------------------------------------------------------------

def cantor_ops(seed: int, small: bool) -> list:
    ops = [Op("problems/sur_cantor.p", expect="Theorem", replay=True)]
    if not small:
        ops.append(Op("problems/inj_cantor.p", expect="Theorem", replay=True,
                      needs_rule="inj"))
    random.Random(seed).shuffle(ops)
    return ops


def corpus_ops(seed: int, small: bool) -> list:
    expected = {}
    with open(os.path.join(ROOT, "problems/corpus/expected_status.txt"),
              encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                name, status = line.split()
                expected[name] = status
    names = sorted(expected)[:3] if small else sorted(expected)
    ops = [Op(f"problems/corpus/{n}", expect=expected[n]) for n in names]
    ops += [
        Op("problems/becker.p", ("--modal-s5", "relational"),
           expect="Theorem"),
        Op("problems/becker.p", ("--modal-s5", "universal"),
           expect="Theorem"),
        Op("problems/contradictory.p", expect="ContradictoryAxioms"),
    ]
    for name, path in write_faults(WORK).items():
        # fault inputs get a short time limit so that a run stays short
        # even once the prover searches them instead of crashing
        ops.append(Op(os.path.relpath(path, ROOT), ("-t", "10"),
                      accept=FAULTS[name][1]))
    random.Random(seed).shuffle(ops)
    return ops


def run_cli_round(ops: list, trace: bool) -> dict:
    rnd = {"attempted": len(ops), "failed": 0, "wrong": 0, "times": [],
           "rss": [], "layers": []}
    for op in ops:
        reply = call_worker({"kind": "cli", "argv": op.argv, "trace": trace,
                             "replay": op.replay})
        failed, wrong = op.judge(reply)
        rnd["failed"] += failed
        rnd["wrong"] += wrong
        if "solve_s" in reply:
            rnd["times"].append(reply["solve_s"])
            rnd["rss"].append(reply["rss_mb"])
        if "layers" in reply:
            rnd["layers"].append(reply["layers"])
    return rnd


def run_sweep_round(seed: int, count: int, trace: bool) -> dict:
    """Decide the seed's slice of SWEEP_PROCESSES * count formulas, count
    of them in each fresh process."""
    rnd = {"attempted": 0, "failed": 0, "wrong": 0, "times": [], "rss": [],
           "layers": []}
    for k in range(SWEEP_PROCESSES):
        reply = call_worker_or_fail({"kind": "sweep", "seed": seed,
                                     "start": k * count, "count": count,
                                     "trace": trace})
        for got, want in zip(reply["statuses"], reply["expected"]):
            rnd["failed"] += got != want
            rnd["wrong"] += got != want and got not in GAVE_UP
        rnd["attempted"] += count
        rnd["times"] += reply["times_s"]
        rnd["rss"].append(reply["rss_mb"])
        if "layers" in reply:
            rnd["layers"].append(reply["layers"])
    return rnd


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _p99(xs: list) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def end_to_end(rounds: list, setup_s: float) -> dict:
    med = statistics.median
    return {
        "setup_s": setup_s,
        "solve_s": med(sum(r["times"]) for r in rounds),
        "verdict_p50_ms": med(med(r["times"]) * 1000 for r in rounds),
        "verdict_p99_ms": med(_p99(r["times"]) * 1000 for r in rounds),
        "peak_rss_mb": med(max(r["rss"]) for r in rounds),
    }


def per_layer(rnd: dict) -> dict:
    """Layer metrics of one traced round, summed over its processes."""
    calls, self_ms, events, rules = {}, {}, {}, {}
    for lay in rnd["layers"]:
        for dst, src in ((calls, lay["calls"]), (self_ms, lay["self_ms"]),
                         (events, lay["events"]), (rules, lay["rules"])):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    out = {f"{s}_ms": self_ms.get(s, 0.0) for s in TIMED_SPANS}
    out.update({f"{s}_calls": calls.get(s, 0) for s in COUNTED_SPANS})
    out["unification.unifiers"] = events.get("unification.unifiers", 0)
    out["unification.exhausted"] = events.get("unification.exhausted", 0)
    out["unification.not_pattern_ratio"] = (
        events.get("unification.not_pattern", 0)
        / max(1, calls.get("unification.pattern", 0)))
    out["clauses.subsumes_hit_ratio"] = (
        events.get("clauses.subsumes_hits", 0)
        / max(1, calls.get("clauses.subsumes", 0)))
    out["saturation.picks"] = calls.get("saturation.select", 0)
    out["saturation.records"] = sum(rules.values())
    for rule in sorted(VOCABULARY):
        out[f"records.{rule}"] = rules.get(rule, 0)
    out["terms.interned"] = max((lay["interned"] for lay in rnd["layers"]),
                                default=0)
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    return "count"


def traced_metrics(plain: list, traced: list) -> dict:
    per_round = [per_layer(r) for r in traced]
    out = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if layer_unit(name) == "count":
            # counts repeat exactly in every round of a deterministic prover
            if len(set(values)) > 1:
                print(f"warning: {name} differs between rounds: {values}",
                      file=sys.stderr)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead"] = (
        statistics.median(sum(r["times"]) for r in traced)
        / statistics.median(sum(r["times"]) for r in plain))
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

WORKLOADS = ("cantor", "prop_sweep", "corpus")


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> dict:
    if workload == "prop_sweep":
        count = SMALL_SWEEP_COUNT if small else SWEEP_COUNT

        def one_round(traced):
            return run_sweep_round(seed, count, traced)
    else:
        ops = (cantor_ops if workload == "cantor" else corpus_ops)(seed,
                                                                   small)

        def one_round(traced):
            return run_cli_round(ops, traced)

    setup_s = None if trace else measure_setup()
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        plain.append(one_round(False))
        if trace:
            traced.append(one_round(True))
        if time.perf_counter() - t0 >= seconds:
            break
    rounds = plain + traced
    if any(not r["times"] for r in rounds):
        raise BenchError("a round solved nothing")
    if trace:
        values = traced_metrics(plain, traced)
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in values.items()}
    else:
        values = end_to_end(plain, setup_s)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in E2E_UNITS.items()}
    return {
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def self_check() -> int:
    """Run each workload once on a small input, traced and untraced, and
    check that the report has every metric BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            rep = run(w["name"], seed=1, seconds=0, trace=bool(trace),
                      small=True)
            got = {k: v["unit"] for k, v in rep["metrics"].items()}
            problems = []
            if set(rep) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"report keys {sorted(rep)}")
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in set(got) & set(want[trace])
                               if got[k] != want[trace][k])
                problems.append(f"missing {missing} extra {extra} "
                                f"unit mismatch {units}")
            if not rep["correct"] or rep["attempted"] < 1:
                problems.append("incorrect output or nothing attempted")
            bad += bool(problems)
            print(f"{w['name']:<11} trace={trace} attempted="
                  f"{rep['attempted']} failed={rep['failed']} "
                  f"metrics={len(got)} "
                  + ("ok" if not problems else "; ".join(problems)))
    print("self-check " + ("ok" if not bad else "FAILED"))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src/ep_prover/cli.py")) \
            or not os.path.isdir(os.path.join(ROOT, "problems/corpus")):
        print(f"no prover sources under {ROOT}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        report = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
