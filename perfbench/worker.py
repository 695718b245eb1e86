"""One benchmark job in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json request>'

The request's "kind" is one of
  import  time `import ep_prover.cli` (the CLI's set-up cost);
  cli     run `cli.main(argv)` once, capturing its stdout;
  sweep   decide a seeded slice of propositional formulas in-process
          with `saturate`, naming off, as a library caller would.
With "trace": true the run is wrapped by the span tracer.  The worker
prints one JSON object as the last line of its standard output.
"""

import gc
import json
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


# Speed calibration.  On a shared host the speed can drift by 2x within
# a minute as other tenants load the cores, and CPU time drifts with it,
# so each timing is scaled to a reference speed.  A fixed loop of the kind of
# work the prover does (tuple hashing, dict lookups, small objects) is
# timed before and after the measured work and, on a timer signal, every
# 0.1 s during it; the loop's own time is taken out of the measurement,
# and the rest is multiplied by REFERENCE_S / (the loop's mean time).  A
# prover change does not touch the loop, so it moves scaled times in full.
REFERENCE_S = 0.004
TICK_S = 0.1


class _Cell:
    __slots__ = ("n", "key")

    def __init__(self, n, key):
        self.n = n
        self.key = key


def _reference_loop() -> float:
    # the cycle collector stays off: a collection of the prover's heap
    # triggered by the loop's allocations would be timed as loop time
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(4000):
        key = (i & 511, i >> 9)
        cell = table.get(key)
        if cell is None:
            table[key] = cell = _Cell(i, key)
        acc += cell.n & 3
    del table
    dt = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return dt


class SpeedMeter:
    """Times a block of work and samples the reference loop around and
    during it.  `stolen` is the time the samples inside the block took;
    a tracer, if given, leaves that time out of its spans."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __enter__(self):
        self.samples = [_reference_loop()]
        self.stolen = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_reference_loop())
        dt = time.perf_counter() - t0
        self.stolen += dt
        if self.tracer is not None:
            self.tracer.exclude(dt)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._t0 - self.stolen
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(_reference_loop())
        return False

    @property
    def scale(self) -> float:
        return REFERENCE_S * len(self.samples) / sum(self.samples)


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_source():
    import ep_prover
    here = os.path.dirname(os.path.abspath(ep_prover.__file__))
    if here != os.path.join(SRC, "ep_prover"):
        raise SystemExit(f"ep_prover imported from {here}, not from {SRC}")


def job_import(req):
    with SpeedMeter() as meter:
        import ep_prover.cli  # noqa: F401
    _check_source()
    return {"import_s": meter.elapsed * meter.scale,
            "wall_s": meter.elapsed}


def _count_rules(rules: dict, result):
    for d in result.records.values():
        rules[d.rule] = rules.get(d.rule, 0) + 1


def _layers(tracer, rules: dict, factor: float):
    from ep_prover import terms
    return {
        "calls": dict(tracer.calls),
        "self_ms": {k: v * 1000.0 * factor
                    for k, v in tracer.self_s.items()},
        "events": dict(tracer.events),
        "rules": rules,
        "interned": len(terms._term_table),
    }


def job_cli(req):
    import contextlib
    import io
    import traceback

    import ep_prover.cli as cli
    _check_source()
    results = []
    real_saturate = cli.saturate

    def capture(problem, config=None, pre=None):
        res = real_saturate(problem, config, pre)
        results.append((problem, res))
        return res

    cli.saturate = capture
    tracer = None
    if req.get("trace"):
        from spans import Tracer, prover_spans
        tracer = Tracer()
        tracer.install(prover_spans())
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with SpeedMeter(tracer) as meter:
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(req["argv"])
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:
            rc = None
            crash = f"{type(e).__name__}: " \
                + traceback.format_exc(limit=-1)[-400:]
    if tracer is not None:
        tracer.uninstall()
    cli.saturate = real_saturate

    factor = meter.scale
    reply = {"solve_s": meter.elapsed * factor, "wall_s": meter.elapsed,
             "rc": rc,
             "stdout": out.getvalue(),
             "stderr": err.getvalue()[-2000:], "crash": crash,
             "rss_mb": _peak_rss_mb()}
    if tracer is not None:
        rules = {}
        for _, res in results:
            _count_rules(rules, res)
        reply["layers"] = _layers(tracer, rules, factor)
    if req.get("replay") and results:
        # replay_proof re-derives every step and also runs
        # check_ground_steps, the exhaustive valuation check
        from ep_prover.replay import replay_proof
        problem, res = results[-1]
        reply["replay"] = (["no refutation to replay"]
                           if res.empty_id is None
                           else replay_proof(res, problem))
    return reply


def job_sweep(req):
    from inputs import formula_slice, satisfiable

    from ep_prover.terms import AND, IFF, IMPLIES, NOT, O, OR
    from ep_prover.terms import Signature, app, canon, const
    from ep_prover.tptp import AnnotatedFormula, Problem
    from ep_prover.saturation import ProverConfig, saturate
    _check_source()

    atoms = tuple(const(f"p{i}", O) for i in range(4))
    ops = {"|": OR, "&": AND, "=>": IMPLIES, "<=>": IFF}

    def to_term(node):
        if isinstance(node, int):
            return atoms[node]
        if node[0] == "~":
            return app(NOT, to_term(node[1]))
        return app(ops[node[0]], to_term(node[1]), to_term(node[2]))

    nodes = formula_slice(req["seed"], req["start"] + req["count"])
    nodes = nodes[req["start"]:]
    tracer = None
    if req.get("trace"):
        from spans import Tracer, prover_spans
        tracer = Tracer()
        tracer.install(prover_spans())
    # definitional naming would mint fresh atoms and blow up the tiny
    # ground search space, so it is switched off for these formulas
    config = ProverConfig(time_limit=5, naming_threshold=10 ** 9)
    times, statuses, rules = [], [], {}
    with SpeedMeter(tracer) as meter:
        for node in nodes:
            t0 = time.perf_counter()
            stolen = meter.stolen
            sig = Signature()
            for c in atoms:
                sig.declare(c.name, O)
            prob = Problem(sig, [AnnotatedFormula("f", "axiom",
                                                  canon(to_term(node)))],
                           None, "sample.p")
            res = saturate(prob, config)
            times.append(time.perf_counter() - t0 - (meter.stolen - stolen))
            statuses.append(res.status)
            if tracer is not None:
                _count_rules(rules, res)
    if tracer is not None:
        tracer.uninstall()
    expected = ["Satisfiable" if satisfiable(n) else "Unsatisfiable"
                for n in nodes]
    reply = {"times_s": [t * meter.scale for t in times],
             "wall_s": sum(times), "statuses": statuses,
             "expected": expected, "rss_mb": _peak_rss_mb()}
    if tracer is not None:
        reply["layers"] = _layers(tracer, rules, meter.scale)
    return reply


JOBS = {"import": job_import, "cli": job_cli, "sweep": job_sweep}


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    reply = JOBS[request["kind"]](request)
    sys.stdout.write(json.dumps(reply) + "\n")
