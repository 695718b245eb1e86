"""Span tracer for the traced benchmark run.

`Tracer.install` wraps the public entry points of each prover module
from the outside: the function is replaced in its defining module and in
every `ep_prover` module that imported it by name, and methods are
replaced on their class.  Nothing inside the prover changes.

Nothing is written while the prover runs: open spans sit on a stack in
memory, and each finished span is folded into per-name totals.  Self
time is computed from the span stack: when a span ends, its duration
minus the time its child spans took is added to its own name, and its
whole duration to the enclosing span's child time.  This stays right under recursion (`insert_new` re-enters
itself through `_emit_unified`).  Generator functions are timed over
each resumption, so their iteration is measured, not just their
creation.
"""

import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.events = Counter()      # outcomes counted at the boundary
        self._stack = []             # per open span: seconds in children
        self._undo = []              # (owner, attribute, original)

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, name, t0):
        dt = perf_counter() - t0
        child = self._stack.pop()
        self.self_s[name] += dt - child
        if self._stack:
            self._stack[-1] += dt

    def exclude(self, seconds):
        """Leave `seconds` spent outside the prover out of the open span."""
        if self._stack:
            self._stack[-1] += seconds

    def wrap(self, name, fn, outcome=None):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
            if outcome is not None:
                outcome(self.events, out)
            return out
        return traced

    def wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            return self._iterate(name, fn(*args, **kwargs))
        return traced

    def _iterate(self, name, it):
        while True:
            t0 = self._enter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(name, t0)
            yield item

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_function(self, module, attr, wrapper):
        """Replace module.attr wherever an ep_prover module holds it."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("ep_prover"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def install(self, spans):
        """spans: (span name, owner, attribute, kind, outcome) tuples,
        where owner is a module or a class and kind is "call" or
        "generator"."""
        for name, owner, attr, kind, outcome in spans:
            fn = getattr(owner, attr)
            if kind == "generator":
                wrapper = self.wrap_generator(name, fn)
            else:
                wrapper = self.wrap(name, fn, outcome)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
            else:
                self.patch_function(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# The prover's layer boundaries.  Span names are "<module>.<what>"; the
# benchmark reports "<span>_ms" (self time) and "<span>_calls".
# ---------------------------------------------------------------------------

def _count_subsumed(events, out):
    events["clauses.subsumes_hits"] += bool(out)


def _count_unifiers(events, out):
    events["unification.unifiers"] += len(out.unifiers)
    events["unification.exhausted"] += bool(out.exhausted)


def _count_not_pattern(events, out):
    events["unification.not_pattern"] += isinstance(out, str) \
        and out == "not_pattern"


def prover_spans():
    from ep_prover import (calculus, clauses, cli, cnf, modal, terms, tptp,
                           unification)
    from ep_prover.saturation import Saturation
    return [
        ("tptp.parse", tptp, "parse_problem", "call", None),
        ("modal.embed", modal, "embed", "call", None),
        ("cnf.preprocess", Saturation, "preprocess", "call", None),
        ("cnf.normalize", cnf, "normalize", "call", None),
        ("saturation.select", Saturation, "_select", "call", None),
        ("saturation.units", Saturation, "_units", "call", None),
        ("saturation.insert", Saturation, "insert_new", "call", None),
        ("saturation.enqueue", Saturation, "_enqueue", "call", None),
        ("calculus.simplify", calculus, "simplify", "call", None),
        ("calculus.para", calculus, "para_candidates", "generator", None),
        ("calculus.eqfac", calculus, "eqfac_candidates", "generator", None),
        ("calculus.ext", calculus, "bool_ext", "call", None),
        ("calculus.ext", calculus, "func_ext", "call", None),
        ("calculus.prim_subst", calculus, "prim_subst", "call", None),
        ("calculus.inj", calculus, "inj_rule", "call", None),
        ("clauses.subsumes", clauses, "subsumes", "call", _count_subsumed),
        ("clauses.alpha_key", clauses, "alpha_key", "call", None),
        ("clauses.rename", clauses, "rename_clause", "call", None),
        ("unification.pattern", unification, "pattern_unify", "call",
         _count_not_pattern),
        ("unification.pre", unification, "pre_unify", "call",
         _count_unifiers),
        ("terms.substitute", terms, "substitute", "call", None),
        ("terms.bind", terms.Subst, "bind", "call", None),
        ("tptp.print", cli, "build_proof_lines", "call", None),
        ("tptp.print", tptp, "print_proof", "call", None),
    ]
