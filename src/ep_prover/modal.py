"""Embedding of quantified modal logic into classical HOL.

A problem carrying a `logic`-role specification is translated into a
classical THF0 problem over Kripke semantics: formulas become predicates
on a new base type of worlds, the connectives are lifted pointwise, the
modal operators quantify over an accessibility relation, and the chosen
modal system contributes the matching frame axioms.
"""

from __future__ import annotations

from .terms import (
    Abs, Bound, Const, FALSE, FunType, O, Signature, SimpleType, Term, TRUE,
    app, arg_types, base_type, bound, canon, conj, const, constants,
    equality, exists, forall, fun_type, implies, lam, shift, spine,
    wrap_binders,
)
from .tptp import (
    MODAL_OPERATORS, AnnotatedFormula, LogicSpec, Problem,
    UnsupportedInputError,
)
from .cnf import formula_kind


MWORLD = base_type("mworld")
W2O = fun_type(MWORLD, O)
REL_TY = fun_type(MWORLD, fun_type(MWORLD, O))

MREL = const("mrel", REL_TY)

# Name of the lifted constant that replaces each connective and modal
# operator; the connectives are lifted pointwise at a world.
_LIFTED = {"~": "mnot", "&": "mand", "|": "mor", "=>": "mimplies",
           "<=>": "mequiv", "$box": "mbox", "$dia": "mdia"}

_PROP_TY = fun_type(REL_TY, O)

# accessibility-relation properties used as frame axioms
_SYSTEM_PROPERTIES = {
    "K": (),
    "D": ("mserial",),
    "T": ("mreflexive",),
    "B": ("mreflexive", "msymmetric"),
    "S4": ("mreflexive", "mtransitive"),
    "S5": ("mreflexive", "meuclidean"),
}

_AXIOM_PROPERTIES = {
    "K": (),
    "D": ("mserial",),
    "T": ("mreflexive",),
    "B": ("msymmetric",),
    "4": ("mtransitive",),
    "5": ("meuclidean",),
}


def _w(i: int) -> Term:
    return bound(i, MWORLD)


def _property_body(name: str) -> Term:
    """Defining lambda term for a relation property constant."""
    r = REL_TY

    def rel(i, j, k):
        return app(bound(i, r), _w(j), _w(k))

    if name == "mreflexive":
        return lam(r, forall(MWORLD, rel(1, 0, 0)))
    if name == "msymmetric":
        return lam(r, forall(MWORLD, forall(
            MWORLD, implies(rel(2, 1, 0), rel(2, 0, 1)))))
    if name == "mserial":
        return lam(r, forall(MWORLD, exists(MWORLD, rel(2, 1, 0))))
    if name == "mtransitive":
        return lam(r, forall(MWORLD, forall(MWORLD, forall(
            MWORLD, implies(conj(rel(3, 2, 1), rel(3, 1, 0)),
                            rel(3, 2, 0))))))
    if name == "meuclidean":
        return lam(r, forall(MWORLD, forall(MWORLD, forall(
            MWORLD, implies(conj(rel(3, 2, 1), rel(3, 2, 0)),
                            rel(3, 1, 0))))))
    raise ValueError(f"unknown relation property {name}")


def _connective_body(c: Const, universal: bool) -> Term:
    """Defining lambda term for the lifted form of connective c."""
    def at(f_idx, w_idx):
        return app(bound(f_idx, W2O), _w(w_idx))

    if c.name == "$dia":
        if universal:
            return lam(W2O, lam(MWORLD, exists(MWORLD, at(2, 0))))
        return lam(W2O, lam(MWORLD, exists(
            MWORLD, conj(app(MREL, _w(1), _w(0)), at(2, 0)))))
    if c.name == "$box":
        if universal:
            return lam(W2O, lam(MWORLD, forall(MWORLD, at(2, 0))))
        return lam(W2O, lam(MWORLD, forall(
            MWORLD, implies(app(MREL, _w(1), _w(0)), at(2, 0)))))
    n = len(arg_types(c.ty))
    return wrap_binders(
        [W2O] * n, lam(MWORLD, app(c, *[at(n - i, 0) for i in range(n)])))


MVALID = const("mvalid", fun_type(W2O, O))
MVALID_BODY = lam(W2O, forall(MWORLD, app(bound(1, W2O), _w(0))))


# ---------------------------------------------------------------------------
# Types: lifting and name mangling
# ---------------------------------------------------------------------------

def lift_type(ty: SimpleType) -> SimpleType:
    if ty is O:
        return W2O
    if isinstance(ty, FunType):
        return fun_type(lift_type(ty.arg), lift_type(ty.res))
    return ty


def _plain_type_str(ty: SimpleType) -> str:
    """Type rendering used by the quantifier-constant name mangling."""

    def wrap(t):
        s = _plain_type_str(t)
        return f"({s})" if isinstance(t, FunType) else s

    if isinstance(ty, FunType):
        return f"{wrap(ty.arg)}>{wrap(ty.res)}"
    return ty.name


def mangle_type(ty: SimpleType) -> str:
    s = "(" + _plain_type_str(ty) + ")"
    return (s.replace("$", "_d_").replace(">", "_t_")
             .replace("(", "_o_").replace(")", "_c_"))


def quantifier_name(kind: str, lifted: SimpleType) -> str:
    return f"m{kind}_const_{mangle_type(lifted)}"


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------

def uses_modal_operators(prob: Problem) -> bool:
    return any(k.name in MODAL_OPERATORS
               for f in prob.formulas
               if f.role not in ("type", "logic")
               and isinstance(f.formula, Term)
               for k in constants(f.formula))


class _Translator:
    """Lifts terms of the modal source problem into the world-indexed
    classical signature, recording which helper constants were used."""

    def __init__(self):
        self.connectives: list = []    # source connectives, usage order
        self.quantifiers: list = []    # (kind, lifted type) usage order
        self.user_consts: dict = {}

    def _quantifier(self, kind: str, lifted: SimpleType) -> Term:
        key = (kind, lifted)
        if key not in self.quantifiers:
            self.quantifiers.append(key)
        qty = fun_type(fun_type(lifted, W2O), W2O)
        return const(quantifier_name(kind, lifted), qty)

    def term(self, t: Term) -> Term:
        if t is TRUE or t is FALSE:
            return lam(MWORLD, t)
        if isinstance(t, Bound):
            return bound(t.index, lift_type(t.ty))
        if isinstance(t, Abs):
            return lam(lift_type(t.var_ty), self.term(t.body))
        if isinstance(t, Const):
            return self._constant(t)
        h, args = spine(t)
        if isinstance(h, Const):
            built = self._logical(h, args)
            if built is not None:
                return built
        return app(self.term(h), *[self.term(a) for a in args])

    def _logical(self, h: Const, args: tuple):
        """Lifted equation or quantification; None for other heads."""
        name = h.name
        if name == "=" and len(args) == 2:
            a, b = self.term(args[0]), self.term(args[1])
            # rigid terms: equality does not depend on the world
            return lam(MWORLD, equality(shift(a, 1), shift(b, 1)))
        if name in ("!!", "??") and len(args) == 1 \
                and isinstance(args[0], Abs):
            kind = "forall" if name == "!!" else "exists"
            lifted = lift_type(args[0].var_ty)
            body = lam(lifted, self.term(args[0].body))
            return app(self._quantifier(kind, lifted), body)
        return None

    def _constant(self, t: Const) -> Term:
        lifted = lift_type(t.ty)
        name = _LIFTED.get(t.name)
        if name is None:
            name = t.name
            self.user_consts[name] = lifted
        elif t not in self.connectives:
            self.connectives.append(t)
        return const(name, lifted)


def frame_axioms(spec: LogicSpec) -> list:
    """Accessibility-relation axioms for the requested modal system."""
    if spec.system is not None:
        if spec.system not in _SYSTEM_PROPERTIES:
            raise UnsupportedInputError(
                f"unknown modal system {spec.system}")
        props = _SYSTEM_PROPERTIES[spec.system]
    else:
        seen = []
        for a in spec.axioms:
            if a not in _AXIOM_PROPERTIES:
                raise UnsupportedInputError(f"unknown modal axiom {a}")
            for p in _AXIOM_PROPERTIES[a]:
                if p not in seen:
                    seen.append(p)
        props = tuple(seen)
    out = []
    for p in props:
        out.append(AnnotatedFormula(
            f"mrel_{p}", "axiom",
            app(const(p, _PROP_TY), MREL)))
    return out


def embed(prob: Problem, s5_mode: str = "relational") -> Problem:
    """Translate a modal problem into classical HOL.

    `s5_mode` selects between the relational S5 axiomatization and the
    universal-relation encoding that drops mrel altogether.
    """
    spec = prob.logic_spec
    if spec is None:
        raise UnsupportedInputError(
            "modal operators used without a logic specification")
    universal = s5_mode == "universal" and spec.system == "S5"

    sig = Signature()
    sig.declare_base_type("mworld")
    for bt in prob.signature.base_types:
        if not bt.startswith("$"):
            sig.declare_base_type(bt)

    tr = _Translator()
    axioms = [] if universal else frame_axioms(spec)

    translated = []
    for f in prob.formulas:
        if f.role in ("type", "logic"):
            continue
        k = formula_kind(f.formula)
        if f.role == "definition" and k is not None and k[0] == "eq":
            # both sides lifted, so it still defines the constant; other
            # definitions are rejected by definition expansion
            wrapped = canon(equality(tr.term(k[1]), tr.term(k[2])))
        elif spec.consequence == "global" or f.role == "conjecture":
            wrapped = app(MVALID, tr.term(f.formula))
        else:
            wrapped = app(tr.term(f.formula), const("cw", MWORLD))
            sig.declare("cw", MWORLD)
        translated.append(AnnotatedFormula(f.name, f.role, wrapped))

    formulas = []

    def emit(name: str, ty: SimpleType, body=None):
        sig.declare(name, ty)
        if body is not None:
            formulas.append(AnnotatedFormula(
                name + "_def", "definition",
                equality(const(name, ty), body)))

    if not universal:
        emit("mrel", REL_TY)
    for ax in axioms:
        p = ax.name[len("mrel_"):]
        emit(p, _PROP_TY, _property_body(p))
    emit("mvalid", fun_type(W2O, O), MVALID_BODY)
    for c in tr.connectives:
        emit(_LIFTED[c.name], lift_type(c.ty),
             _connective_body(c, universal))
    exists_first = sorted(tr.quantifiers, key=lambda k: k[0] == "forall")
    for kind, lifted in exists_first:
        qname = quantifier_name(kind, lifted)
        qty = fun_type(fun_type(lifted, W2O), W2O)
        quant = forall if kind == "forall" else exists
        body = lam(fun_type(lifted, W2O), lam(MWORLD, quant(
            lifted, app(bound(2, fun_type(lifted, W2O)),
                        bound(0, lifted), _w(1)))))
        emit(qname, qty, body)

    # a source symbol named like one of ours would be merged with it
    source_names = set(prob.signature.constants) | prob.signature.base_types
    clash = sorted(source_names & (set(sig.constants) | {"mworld"}))
    if clash:
        raise UnsupportedInputError(
            f"symbol {clash[0]} is reserved by the modal embedding")
    for name, ty in sorted(tr.user_consts.items()):
        sig.declare(name, ty)

    formulas.extend(axioms)
    formulas.extend(translated)
    out = Problem(sig, formulas, None, prob.name)
    _check_no_residue(out)
    return out


def _check_no_residue(prob: Problem):
    if uses_modal_operators(prob):
        raise UnsupportedInputError(
            "embedding left modal operators in the output")
