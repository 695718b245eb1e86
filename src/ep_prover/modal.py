"""Embedding of quantified modal logic into classical HOL.

A problem carrying a `logic`-role specification is translated into a
classical THF0 problem over Kripke semantics: formulas become predicates
on a new base type of worlds, the connectives are lifted pointwise, the
modal operators quantify over an accessibility relation, and the chosen
modal system contributes the matching frame axioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import (
    Abs, Bound, Const, FALSE, FunType, O, Signature, SimpleType, Term, TRUE,
    app, base_type, bound, conj, const, constants, disj, equality, exists,
    forall, fun_type, iff, implies, lam, neg, shift, spine,
)
from .tptp import (
    AnnotatedFormula, LogicSpec, Problem, UnsupportedInputError,
)


MWORLD = base_type("mworld")
W2O = fun_type(MWORLD, O)
REL_TY = fun_type(MWORLD, fun_type(MWORLD, O))

MREL = const("mrel", REL_TY)

# lifted connectives, applied pointwise at a world
_CONNECTIVE_TYPES = {
    "mnot": fun_type(W2O, W2O),
    "mand": fun_type(W2O, fun_type(W2O, W2O)),
    "mor": fun_type(W2O, fun_type(W2O, W2O)),
    "mimplies": fun_type(W2O, fun_type(W2O, W2O)),
    "mequiv": fun_type(W2O, fun_type(W2O, W2O)),
    "mdia": fun_type(W2O, W2O),
    "mbox": fun_type(W2O, W2O),
}

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
    a = bound  # noqa: E731  (aliases keep the bodies readable)
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


def _connective_body(name: str, universal: bool) -> Term:
    """Defining lambda term for a lifted connective constant."""
    def at(f_idx, w_idx):
        return app(bound(f_idx, W2O), _w(w_idx))

    if name == "mnot":
        return lam(W2O, lam(MWORLD, neg(at(1, 0))))
    if name == "mand":
        return lam(W2O, lam(W2O, lam(MWORLD, conj(at(2, 0), at(1, 0)))))
    if name == "mor":
        return lam(W2O, lam(W2O, lam(MWORLD, disj(at(2, 0), at(1, 0)))))
    if name == "mimplies":
        return lam(W2O, lam(W2O, lam(MWORLD, implies(at(2, 0), at(1, 0)))))
    if name == "mequiv":
        return lam(W2O, lam(W2O, lam(MWORLD, iff(at(2, 0), at(1, 0)))))
    if name == "mdia":
        if universal:
            return lam(W2O, lam(MWORLD, exists(MWORLD, at(2, 0))))
        return lam(W2O, lam(MWORLD, exists(
            MWORLD, conj(app(MREL, _w(1), _w(0)), at(2, 0)))))
    if name == "mbox":
        if universal:
            return lam(W2O, lam(MWORLD, forall(MWORLD, at(2, 0))))
        return lam(W2O, lam(MWORLD, forall(
            MWORLD, implies(app(MREL, _w(1), _w(0)), at(2, 0)))))
    raise ValueError(f"unknown connective {name}")


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

@dataclass
class EmbeddingOutput:
    problem: Problem
    provenance: dict = field(default_factory=dict)  # name -> AnnotatedFormula


def uses_modal_operators(prob: Problem) -> bool:
    return any(k.name in ("$box", "$dia")
               for f in prob.formulas
               if f.role not in ("type", "logic")
               and isinstance(f.formula, Term)
               for k in constants(f.formula))


class _Translator:
    """Lifts terms of the modal source problem into the world-indexed
    classical signature, recording which helper constants were used."""

    def __init__(self, sig: Signature, universal: bool):
        self.sig = sig
        self.universal = universal
        self.connectives: list = []    # usage order
        self.quantifiers: list = []    # (kind, lifted type) usage order
        self.user_consts: dict = {}

    def _connective(self, name: str) -> Term:
        if name not in self.connectives:
            self.connectives.append(name)
        return const(name, _CONNECTIVE_TYPES[name])

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
        name = h.name
        if name == "~" and len(args) == 1:
            return app(self._connective("mnot"), self.term(args[0]))
        binary = {"&": "mand", "|": "mor", "=>": "mimplies",
                  "<=>": "mequiv"}
        if name in binary and len(args) == 2:
            return app(self._connective(binary[name]),
                       self.term(args[0]), self.term(args[1]))
        if name in ("$box", "$dia") and len(args) == 1:
            return app(self._connective("m" + name[1:]), self.term(args[0]))
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
        name = t.name
        if name == "~":
            return self._connective("mnot")
        if name in ("&", "|", "=>", "<=>"):
            binary = {"&": "mand", "|": "mor", "=>": "mimplies",
                      "<=>": "mequiv"}
            return self._connective(binary[name])
        if name in ("$box", "$dia"):
            return self._connective("m" + name[1:])
        lifted = lift_type(t.ty)
        self.user_consts[name] = lifted
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


def embed(prob: Problem, s5_mode: str = "relational") -> EmbeddingOutput:
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
        if not bt.startswith("$") and bt != "mworld":
            sig.declare_base_type(bt)

    tr = _Translator(sig, universal)
    axioms = [] if universal else frame_axioms(spec)

    translated = []
    for f in prob.formulas:
        if f.role in ("type", "logic", "definition"):
            continue
        lifted = tr.term(f.formula)
        if spec.consequence == "global" or f.role == "conjecture":
            wrapped = app(MVALID, lifted)
        else:
            wrapped = app(lifted, const("cw", MWORLD))
            sig.declare("cw", MWORLD)
        translated.append(AnnotatedFormula(
            f.name, f.role, wrapped, f.source))

    provenance = {}
    formulas = []

    def emit(name: str, ty: SimpleType, body=None):
        sig.declare(name, ty)
        provenance[name + "_type"] = AnnotatedFormula(
            name + "_type", "type", (name, ty))
        if body is not None:
            df = AnnotatedFormula(
                name + "_def", "definition",
                equality(const(name, ty), body))
            provenance[name + "_def"] = df
            formulas.append(df)

    provenance["mworld_type"] = AnnotatedFormula(
        "mworld_type", "type", ("mworld", "$tType"))
    if not universal:
        emit("mrel", REL_TY)
    for ax in axioms:
        p = ax.name[len("mrel_"):]
        emit(p, _PROP_TY, _property_body(p))
    emit("mvalid", fun_type(W2O, O), MVALID_BODY)
    for name in tr.connectives:
        emit(name, _CONNECTIVE_TYPES[name],
             _connective_body(name, universal))
    exists_first = sorted(tr.quantifiers, key=lambda k: k[0] == "forall")
    for kind, lifted in exists_first:
        qname = quantifier_name(kind, lifted)
        qty = fun_type(fun_type(lifted, W2O), W2O)
        quant = forall if kind == "forall" else exists
        body = lam(fun_type(lifted, W2O), lam(MWORLD, quant(
            lifted, app(bound(2, fun_type(lifted, W2O)),
                        bound(0, lifted), _w(1)))))
        emit(qname, qty, body)
    for name, ty in sorted(tr.user_consts.items()):
        sig.declare(name, ty)

    formulas.extend(axioms)
    formulas.extend(translated)
    for ax in axioms:
        provenance[ax.name] = ax

    out = Problem(sig, formulas, None, prob.name)
    _check_no_residue(out)
    return EmbeddingOutput(out, provenance)


def _check_no_residue(prob: Problem):
    if uses_modal_operators(prob):
        raise UnsupportedInputError(
            "embedding left modal operators in the output")
