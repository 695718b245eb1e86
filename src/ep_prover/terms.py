"""Simple types and interned spine-notation lambda terms.

Terms are locally nameless (de Bruijn indices for bound variables) and
perfectly shared: every structurally identical term is represented by a
single interned node, so alpha-equivalence is pointer equality.  The
canonical stored form is beta-normal eta-long; `canon` converts any
well-typed term into it.

Canonicity is decided when a node is interned, like its free variables
and size, by a compositional rule:

- an atom (constant, free or bound variable) is canonical iff its type
  is a base type;
- an abstraction is canonical iff its body is;
- an application is canonical iff its head is not an abstraction, its
  type is a base type and every argument is canonical.

A canonical node's `_canon` slot holds the node itself, so `canon` is
O(1) on it; on any other node the slot memoizes its canonical form once
`canon` has computed it.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Iterator, Optional


class TermError(Exception):
    """Ill-typed term construction or invalid term operation."""


# ---------------------------------------------------------------------------
# Simple types
# ---------------------------------------------------------------------------

class SimpleType:
    __slots__ = ("uid", "tptp")

    uid: int
    tptp: str           # TPTP rendering, see type_str


class BaseType(SimpleType):
    __slots__ = ("name",)

    def __repr__(self):
        return self.name


class FunType(SimpleType):
    __slots__ = ("arg", "res")

    def __repr__(self):
        return f"({self.arg!r}>{self.res!r})"


_BARE_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*|\$\$?[a-zA-Z0-9_]+|[0-9]+")


def single_quoted(text: str) -> str:
    """text between single quotes, with backslash and quote escaped."""
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


@cache
def tptp_name(name: str) -> str:
    """name as printed: bare when it is a lower word, a dollar word or an
    integer, else single-quoted."""
    if _BARE_NAME.fullmatch(name):
        return name
    return single_quoted(name)


_type_table: dict = {}
_type_uid = 0


def base_type(name: str) -> BaseType:
    global _type_uid
    key = ("b", name)
    ty = _type_table.get(key)
    if ty is None:
        ty = BaseType.__new__(BaseType)
        ty.name = name
        ty.tptp = tptp_name(name)
        ty.uid = _type_uid = _type_uid + 1
        _type_table[key] = ty
    return ty


def fun_type(arg: SimpleType, res: SimpleType) -> FunType:
    global _type_uid
    key = ("f", arg.uid, res.uid)
    ty = _type_table.get(key)
    if ty is None:
        ty = FunType.__new__(FunType)
        ty.arg = arg
        ty.res = res
        left = f"( {arg.tptp} )" if isinstance(arg, FunType) else arg.tptp
        ty.tptp = f"{left} > {res.tptp}"
        ty.uid = _type_uid = _type_uid + 1
        _type_table[key] = ty
    return ty


def fn(*args: SimpleType, res: SimpleType) -> SimpleType:
    """Curried function type from argument types to a result type."""
    ty = res
    for a in reversed(args):
        ty = fun_type(a, ty)
    return ty


O = base_type("$o")
I = base_type("$i")


def arg_types(ty: SimpleType) -> tuple:
    out = []
    while isinstance(ty, FunType):
        out.append(ty.arg)
        ty = ty.res
    return tuple(out)


def result_type(ty: SimpleType) -> SimpleType:
    while isinstance(ty, FunType):
        ty = ty.res
    return ty


def type_str(ty: SimpleType) -> str:
    """Render a type in TPTP syntax; composite components get parentheses.
    The rendering is made once, when the type is interned."""
    return ty.tptp


def base_types_in(types) -> tuple:
    """Base types other than $o that occur in the given types, by uid."""
    found = set()
    stack = list(types)
    while stack:
        ty = stack.pop()
        if isinstance(ty, FunType):
            stack.extend((ty.arg, ty.res))
        else:
            found.add(ty)
    found.discard(O)
    return tuple(sorted(found, key=lambda ty: ty.uid))


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    __slots__ = ("ty", "tid", "fvs", "loose", "size", "_skey", "_canon")

    ty: SimpleType
    tid: int
    fvs: frozenset      # may be the very set of a subterm; see union_fvs
    loose: int          # number of binders the term reaches out of (0 = closed)
    size: int           # number of leaf symbol occurrences
    _skey: Optional[str]        # `skey` of an atom; filled lazily otherwise
    _canon: Optional["Term"]    # canonical form, once known; see canon

    @property
    def skey(self) -> str:
        """Structural sort key, stable across intern orders.  An atom's is
        built when it is interned; an application's or abstraction's on
        first read, since only literal sides are ever compared by it."""
        k = self._skey
        return k if k is not None else _fill_skey(self)


class Const(Term):
    __slots__ = ("name",)

    def __repr__(self):
        return self.name


class Free(Term):
    __slots__ = ("name",)

    def __repr__(self):
        return self.name


class Bound(Term):
    __slots__ = ("index",)

    def __repr__(self):
        return f"#{self.index}"


class Abs(Term):
    __slots__ = ("var_ty", "body")

    def __repr__(self):
        return f"(\\{self.var_ty!r}. {self.body!r})"


class App(Term):
    __slots__ = ("head", "args")

    def __repr__(self):
        return "(" + " ".join(map(repr, (self.head,) + self.args)) + ")"


_term_table: dict = {}
_term_tid = 0


def _register(key, node: Term, ty, fvs, loose, size, skey,
              canonical: bool) -> Term:
    global _term_tid
    node.ty = ty
    node.fvs = fvs
    node.loose = loose
    node.size = size
    node._skey = skey
    node._canon = node if canonical else None
    node.tid = _term_tid = _term_tid + 1
    _term_table[key] = node
    return node


def const(name: str, ty: SimpleType) -> Const:
    key = ("c", name, ty.uid)
    t = _term_table.get(key)
    if t is None:
        node = Const.__new__(Const)
        node.name = name
        t = _register(key, node, ty, frozenset(), 0, 1,
                      f"c{name}\x00{ty.uid}\x01", isinstance(ty, BaseType))
    return t


def free(name: str, ty: SimpleType) -> Free:
    key = ("v", name, ty.uid)
    t = _term_table.get(key)
    if t is None:
        node = Free.__new__(Free)
        node.name = name
        t = _register(key, node, ty, None, 0, 1,
                      f"v{name}\x00{ty.uid}\x01", isinstance(ty, BaseType))
        node.fvs = frozenset((node,))
    return t


def bound(index: int, ty: SimpleType) -> Bound:
    key = ("b", index, ty.uid)
    t = _term_table.get(key)
    if t is None:
        node = Bound.__new__(Bound)
        node.index = index
        t = _register(key, node, ty, frozenset(), index + 1, 1,
                      f"b{index}\x01", isinstance(ty, BaseType))
    return t


def lam(var_ty: SimpleType, body: Term) -> Abs:
    key = ("l", var_ty.uid, body.tid)
    t = _term_table.get(key)
    if t is None:
        node = Abs.__new__(Abs)
        node.var_ty = var_ty
        node.body = body
        t = _register(key, node, fun_type(var_ty, body.ty), body.fvs,
                      max(0, body.loose - 1), body.size, None,
                      body._canon is body)
    return t


def app(f: Term, *args: Term) -> Term:
    """Apply f to args, flattening nested applications (spine form)."""
    if not args:
        return f
    ty = f.ty
    for a in args:
        if not isinstance(ty, FunType):
            raise TermError(f"over-application: {f!r} applied to {len(args)} args")
        if ty.arg is not a.ty:
            raise TermError(f"argument type mismatch: expected {ty.arg!r}, got {a.ty!r}")
        ty = ty.res
    return _app(ty, f, args)


def _app(ty: SimpleType, head: Term, args) -> Term:
    """The interned application of head to the non-empty args, of type
    ty, without checking the argument types: for rebuilding a term from
    parts already known to fit."""
    if isinstance(head, App):
        args = head.args + tuple(args)
        head = head.head
    else:
        args = tuple(args)
    key = ("a", head.tid) + tuple([a.tid for a in args])
    t = _term_table.get(key)
    if t is None:
        node = App.__new__(App)
        node.head = head
        node.args = args
        fvs = head.fvs
        loose = head.loose
        size = head.size
        canonical = isinstance(ty, BaseType) and not isinstance(head, Abs)
        for a in args:
            if a.fvs:
                fvs = union_fvs(fvs, a.fvs)
            if a.loose > loose:
                loose = a.loose
            size += a.size
            if a._canon is not a:
                canonical = False
        t = _register(key, node, ty, fvs, loose, size, None, canonical)
    return t


def union_fvs(a: frozenset, b: frozenset) -> frozenset:
    """The union of two free-variable sets, as one of them when it
    already covers the other, so terms share their sets where they can."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _fill_skey(t: Term) -> str:
    """Build the `skey` of t and of every subterm that lacks one, with an
    explicit stack (deep terms do not recurse), memoizing each."""
    stack = [t]
    while stack:
        s = stack[-1]
        if s._skey is not None:
            stack.pop()
            continue
        if isinstance(s, Abs):
            parts = (s.body,)
        else:
            parts = (s.head,) + s.args
        missing = [p for p in parts if p._skey is None]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        if isinstance(s, Abs):
            s._skey = f"l{s.var_ty.uid}\x00" + s.body._skey
        else:
            s._skey = "a(" + "".join([p._skey for p in parts]) + ")"
    return t._skey


def spine(t: Term) -> tuple:
    """Head and argument list of a term (empty args for atoms)."""
    if isinstance(t, App):
        return t.head, t.args
    return t, ()


def strip_binders(t: Term) -> tuple:
    """Binder types and body of the leading abstraction prefix."""
    tys = []
    while isinstance(t, Abs):
        tys.append(t.var_ty)
        t = t.body
    return tys, t


def wrap_binders(tys, body: Term) -> Term:
    """Abstraction of body over binders of the types tys, outermost
    first: the inverse of `strip_binders`."""
    for ty in reversed(tys):
        body = lam(ty, body)
    return body


def head_of(t: Term) -> Term:
    """Head symbol of t under its leading binders."""
    return spine(strip_binders(t)[1])[0]


def same_rigid_head(hs: Term, ht: Term) -> bool:
    """True if rigid head hs (a constant, a bound variable or a free
    variable treated as a constant) is also the head ht."""
    if isinstance(hs, Bound):
        return isinstance(ht, Bound) and ht.index == hs.index
    return isinstance(hs, (Const, Free)) and hs is ht


def is_eta_var(t: Term, kind=Free):
    """The atom of class `kind` (by default a free variable) whose
    eta-expansion t is, if there is one."""
    h = head_of(t)
    if isinstance(h, kind) and t is canon(h):
        return h
    return None


def constants(t: Term) -> Iterator[Const]:
    """Constant occurrences of t in preorder, heads before arguments."""
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Const):
            yield s
        elif isinstance(s, Abs):
            stack.append(s.body)
        elif isinstance(s, App):
            stack.extend(reversed(s.args))
            stack.append(s.head)


def replace_consts(t: Term, mapping: dict) -> Term:
    """Replace constants by closed terms (by name), without normalizing."""
    if isinstance(t, Const):
        return mapping.get(t.name, t)
    if isinstance(t, Abs):
        return lam(t.var_ty, replace_consts(t.body, mapping))
    if isinstance(t, App):
        return app(replace_consts(t.head, mapping),
                   *[replace_consts(a, mapping) for a in t.args])
    return t


def number_vars(ts, out: list) -> dict:
    """Number the free variables of the terms ts by first occurrence
    (preorder, heads before arguments) and append to out the number of
    each occurrence.  Returns the {variable: number} map, in numbering
    order."""
    names: dict = {}
    for t in ts:
        if t.fvs:
            _number_vars(t, names, out)
    return names


def _number_vars(t: Term, names: dict, out: list):
    """`number_vars` of one term with free variables; only subterms with
    free variables are walked."""
    while isinstance(t, Abs):
        t = t.body
    if isinstance(t, Free):
        out.append(names.setdefault(t, len(names)))
        return
    if t.head.fvs:
        _number_vars(t.head, names, out)
    for a in t.args:
        if a.fvs:
            _number_vars(a, names, out)


def ordered_free_vars(ts) -> list:
    """Free variables of the terms ts in first-occurrence order."""
    return list(number_vars(ts, []))


# ---------------------------------------------------------------------------
# Logical constants
# ---------------------------------------------------------------------------

TRUE = const("$true", O)
FALSE = const("$false", O)
NOT = const("~", fn(O, res=O))
OR = const("|", fn(O, O, res=O))
AND = const("&", fn(O, O, res=O))
IMPLIES = const("=>", fn(O, O, res=O))
IFF = const("<=>", fn(O, O, res=O))

EQ_NAME = "="
PI_NAME = "!!"
SIGMA_NAME = "??"

LOGICAL_NAMES = {"$true", "$false", "~", "|", "&", "=>", "<=>", EQ_NAME,
                 PI_NAME, SIGMA_NAME}


def eq_const(ty: SimpleType) -> Const:
    return const(EQ_NAME, fn(ty, ty, res=O))


def pi_const(ty: SimpleType) -> Const:
    return const(PI_NAME, fn(fun_type(ty, O), res=O))


def sigma_const(ty: SimpleType) -> Const:
    return const(SIGMA_NAME, fn(fun_type(ty, O), res=O))


def neg(s: Term) -> Term:
    return app(NOT, s)


def disj(s: Term, t: Term) -> Term:
    return app(OR, s, t)


def conj(s: Term, t: Term) -> Term:
    return app(AND, s, t)


def implies(s: Term, t: Term) -> Term:
    return app(IMPLIES, s, t)


def iff(s: Term, t: Term) -> Term:
    return app(IFF, s, t)


def equality(s: Term, t: Term) -> Term:
    if s.ty is not t.ty:
        raise TermError("equation between terms of different types")
    return app(eq_const(s.ty), s, t)


def forall(var_ty: SimpleType, body: Term) -> Term:
    """Universal quantification over a de Bruijn body (Bound 0 is the var)."""
    return app(pi_const(var_ty), lam(var_ty, body))


def exists(var_ty: SimpleType, body: Term) -> Term:
    return app(sigma_const(var_ty), lam(var_ty, body))


def match_quant(t: Term, name: str) -> Optional[Abs]:
    """The abstraction under a quantifier constant application, if t is one."""
    if isinstance(t, App) and isinstance(t.head, Const) and t.head.name == name \
            and len(t.args) == 1 and isinstance(t.args[0], Abs):
        return t.args[0]
    return None


# ---------------------------------------------------------------------------
# de Bruijn operations
# ---------------------------------------------------------------------------

def shift(t: Term, d: int, cutoff: int = 0) -> Term:
    if d == 0 or t.loose <= cutoff:
        return t
    if isinstance(t, Bound):
        return bound(t.index + d, t.ty)
    if isinstance(t, Abs):
        return lam(t.var_ty, shift(t.body, d, cutoff + 1))
    if isinstance(t, App):
        return _app(t.ty, shift(t.head, d, cutoff),
                    [shift(a, d, cutoff) for a in t.args])
    return t


def _inst(t: Term, j: int, repl: Term) -> Term:
    """Replace Bound(j) by repl (shifted), decrementing higher indices.

    Substitution is hereditary: where Bound(j) heads an application, the
    shifted repl is reduced with the instantiated arguments at once
    (`_beta`), so no redex is built.  Instantiating a beta-normal
    eta-long term with a beta-normal eta-long repl thus gives a
    beta-normal eta-long term."""
    if t.loose <= j:
        return t
    if isinstance(t, Bound):
        if t.index == j:
            return shift(repl, j)
        if t.index > j:
            return bound(t.index - 1, t.ty)
        return t
    if isinstance(t, Abs):
        return lam(t.var_ty, _inst(t.body, j + 1, repl))
    if isinstance(t, App):
        h = t.head
        args = [_inst(a, j, repl) for a in t.args]
        if isinstance(h, Bound) and h.index == j:
            return _beta(shift(repl, j), args)
        return _app(t.ty, _inst(h, j, repl), args)
    return t


def _beta(f: Term, args: list) -> Term:
    """f applied to the non-empty args, each leading abstraction of f
    taking the next argument through `_inst`."""
    n = 0
    while n < len(args) and isinstance(f, Abs):
        f = _inst(f.body, 0, args[n])
        n += 1
    if n == len(args):
        return f
    ty = f.ty
    for _ in range(n, len(args)):
        ty = ty.res
    return _app(ty, f, args[n:])


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def canon(t: Term) -> Term:
    """Canonical beta-normal eta-long representative, in one memoized
    pass: a redex is contracted on canonical parts (`_beta`, which keeps
    them canonical), and any other node is eta-expanded at its type."""
    c = t._canon
    if c is not None:
        return c
    if isinstance(t, Abs):
        res = lam(t.var_ty, canon(t.body))
    else:
        h, args = spine(t)
        args = [canon(a) for a in args]
        if isinstance(h, Abs):
            res = _beta(canon(h), args)
        else:
            ats = arg_types(t.ty)
            n = len(ats)
            if n:
                args = [shift(a, n) for a in args] \
                    + [canon(bound(n - 1 - k, ats[k])) for k in range(n)]
                h = shift(h, n)
            res = wrap_binders(
                ats, _app(result_type(t.ty), h, args) if args else h)
    t._canon = res
    return res


# ---------------------------------------------------------------------------
# Pattern inversion
# ---------------------------------------------------------------------------

def distinct_bound_args(args) -> bool:
    """True if args are pairwise distinct bound variables, the argument
    shape of a flexible head in Miller's pattern fragment."""
    seen = set()
    for a in args:
        if not isinstance(a, Bound) or a.index in seen:
            return False
        seen.add(a.index)
    return True


@cache
def invert_pattern(args: tuple, target: Term) -> Optional[Term]:
    """The solution for X of X args = target, where args are distinct
    bound variables: the abstraction of target over args.  None when
    target reaches a bound variable that is not among args.  Memoized on
    the interned args and target, which are never freed."""
    n = len(args)
    remap = {a.index: n - 1 - k for k, a in enumerate(args)}
    body = _remap_bounds(target, remap, 0)
    if body is None:
        return None
    return canon(wrap_binders([a.ty for a in args], body))


def _remap_bounds(t: Term, remap: dict, depth: int):
    """Rewrite loose bound indices through remap; None if one is missing."""
    if t.loose <= depth:
        return t
    if isinstance(t, Bound):
        j = t.index - depth
        if j in remap:
            return bound(remap[j] + depth, t.ty)
        return None
    if isinstance(t, Abs):
        body = _remap_bounds(t.body, remap, depth + 1)
        return None if body is None else lam(t.var_ty, body)
    if isinstance(t, App):
        h = _remap_bounds(t.head, remap, depth)
        if h is None:
            return None
        args = []
        for a in t.args:
            r = _remap_bounds(a, remap, depth)
            if r is None:
                return None
            args.append(r)
        return _app(t.ty, h, args)
    return t


# ---------------------------------------------------------------------------
# Substitution of free variables
# ---------------------------------------------------------------------------

def substitute(t: Term, mapping: dict) -> Term:
    """Capture-free substitution of closed terms for free variables; the
    result is canonical (beta-normal eta-long).

    t and the images are taken in canonical form (`canon` returns a
    canonical term at once), and the instance is built in canonical
    form in one pass: a substituted variable that heads an application
    is reduced with the substituted arguments straight away (`_beta`),
    and only the nodes above a substituted variable are rebuilt."""
    images = {}
    for v, r in mapping.items():
        if v.ty is not r.ty:
            raise TermError(f"binding type mismatch for {v!r}")
        if r.loose:
            raise TermError("substitution image must be closed")
        images[v] = canon(r)
    return _subst(canon(t), images, frozenset(images))


def _subst(t: Term, images: dict, dom: frozenset) -> Term:
    """Hereditary instance of the canonical t under images (closed and
    canonical, with domain dom)."""
    if dom.isdisjoint(t.fvs):
        return t
    if isinstance(t, Free):
        return images[t]
    if isinstance(t, Abs):
        return lam(t.var_ty, _subst(t.body, images, dom))
    # an application: a canonical leaf with free variables is a Free
    args = [_subst(a, images, dom) for a in t.args]
    h = t.head
    if h in dom:
        return _beta(images[h], args)
    return _app(t.ty, h, args)


class Subst:
    """Triangular substitution of closed terms for free variables.

    `map` records each binding as `bind` made it: the image of v is
    canonical, resolved through the bindings made before v, and free of
    v, so it can only mention variables bound later.  The bindings thus
    form a triangle, and resolving a variable (replacing the bound
    variables of its image by their resolved images, recursively) always
    terminates.  `apply` and `items` return fully resolved terms, the
    same as an idempotent map composed eagerly binding by binding.

    A Subst is never mutated after `bind` returns it, so `apply` memoizes
    its results per Subst, keyed by the interned term.
    """

    __slots__ = ("map", "_memo")

    def __init__(self, mapping: Optional[dict] = None):
        """The bindings of mapping, made in its order."""
        self.map = {}
        self._memo = {}
        for v, r in (mapping or {}).items():
            self.map = self.bind(v, r).map
            self._memo = {}

    def apply(self, t: Term) -> Term:
        """Canonical form of t with every bound variable resolved."""
        memo = self._memo
        out = memo.get(t)
        if out is not None:
            return out
        m = self.map
        # the bound variables t needs, through the images not yet resolved
        need = set()
        stack = [t]
        while stack:
            for v in stack.pop().fvs:
                if v in m and v not in need:
                    need.add(v)
                    if m[v] not in memo:
                        stack.append(m[v])
        # an image mentions only variables bound after its own, so
        # resolving in reverse binding order finds theirs resolved
        for v in reversed(m):
            if v in need:
                self._resolve(m[v])
        return self._resolve(t)

    def _resolve(self, t: Term) -> Term:
        """Memoized resolution of t, whose bound variables' images are
        all resolved already."""
        out = self._memo.get(t)
        if out is None:
            m = self.map
            hits = [v for v in t.fvs if v in m]
            if hits:
                out = substitute(t, {v: self._memo[m[v]] for v in hits})
            else:
                out = canon(t)
            self._memo[t] = out
        return out

    def bind(self, v: Free, r: Term) -> "Subst":
        """This substitution followed by {r/v}; itself if v is bound.
        The image is resolved first, and one that mentions v is refused,
        which keeps the bindings acyclic."""
        if v.ty is not r.ty:
            raise TermError(f"binding type mismatch for {v!r}")
        if r.loose:
            raise TermError("substitution image must be closed")
        if v in self.map:
            return self
        r = self.apply(r)
        if v in r.fvs:
            raise TermError(f"{v!r} occurs in its own binding")
        out = Subst.__new__(Subst)
        out.map = {**self.map, v: r}
        out._memo = {}
        return out

    def items(self, among=None):
        """(variable, resolved image) pairs, in binding order; only the
        variables in `among` when it is given."""
        return [(v, self.apply(img)) for v, img in self.map.items()
                if among is None or v in among]

    def __bool__(self):
        return bool(self.map)

    def __repr__(self):
        return "Subst(" + ", ".join(f"{v!r}:={r!r}"
                                    for v, r in self.items()) + ")"


# ---------------------------------------------------------------------------
# Positions
# ---------------------------------------------------------------------------
# A position is a tuple of integers.  At an App node, 0 descends into the
# head and k >= 1 into the k-th spine argument; at an Abs node, 0 descends
# into the body.

def replace_at(t: Term, pos: tuple, r: Term) -> Term:
    if not pos:
        if t.ty is not r.ty:
            raise TermError("replacement type mismatch")
        return r
    step = pos[0]
    if isinstance(t, App):
        if step == 0:
            return app(replace_at(t.head, pos[1:], r), *t.args)
        if 1 <= step <= len(t.args):
            args = list(t.args)
            args[step - 1] = replace_at(args[step - 1], pos[1:], r)
            return app(t.head, *args)
        raise TermError(f"invalid position step {step}")
    if isinstance(t, Abs):
        if step != 0:
            raise TermError(f"invalid position step {step}")
        return lam(t.var_ty, replace_at(t.body, pos[1:], r))
    raise TermError("position descends below a leaf")


def subterm_positions(t: Term) -> Iterator[tuple]:
    """All positions in preorder, the empty position first."""
    stack = [((), t)]
    while stack:
        pos, s = stack.pop()
        yield pos, s
        if isinstance(s, App):
            for k in range(len(s.args), 0, -1):
                stack.append((pos + (k,), s.args[k - 1]))
            stack.append((pos + (0,), s.head))
        elif isinstance(s, Abs):
            stack.append((pos + (0,), s.body))


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------

class Signature:
    """Constant declarations plus fresh-symbol supplies for one prover run."""

    def __init__(self):
        self.constants: dict[str, SimpleType] = {}
        self.system: set[str] = set()       # the minted constants
        self.base_types: set[str] = {"$i", "$o"}
        self._sk = 0
        self._fv = 0

    def declare(self, name: str, ty: SimpleType, system: bool = False):
        old = self.constants.get(name)
        if old is not None and old is not ty:
            raise TermError(f"conflicting declaration for {name}")
        self.constants[name] = ty
        if system:
            self.system.add(name)

    def declare_base_type(self, name: str):
        self.base_types.add(name)

    def is_declared(self, name: str) -> bool:
        return name in self.constants

    def fresh_skolem(self, ty: SimpleType) -> Const:
        while True:
            self._sk += 1
            name = f"sk{self._sk}"
            if name not in self.constants:
                break
        self.declare(name, ty, system=True)
        return const(name, ty)

    def fresh_free(self, ty: SimpleType) -> Free:
        self._fv += 1
        return free(f"V{self._fv}", ty)

    def copy(self) -> Signature:
        """An independent copy whose fresh symbols continue past this
        one's."""
        sig = Signature()
        sig.constants = dict(self.constants)
        sig.system = set(self.system)
        sig.base_types = set(self.base_types)
        sig._sk = self._sk
        sig._fv = self._fv
        return sig
