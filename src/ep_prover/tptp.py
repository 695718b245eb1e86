"""TPTP THF0 input and TSTP/SZS output.

Parses annotated THF formulas (including `logic`-role modal semantics
specifications), producing fully type-checked problems over the interned
term representation; prints formulas, clauses, SZS status lines and
TSTP proof certificates.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple, NoReturn, Optional, Union

from .terms import (
    Abs, Bound, Const, Free, O, PI_NAME, SIGMA_NAME, Signature, SimpleType,
    Term, TermError, TRUE, FALSE, NOT, OR, AND, IMPLIES, IFF, app,
    base_type, bound, canon, conj, const, disj, equality, exists, forall,
    fun_type, iff, implies, lam, match_quant, neg, ordered_free_vars,
    single_quoted, spine, tptp_name, type_str,
)
from .clauses import Clause, Literal


class ParseError(Exception):
    """Lexical, syntactic or type error in the input, with location."""


class UnsupportedInputError(ParseError):
    """Recognized but unsupported dialect or semantics."""


# ---------------------------------------------------------------------------
# Logic specifications (modal semantics selection)
# ---------------------------------------------------------------------------

MODAL_SYSTEMS = ("K", "D", "T", "B", "S4", "S5")
MODAL_AXIOMS = ("K", "D", "T", "B", "4", "5")


class LogicSpec:
    """A modal logic specification.  Constants are always rigid and
    quantification has constant domains: the parser rejects the rest."""
    __slots__ = ("consequence", "system", "axioms")

    def __init__(self, consequence: str = "global",
                 system: Optional[str] = None, axioms: tuple = ()):
        self.consequence = consequence
        self.system = system        # one of MODAL_SYSTEMS
        self.axioms = axioms        # alternative: axiom scheme names


class AnnotatedFormula(NamedTuple):
    name: str
    role: str
    formula: Union[Term, tuple, LogicSpec, None]


class Problem:
    __slots__ = ("signature", "formulas", "logic_spec", "name")

    def __init__(self, signature: Signature, formulas: Optional[list] = None,
                 logic_spec: Optional[LogicSpec] = None,
                 name: str = "problem"):
        self.signature = signature
        self.formulas = [] if formulas is None else formulas
        self.logic_spec = logic_spec
        self.name = name


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*|/\*.*?\*/)
  | (?P<squote>'(?:[^'\\]|\\.)*')
  | (?P<dollar>\$\$?[a-zA-Z0-9_]+)
  | (?P<lower>[a-z][a-zA-Z0-9_]*)
  | (?P<upper>[A-Z][a-zA-Z0-9_]*)
  | (?P<num>\d+(?:\.\d+)?)
  | (?P<op><=>|=>|<=|!=|:=|!!|\?\?|[!?^@~|&=()\[\],.:><*])
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str       # a group of _TOKEN_RE, or "eof" at the end
    text: str
    at: int         # offset in the input


class TokenStream:
    """The tokens of one input, each matched only when the parser asks
    for it, so a parse that stops early never scans the rest."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0            # where the next match starts
        self.tok = None         # the next token, once matched

    def peek(self) -> Token:
        while self.tok is None:
            pos = self.pos
            if pos == len(self.text):
                self.tok = Token("eof", "", pos)
                break
            m = _TOKEN_RE.match(self.text, pos)
            if m is None:
                self.error(f"unexpected character {self.text[pos]!r}", pos)
            self.pos = m.end()
            if m.lastgroup != "ws" and m.lastgroup != "comment":
                self.tok = Token(m.lastgroup, m.group(), pos)
        return self.tok

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.tok = None
        return t

    def expect(self, text: str):
        t = self.next()
        if t.text != text:
            self.error(f"expected {text!r}, found {t.text!r}", t.at)

    def line_col(self, at: int) -> tuple:
        """Line and column, both from 1, of offset `at`."""
        return (self.text.count("\n", 0, at) + 1,
                at - self.text.rfind("\n", 0, at))

    def error(self, msg: str, at: Optional[int] = None, *,
              column: bool = True, cls: type = ParseError) -> NoReturn:
        """Raise cls(msg) located at offset `at`, by default at the next
        token; with column False the location is the line alone."""
        line, col = self.line_col(self.peek().at if at is None else at)
        where = f"line {line}, column {col}" if column else f"line {line}"
        raise cls(f"{where}: {msg}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

ROLE_ALIASES = {
    "axiom": "axiom", "hypothesis": "axiom", "lemma": "axiom",
    "definition": "definition", "conjecture": "conjecture",
    "negated_conjecture": "negated_conjecture", "plain": "plain",
    "type": "type", "logic": "logic",
}

# The modal operators, each of type $o > $o.
MODAL_OPERATORS = frozenset({"$box", "$dia"})


def _unquote(s: str) -> str:
    if s.startswith("'"):
        return s[1:-1].replace("\\'", "'").replace("\\\\", "\\")
    return s


class Parser:
    def __init__(self, sig: Optional[Signature] = None,
                 include_dir: Optional[str] = None):
        self.sig = sig if sig is not None else Signature()
        self.include_dir = include_dir
        self.including: dict = {}  # real path -> path, of open includes
        self.formulas: list = []
        self.logic_spec: Optional[LogicSpec] = None
        self.names: set = set()

    # -- types --------------------------------------------------------------

    def parse_type(self, ts: TokenStream) -> SimpleType:
        left = self.parse_type_atom(ts)
        if ts.peek().text == ">":
            ts.next()
            return fun_type(left, self.parse_type(ts))
        return left

    def parse_type_atom(self, ts: TokenStream) -> SimpleType:
        t = ts.next()
        if t.text == "(":
            ty = self.parse_type(ts)
            ts.expect(")")
            return ty
        if t.text in ("$o", "$i"):
            return base_type(t.text)
        if t.text == "$tType":
            ts.error("type-valued expression outside a declaration (TH1 is "
                     "unsupported)", t.at, cls=UnsupportedInputError)
        if t.kind in ("lower", "squote"):
            name = _unquote(t.text)
            if name in self.sig.base_types:
                return base_type(name)
            ts.error(f"unknown type {name!r}", t.at)
        ts.error(f"expected a type, found {t.text!r}", t.at)

    # -- formulas -----------------------------------------------------------

    def parse_formula(self, ts: TokenStream, env: list) -> Term:
        left = self.parse_eq(ts, env)
        op = ts.peek().text
        if op in ("|", "&"):
            while ts.peek().text == op:
                ts.next()
                right = self.parse_eq(ts, env)
                left = disj(left, right) if op == "|" else conj(left, right)
            nxt = ts.peek().text
            if nxt in ("|", "&", "=>", "<=>", "<="):
                ts.error(f"ambiguous mix of binary connectives near {nxt!r}")
            return left
        if op in ("=>", "<=>", "<="):
            ts.next()
            right = self.parse_eq(ts, env)
            nxt = ts.peek().text
            if nxt in ("|", "&", "=>", "<=>", "<="):
                ts.error(f"connective {op!r} is non-associative")
            if op == "=>":
                return implies(left, right)
            if op == "<=":
                return implies(right, left)
            return iff(left, right)
        return left

    def parse_eq(self, ts: TokenStream, env: list) -> Term:
        left = self.parse_unitary(ts, env)
        op = ts.peek().text
        if op in ("=", "!="):
            ts.next()
            right = self.parse_unitary(ts, env)
            try:
                e = equality(left, right)
            except TermError as exc:
                ts.error(str(exc))
            return neg(e) if op == "!=" else e
        return left

    def parse_unitary(self, ts: TokenStream, env: list) -> Term:
        t = self.parse_unit_base(ts, env)
        while ts.peek().text == "@":
            ts.next()
            arg = self.parse_unit_base(ts, env)
            try:
                t = app(t, arg)
            except TermError as exc:
                ts.error(str(exc))
        return t

    def parse_unit_base(self, ts: TokenStream, env: list) -> Term:
        tok = ts.peek()
        text = tok.text
        if text == "~":
            ts.next()
            arg = self.parse_unitary(ts, env)
            if arg.ty is not O:
                ts.error("negation applied to a non-Boolean term")
            return neg(arg)
        if text in ("!", "?", "^"):
            ts.next()
            ts.expect("[")
            binders = []
            while True:
                v = ts.next()
                if v.kind != "upper":
                    ts.error("expected a variable", v.at)
                ts.expect(":")
                ty = self.parse_type(ts)
                binders.append((v.text, ty))
                nxt = ts.next()
                if nxt.text == "]":
                    break
                if nxt.text != ",":
                    ts.error(f"expected ',' or ']', found {nxt.text!r}",
                             nxt.at)
            ts.expect(":")
            body = self.parse_eq(ts, env + binders)
            for name, ty in reversed(binders):
                if text == "^":
                    body = lam(ty, body)
                elif text == "!":
                    if body.ty is not O:
                        ts.error("quantified body must be Boolean")
                    body = forall(ty, body)
                else:
                    if body.ty is not O:
                        ts.error("quantified body must be Boolean")
                    body = exists(ty, body)
            return body
        if text == "(":
            ts.next()
            f = self.parse_formula(ts, env)
            ts.expect(")")
            return f
        if text == "$true":
            ts.next()
            return TRUE
        if text == "$false":
            ts.next()
            return FALSE
        if text in MODAL_OPERATORS:
            ts.next()
            return const(text, fun_type(O, O))
        if tok.kind == "upper":
            ts.next()
            for depth, (name, ty) in enumerate(reversed(env)):
                if name == text:
                    return bound(depth, ty)
            ts.error(f"unbound variable {text}")
        if tok.kind in ("lower", "squote", "num"):
            ts.next()
            name = _unquote(text)
            ty = self.sig.constants.get(name)
            if ty is None:
                ts.error(f"undeclared symbol {name!r}")
            return const(name, ty)
        if tok.kind == "dollar":
            ts.error(f"unsupported defined symbol {text!r}", tok.at,
                     cls=UnsupportedInputError)
        ts.error(f"unexpected token {text!r} in formula")

    # -- logic specifications ----------------------------------------------

    def parse_logic_spec(self, ts: TokenStream) -> LogicSpec:
        head = ts.next()
        if head.text != "$modal":
            ts.error(f"unsupported logic {head.text!r}", head.at,
                     column=False, cls=UnsupportedInputError)
        ts.expect(":=")
        ts.expect("[")
        spec = LogicSpec()
        while True:
            key = ts.next()
            ts.expect(":=")
            if key.text == "$constants":
                val = ts.next()
                if val.text != "$rigid":
                    ts.error(f"unsupported semantics: constants {val.text}",
                             val.at, cls=UnsupportedInputError)
            elif key.text == "$quantification":
                val = ts.next()
                if val.text != "$constant":
                    ts.error("unsupported semantics: quantification "
                             f"{val.text}", val.at, cls=UnsupportedInputError)
            elif key.text == "$consequence":
                val = ts.next()
                if val.text not in ("$global", "$local"):
                    ts.error(f"unsupported semantics: consequence {val.text}",
                             val.at, cls=UnsupportedInputError)
                spec.consequence = val.text[1:]
            elif key.text == "$modalities":
                if ts.peek().text == "[":
                    ts.next()
                    axioms = []
                    while True:
                        a = ts.next()
                        m = re.fullmatch(r"\$modal_axiom_([A-Z0-9]+)", a.text)
                        if m is None or m.group(1) not in MODAL_AXIOMS:
                            ts.error(f"unsupported modal axiom {a.text}",
                                     a.at, cls=UnsupportedInputError)
                        axioms.append(m.group(1))
                        nxt = ts.next().text
                        if nxt == "]":
                            break
                        if nxt != ",":
                            ts.error("expected ',' or ']' in axiom list")
                    spec.axioms = tuple(axioms)
                else:
                    v = ts.next()
                    m = re.fullmatch(r"\$modal_system_([A-Z0-9]+)", v.text)
                    if m is None or m.group(1) not in MODAL_SYSTEMS:
                        ts.error(f"unsupported modal system {v.text}", v.at,
                                 cls=UnsupportedInputError)
                    spec.system = m.group(1)
            else:
                ts.error(f"unsupported logic specification key {key.text}",
                         key.at, cls=UnsupportedInputError)
            nxt = ts.next().text
            if nxt == "]":
                break
            if nxt != ",":
                ts.error("expected ',' or ']' in logic specification")
        return spec

    # -- top level ----------------------------------------------------------

    def skip_annotations(self, ts: TokenStream):
        """Skip a trailing source annotation up to the closing paren."""
        depth = 0
        while True:
            t = ts.peek()
            if t.kind == "eof":
                ts.error("unterminated annotation")
            if t.text == "(" or t.text == "[":
                depth += 1
            elif t.text == ")" and depth == 0:
                return
            elif t.text in (")", "]"):
                depth -= 1
            ts.next()

    def parse_file(self, ts: TokenStream):
        while ts.peek().kind != "eof":
            t = ts.next()
            if t.text == "include":
                ts.expect("(")
                path_tok = ts.next()
                if path_tok.kind != "squote":
                    ts.error("include path must be quoted")
                self.load_include(ts, path_tok)
                ts.expect(")")
                ts.expect(".")
                continue
            if t.text in ("fof", "cnf", "tff", "tcf", "tpi"):
                ts.error(f"the {t.text.upper()} dialect is not supported; "
                         "only THF input is accepted", t.at, column=False,
                         cls=UnsupportedInputError)
            if t.text != "thf":
                ts.error(f"expected 'thf' or 'include', found {t.text!r}",
                         t.at)
            ts.expect("(")
            name_tok = ts.next()
            name = _unquote(name_tok.text)
            if name in self.names:
                ts.error(f"duplicate formula name {name!r}", name_tok.at,
                         column=False)
            ts.expect(",")
            role_tok = ts.next()
            role = ROLE_ALIASES.get(role_tok.text)
            if role is None:
                ts.error(f"unknown formula role {role_tok.text!r}",
                         role_tok.at, column=False)
            ts.expect(",")
            self.parse_annotated(ts, name, role)
            if ts.peek().text == ",":
                ts.next()
                self.skip_annotations(ts)
            ts.expect(")")
            ts.expect(".")
            self.names.add(name)

    def parse_annotated(self, ts: TokenStream, name: str, role: str):
        if role == "type":
            try:
                decl = self.in_parens(ts, self.parse_declaration)
            except TermError as exc:
                raise ParseError(f"formula {name}: {exc}")
            self.formulas.append(AnnotatedFormula(name, "type", decl))
            return
        if role == "logic":
            if self.logic_spec is not None:
                raise ParseError(f"formula {name}: duplicate logic "
                                 "specification")
            self.logic_spec = self.in_parens(ts, self.parse_logic_spec)
            self.formulas.append(AnnotatedFormula(name, "logic",
                                                  self.logic_spec))
            return
        if role == "conjecture" and any(
                f.role == "conjecture" for f in self.formulas):
            raise ParseError(f"formula {name}: more than one conjecture")
        try:
            f = self.parse_formula(ts, [])
        except TermError as exc:
            raise ParseError(f"formula {name}: {exc}")
        if f.ty is not O:
            raise ParseError(f"formula {name}: not a Boolean formula")
        self.formulas.append(AnnotatedFormula(name, role, canon(f)))

    def in_parens(self, ts: TokenStream, parse):
        """parse(ts) after any number of "(", closing each after it."""
        parens = 0
        while ts.peek().text == "(":
            ts.next()
            parens += 1
        out = parse(ts)
        for _ in range(parens):
            ts.expect(")")
        return out

    def parse_declaration(self, ts: TokenStream) -> tuple:
        """The body of a type formula: (symbol, type), or (symbol, None)
        for a base type."""
        sym = _unquote(ts.next().text)
        ts.expect(":")
        if ts.peek().text == "$tType":
            ts.next()
            self.sig.declare_base_type(sym)
            return sym, None
        ty = self.parse_type(ts)
        self.sig.declare(sym, ty)
        return sym, ty

    def load_include(self, ts: TokenStream, tok: Token):
        """Parse the file named by the quoted token tok of ts."""
        path = _unquote(tok.text)
        roots = []
        if self.include_dir:
            roots.append(self.include_dir)
        roots.append(os.getcwd())
        for root in roots:
            full = os.path.join(root, path)
            if os.path.exists(full):
                real = os.path.realpath(full)
                if real in self.including:
                    cycle = list(self.including.values())[
                        list(self.including).index(real):] + [path]
                    ts.error("include cycle: " + " -> ".join(cycle),
                             tok.at, column=False)
                self.including[real] = path
                try:
                    with open(full, encoding="utf-8") as fh:
                        self.parse_file(TokenStream(fh.read()))
                finally:
                    del self.including[real]
                return
        ts.error(f"cannot resolve include {path!r}", tok.at, column=False)


def parse_problem(text: str, name: str = "problem",
                  include_dir: Optional[str] = None,
                  path: Optional[str] = None) -> Problem:
    """The problem in text; path, when given, is the file text was read
    from, so that an include of it is reported as a cycle."""
    parser = Parser(include_dir=include_dir)
    if path is not None:
        parser.including[os.path.realpath(path)] = name
    parser.parse_file(TokenStream(text))
    return Problem(parser.sig, parser.formulas, parser.logic_spec, name)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _binder_name(i: int) -> str:
    return chr(ord("A") + i) if i < 26 else f"Z{i - 25}"


class TermPrinter:
    """Renders terms in TPTP concrete syntax with A,B,C binder names.

    names maps free variables to their printed names, which are the
    first binder names; a free variable without one prints under its own
    name."""

    def __init__(self, names: Optional[dict] = None):
        self.names = dict(names or {})
        self.counter = len(self.names)

    def fresh(self) -> str:
        n = _binder_name(self.counter)
        self.counter += 1
        return n

    def print(self, t: Term) -> str:
        return self._bare(t, [])

    def clause(self, c: Clause) -> str:
        """The universal closure of c over its free variables, in
        first-occurrence order, with one operand of the top-level `|`
        per literal; a disjunctive literal is bracketed."""
        binders = []
        for v in ordered_free_vars([x for l in c.literals
                                    for x in (l.lhs, l.rhs)]):
            self.names[v] = self.fresh()
            binders.append(f"{self.names[v]}: {type_str(v.ty)}")
        lits = [literal_formula(l) for l in c.literals]
        if len(lits) == 1 and spine(lits[0])[0] is not OR:
            body = (self._body if binders else self._bare)(lits[0], [])
        else:
            body = " | ".join(self._operand(t, []) for t in lits) or "$false"
            if binders:
                body = f"( {body} )"
        return f"! [{','.join(binders)}] : {body}" if binders else body

    def _operand(self, t: Term, env: list) -> str:
        if isinstance(t, Const):
            return tptp_name(t.name)
        if isinstance(t, Free):
            return self.names.get(t, t.name)
        if isinstance(t, Bound):
            return env[-1 - t.index]
        h, args = spine(t)
        if h is NOT and len(args) == 1 and self._is_equation(args[0]):
            return "( " + self._flat(t, env) + " )"
        if self._is_prefixed(t):
            return self._bare(t, env)
        return "( " + self._flat(t, env) + " )"

    def _eq_operand(self, t: Term, env: list) -> str:
        # binders and negations must be bracketed next to an equality sign
        if self._is_prefixed(t):
            return "( " + self._bare(t, env) + " )"
        return self._operand(t, env)

    @staticmethod
    def _is_equation(t: Term) -> bool:
        h, args = spine(t)
        return isinstance(h, Const) and h.name == "=" and len(args) == 2

    @staticmethod
    def _is_prefixed(t: Term) -> bool:
        """Whether t prints as a binder or a negation applied to a body."""
        return (isinstance(t, Abs) or spine(t)[0] is NOT
                or match_quant(t, PI_NAME) is not None
                or match_quant(t, SIGMA_NAME) is not None)

    def _bare(self, t: Term, env: list) -> str:
        for qname, sym in ((PI_NAME, "!"), (SIGMA_NAME, "?")):
            q = match_quant(t, qname)
            if q is not None:
                binders = []
                while q is not None:
                    nm = self.fresh()
                    binders.append(f"{nm}: {type_str(q.var_ty)}")
                    env = env + [nm]
                    body = q.body
                    q = match_quant(body, qname)
                return (f"{sym} [" + ",".join(binders) + "] : "
                        + self._body(body, env))
        if isinstance(t, Abs):
            binders = []
            while isinstance(t, Abs):
                nm = self.fresh()
                binders.append(f"{nm}: {type_str(t.var_ty)}")
                env = env + [nm]
                t = t.body
            return "^ [" + ",".join(binders) + "] : " + self._body(t, env)
        h, args = spine(t)
        if isinstance(h, Const) and h is NOT and len(args) == 1 \
                and not self._is_equation(args[0]):
            return "~ " + self._operand(args[0], env)
        return self._flat(t, env)

    def _body(self, t: Term, env: list) -> str:
        if self._is_prefixed(t):
            return self._bare(t, env)
        if isinstance(t, (Const, Free, Bound)):
            return "( " + self._operand(t, env) + " )"
        return "( " + self._flat(t, env) + " )"

    def _flat(self, t: Term, env: list) -> str:
        h, args = spine(t)
        if isinstance(h, Const) and len(args) == 2:
            if h in (OR, AND):
                return self._chain(t, h, "|" if h is OR else "&", env)
            if h is IMPLIES:
                return (self._operand(args[0], env) + " => "
                        + self._operand(args[1], env))
            if h is IFF:
                return (self._operand(args[0], env) + " <=> "
                        + self._operand(args[1], env))
            if h.name == "=":
                return (self._eq_operand(args[0], env) + " = "
                        + self._eq_operand(args[1], env))
        if h is NOT and len(args) == 1:
            # `_bare` prints every other negation, so this one negates an
            # equation
            s, u = spine(args[0])[1]
            return self._eq_operand(s, env) + " != " + self._eq_operand(u, env)
        if args:
            # a binder or negation before "@" would take it into its body
            *first, last = (h,) + args
            return " @ ".join([self._eq_operand(x, env) for x in first]
                              + [self._operand(last, env)])
        return self._operand(t, env)

    def _chain(self, t: Term, op: Const, sym: str, env: list) -> str:
        """t's operands joined by sym.  TPTP reads a | b | c as
        (a | b) | c, so only left operands chain; a right operand that
        uses op itself is printed in brackets by `_operand`."""
        rights = []
        while True:
            sh, sa = spine(t)
            if sh is not op or len(sa) != 2:
                break
            rights.append(sa[1])
            t = sa[0]
        # left to right, the order binder names are handed out in
        parts = [self._operand(t, env)]
        parts += [self._operand(s, env) for s in reversed(rights)]
        return f" {sym} ".join(parts)


def print_formula(t: Term) -> str:
    return TermPrinter().print(t)


def literal_formula(l: Literal) -> Term:
    """A literal as a plain formula (shorthand unfolded, != via negation)."""
    if l.is_shorthand:
        return l.lhs if l.pos else neg(l.lhs)
    e = equality(l.lhs, l.rhs)
    return e if l.pos else neg(e)


# ---------------------------------------------------------------------------
# SZS and proofs
# ---------------------------------------------------------------------------

SZS_STATUSES = ("Theorem", "ContradictoryAxioms", "CounterSatisfiable",
                "GaveUp", "Timeout", "Unsatisfiable", "Satisfiable", "Error")

# The inference rules of a proof and the SZS status of their conclusions:
# "esa" where the rule mints symbols and so only preserves satisfiability.
RULE_VOCABULARY = {
    "neg_conjecture": "cth", "defexp_and_simp_and_etaexpand": "thm",
    "miniscope": "thm", "cnf": "esa", "func_ext": "esa", "bool_ext": "thm",
    "paramod_ordered": "thm", "eqfactor_ordered": "thm", "pre_uni": "thm",
    "pattern_uni": "thm", "rewrite": "thm", "simp": "thm",
    "prim_subst": "thm", "inj": "esa", "instantiate": "thm",
}


def rule_status(rule: str) -> str:
    """Status of a record made by `rule`; input formulas are axioms."""
    return "axiom" if rule == "input" else RULE_VOCABULARY[rule]


def print_szs(status: str, problem_name: str) -> str:
    if status not in SZS_STATUSES:
        raise ValueError(f"unknown SZS status {status!r}")
    return f"% SZS status {status} for {problem_name}"


class ProofLine(NamedTuple):
    name: str
    role: str
    content: str          # rendered formula or type declaration
    source: Optional[str] = None


def render_inference(rule: str, status: str, parents: tuple,
                     bindings: tuple = ()) -> str:
    """bindings are (printed variable name, term text) pairs on the first
    parent."""
    if bindings:
        binds = ",".join(f"bind({v},$thf({t}))" for v, t in bindings)
        rest = "".join(f",{p}" for p in parents[1:])
        inside = f"{parents[0]}:[{binds}]{rest}"
    else:
        inside = ",".join(str(p) for p in parents)
    return f"inference({rule},[status({status})],[{inside}])"


def render_file_source(problem_file: str, original_name: str) -> str:
    return f"file({single_quoted(problem_file)},{tptp_name(original_name)})"


def print_proof(lines: list, problem_name: str) -> str:
    out = [f"% SZS output start CNFRefutation for {problem_name}"]
    for pl in lines:
        src = f",\n    {pl.source}" if pl.source else ""
        out.append(f"thf({pl.name},{pl.role},\n    ( {pl.content} ){src}).")
    out.append(f"% SZS output end CNFRefutation for {problem_name}")
    return "\n".join(out)
