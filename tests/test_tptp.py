"""THF parsing and TSTP-style printing."""

import pathlib
import random

import pytest

from ep_prover.terms import (
    I, O, app, bound, canon, conj, const, disj, fn, forall, free, iff,
    implies, neg, tptp_name,
)
from ep_prover.clauses import Clause, Literal, prop_literal
from ep_prover.tptp import (
    ParseError, ProofLine, RULE_VOCABULARY, SZS_STATUSES,
    TokenStream, UnsupportedInputError, _TOKEN_RE, _unquote, parse_problem,
    TermPrinter, print_formula, print_proof, print_szs, render_file_source,
    render_inference,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


BASIC = """
thf(a_type, type, (a: $i)).
thf(f_type, type, (f: $i > $o)).
thf(ax, axiom, (f @ a)).
thf(c, conjecture, (? [X: $i]: (f @ X))).
"""


def test_parse_roles_and_types():
    prob = parse_problem(BASIC, "t.p")
    roles = [fm.role for fm in prob.formulas]
    assert roles == ["type", "type", "axiom", "conjecture"]
    assert prob.signature.constants["f"] == fn(I, res=O)
    assert prob.name == "t.p"


def test_parse_connectives_round_trip():
    text = """
    thf(p_type, type, (p: $o)). thf(q_type, type, (q: $o)).
    thf(x, axiom, ( ( p => q ) & ( ~ p | q ) & ( p <=> q ) )).
    """
    prob = parse_problem(text, "t.p")
    f = prob.formulas[-1].formula
    text2 = print_formula(f)
    prob2 = parse_problem(
        "thf(p_type, type, (p: $o)). thf(q_type, type, (q: $o)).\n"
        f"thf(x, axiom, ( {text2} )).", "u.p")
    assert prob2.formulas[-1].formula is f


def test_print_chains_operands_left_to_right_at_any_length():
    ps = [const(f"p{i}", O) for i in range(6)]
    t = disj(disj(ps[0], disj(ps[1], ps[2])),
             disj(conj(ps[3], ps[4]), ps[5]))
    # a right operand that chains the same connective keeps its brackets
    assert print_formula(t) == "p0 | ( p1 | p2 ) | ( ( p3 & p4 ) | p5 )"
    long = ps[0]
    for i in range(1, 3000):
        long = disj(long, ps[i % 6])
    assert print_formula(long) == " | ".join(f"p{i % 6}"
                                             for i in range(3000))


def test_chains_of_any_nesting_print_and_parse_back():
    ps = [const(f"p{i}", O) for i in range(4)]
    decls = "".join(f"thf(p{i}_type, type, (p{i}: $o)).\n" for i in range(4))
    rng = random.Random(25)

    def rand(depth):
        if depth == 0 or rng.random() < 0.2:
            return rng.choice(ps)
        op = rng.choice((disj, disj, conj, conj, implies, iff, neg))
        if op is neg:
            return neg(rand(depth - 1))
        return op(rand(depth - 1), rand(depth - 1))

    shapes = [disj(ps[0], disj(ps[1], ps[2])),
              conj(conj(ps[0], ps[1]), conj(ps[2], ps[3]))]
    shapes += [canon(rand(5)) for _ in range(300)]
    for t in shapes:
        text = print_formula(t)
        back = parse_problem(decls + f"thf(x, axiom, ( {text} )).", "t.p")
        assert back.formulas[-1].formula is t, text


def test_parse_binders_and_application():
    text = "thf(x, axiom, ( ! [F: $i > $i, X: $i]: ? [Y: $i]: ( ( F @ X ) = Y ) ))."
    prob = parse_problem(text, "t.p")
    out = print_formula(prob.formulas[0].formula)
    assert out.startswith("! [A: $i > $i,B: $i]")


def test_parse_lambda():
    text = "thf(x, axiom, ( ( ^ [P: $o]: P ) @ $true ))."
    prob = parse_problem(text, "t.p")
    assert prob.formulas[0].formula is canon(const("$true", O))


def test_parse_error_reports_position():
    with pytest.raises(ParseError):
        parse_problem("thf(x, axiom, ( p | )).", "t.p")
    with pytest.raises(ParseError):
        parse_problem("thf(x, axiom, q).", "t.p")  # undeclared symbol


def test_type_error_under_negation_is_located():
    decls = "thf(p_type, type, p: $i > $o).\n\n"
    for body in ("~ p @ p", "(p @ p)"):
        with pytest.raises(ParseError,
                           match="^line 3, column 2[0-9]: argument type"):
            parse_problem(decls + f"thf(x, axiom, {body}).", "t.p")
    a = "thf(a_type, type, a: $i).\n"
    f = parse_problem(decls + a + "thf(x, axiom, ~ p @ a).", "t.p")
    assert print_formula(f.formulas[-1].formula) == "~ ( p @ a )"


def test_the_first_error_in_reading_order_is_reported():
    text = "thf(x, axiom $true).\n\nthf(y, axiom, # ).\n"
    with pytest.raises(ParseError, match="^line 1, column 14: expected ','"):
        parse_problem(text, "t.p")


def reference_tokenize(text: str) -> list:
    """The scanner of earlier versions: the whole input as
    (kind, text, line, column) tuples, matched before parsing starts."""
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise ParseError(
                f"line {line}, column {col}: unexpected character {text[pos]!r}")
        kind = m.lastgroup
        tok_text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, tok_text, line, pos - line_start + 1))
        nl = tok_text.count("\n")
        if nl:
            line += nl
            line_start = pos + tok_text.rfind("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens


def stream_tokens(text: str) -> list:
    ts = TokenStream(text)
    tokens = []
    while not tokens or tokens[-1][0] != "eof":
        t = ts.next()
        tokens.append((t.kind, t.text, *ts.line_col(t.at)))
    return tokens


def scanned(scan, text: str):
    try:
        return scan(text)
    except ParseError as e:
        return str(e)


PIECES = ("thf", "(", ")", ",", ".", ":", "[", "]", "X1", "a_b", "$o",
          "$$x", "$", "@", "~", "|", "&", "=", "!=", "=>", "<=", "<=>",
          ":=", "!!", "??", "!", "?", "^", ">", "<", "*", "42", "3.14", "3.",
          " ", "  ", "\t", "\n", "\r\n", "\n\n", "% note\n", "%",
          "/* a\nb */", "/* x */", "/*\n\n*/", "/*", "*/", "'q'", "'a\\'b'",
          "'x\\\\'", "'multi\nline'", "'", "\\", "#", "{", "}", "\"", "é")


def test_scanner_matches_the_reference_tokenizer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from inputs import FAULTS
    texts = [p.read_text() for p in sorted(ROOT.glob("problems/**/*.p"))]
    assert len(texts) > 20
    texts += [make() for make, _ in FAULTS.values()]
    rng = random.Random(20)
    for _ in range(1500):
        texts.append("".join(rng.choice(PIECES)
                             for _ in range(rng.randrange(1, 30))))
    errors = 0
    for text in texts:
        want = scanned(reference_tokenize, text)
        assert scanned(stream_tokens, text) == want, text
        errors += isinstance(want, str)
    assert 100 < errors < len(texts) - 100


def test_duplicate_name_rejected():
    text = "thf(x, axiom, $true). thf(x, axiom, $true)."
    with pytest.raises(ParseError):
        parse_problem(text, "t.p")


def test_modal_operator_without_logic_spec_is_tolerated_by_parser():
    # the parser accepts $box; rejecting it without a spec is the CLI's job
    text = "thf(p_type, type, (p: $o)). thf(x, axiom, ( $box @ p ))."
    prob = parse_problem(text, "t.p")
    assert prob.logic_spec is None


def test_logic_spec_parsing():
    text = """
    thf(s, logic, ( $modal := [
        $constants := $rigid, $quantification := $constant,
        $consequence := $global, $modalities := $modal_system_S5 ] )).
    thf(p_type, type, (p: $o)).
    thf(x, conjecture, ( ( $box @ p ) => p )).
    """
    prob = parse_problem(text, "t.p")
    spec = prob.logic_spec
    assert spec is not None
    assert spec.consequence == "global"
    assert spec.system == "S5"


def test_logic_spec_axiom_list():
    text = """
    thf(s, logic, ( $modal := [
        $constants := $rigid, $quantification := $constant,
        $consequence := $local,
        $modalities := [ $modal_axiom_K, $modal_axiom_T ] ] )).
    thf(p_type, type, (p: $o)).
    thf(x, conjecture, ( ( $box @ p ) => p )).
    """
    spec = parse_problem(text, "t.p").logic_spec
    assert spec.system is None
    assert "T" in spec.axioms
    assert spec.consequence == "local"


def _spec_text(constants, quantification):
    return f"""
    thf(s, logic, ( $modal := [
        $constants := {constants}, $quantification := {quantification},
        $consequence := $global, $modalities := $modal_system_S5 ] )).
    thf(p_type, type, (p: $o)).
    thf(x, conjecture, ( ( $box @ p ) => p )).
    """


def test_varying_domains_and_flexible_constants_rejected():
    for constants, quantification in (("$rigid", "$varying"),
                                      ("$flexible", "$constant")):
        with pytest.raises(UnsupportedInputError):
            parse_problem(_spec_text(constants, quantification), "t.p")


def test_unsupported_logic_specification_is_located():
    for spec in ("$constants := $flexible", "$quantification := $varying",
                 "$consequence := $strict", "$modalities := $modal_system_X",
                 "$modalities := [ $modal_axiom_K, $modal_axiom_Q ]",
                 "$worlds := $finite"):
        text = f"\n\nthf(s, logic, $modal := [ {spec} ])."
        with pytest.raises(UnsupportedInputError, match="^line 3, column "):
            parse_problem(text, "t.p")


def test_unsupported_logic_rejected():
    text = """
    thf(s, logic, ( $temporal := [ $modalities := $modal_system_K ] )).
    thf(x, conjecture, $true).
    """
    with pytest.raises(UnsupportedInputError):
        parse_problem(text, "t.p")


def test_print_clause_universal_closure_and_neq():
    f = const("f", fn(I, res=O))
    a, b = const("a", I), const("b", I)
    X = free("X", I)
    c = Clause([Literal(a, b, False),
                prop_literal(canon(app(f, X)), True)])
    printer = TermPrinter()
    assert printer.clause(c) == "! [A: $i] : ( ( f @ A ) | ( a != b ) )"
    assert printer.names == {X: "A"}
    # a disjunctive literal is one bracketed operand of the clause's "|"
    q, r = const("q", O), const("r", O)
    c = Clause([prop_literal(disj(q, r), True), prop_literal(q, False)])
    text = TermPrinter().clause(c)
    assert text == "( q | r ) | ~ q"
    decls = "thf(q_type, type, q: $o). thf(r_type, type, r: $o).\n"
    back = parse_problem(decls + f"thf(x, axiom, {text}).", "t.p")
    assert back.formulas[-1].formula is disj(disj(q, r), neg(q))
    # the prefix binds the clause's variables only, not the literal's
    p = const("p", fn(I, I, res=O))
    c = Clause([prop_literal(canon(forall(I, app(p, X, bound(0, I)))),
                             True)])
    printer = TermPrinter()
    assert printer.clause(c) == "! [A: $i] : ! [B: $i] : ( p @ A @ B )"
    assert printer.names == {X: "A"}


def test_print_szs_line():
    assert print_szs("Theorem", "x.p") == "% SZS status Theorem for x.p"
    assert "Theorem" in SZS_STATUSES


def test_render_inference_with_bindings():
    assert render_inference("pre_uni", "thm", (3, 5), (("A", "b"),)) \
        == "inference(pre_uni,[status(thm)],[3:[bind(A,$thf(b))],5])"


def test_render_file_source():
    assert render_file_source("t.p", "ax") == "file('t.p',ax)"
    assert render_file_source("t.p", "Ax 1") == "file('t.p','Ax 1')"
    assert render_file_source("it's.p", "ax") == "file('it\\'s.p',ax)"


def test_names_are_quoted_unless_tptp_reads_them_bare():
    for bare in ("a", "aB_1", "$i", "$$x", "12"):
        assert tptp_name(bare) == bare
    assert tptp_name("A") == "'A'"
    assert tptp_name("a b") == "'a b'"
    assert tptp_name("1a") == "'1a'"
    assert tptp_name("it's") == "'it\\'s'"
    for name in ("A", "a b", "it's", "back\\slash", "\\'", "'\\", "\\\\'x"):
        text = tptp_name(name)
        assert _TOKEN_RE.fullmatch(text).lastgroup == "squote"
        assert _unquote(text) == name


def test_quoted_constants_and_types_print_and_parse_back():
    text = """
    thf('my type', type, 'my type': $tType).
    thf('a b_type', type, 'a b': 'my type' > $o).
    thf(c_type, type, 'C': 'my type').
    thf(x, axiom, ! [X: 'my type']: (('a b' @ X) | ~ ('a b' @ 'C'))).
    """
    f = parse_problem(text, "t.p").formulas[-1].formula
    printed = print_formula(f)
    assert printed == ("! [A: 'my type'] : ( ( 'a b' @ A ) "
                       "| ~ ( 'a b' @ 'C' ) )")
    again = parse_problem(text + f"thf(y, axiom, {printed}).", "t.p")
    assert again.formulas[-1].formula is f


def test_binder_operands_before_an_application_are_bracketed():
    # a binder's body and a negation's argument would take in the "@"
    # that follows them
    p = const("p", fn(I, res=O))
    g = const("g", fn(fn(I, res=O), O, I, res=O))
    q, a = const("q", O), const("a", I)
    t = canon(app(g, p, app(const("~", fn(O, res=O)), q), a))
    printed = print_formula(t)
    assert printed == "g @ ( ^ [A: $i] : ( p @ A ) ) @ ( ~ q ) @ a"
    decls = """
    thf(p_type, type, p: $i > $o). thf(q_type, type, q: $o).
    thf(a_type, type, a: $i). thf(g_type, type, g: ($i > $o) > $o > $i > $o).
    """
    prob = parse_problem(decls + f"thf(x, axiom, {printed}).", "t.p")
    assert prob.formulas[-1].formula is t


def test_print_proof_brackets():
    lines = [ProofLine("1", "axiom", "( $true )",
                       render_file_source("t.p", "ax"))]
    out = print_proof(lines, "t.p")
    assert out.startswith("% SZS output start CNFRefutation for t.p\n")
    assert out.endswith("% SZS output end CNFRefutation for t.p")
    assert "thf(1,axiom,\n    ( ( $true ) ),\n    file('t.p',ax))." in out


def test_rule_vocabulary_is_closed():
    assert "paramod_ordered" in RULE_VOCABULARY
    assert "prim_subst" in RULE_VOCABULARY
    assert "neg_conjecture" in RULE_VOCABULARY
    assert len(RULE_VOCABULARY) == 15
