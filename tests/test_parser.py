"""Query text syntax: parsing, precedence, and pretty-print round-trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tcer import cel
from tcer.model import And, Basic, Interval, Not, TrueP, TypeIs
from tcer.parser import ParseError, parse_query, pretty
from tcer.randgen import random_formula

from conftest import PHI2_TEXT


def test_single_event_type():
    assert parse_query("T") == cel.EventType("T")


def test_timed_seq_with_window():
    phi = parse_query("A ;[2,inf) B within [0,5]")
    assert phi == cel.Within(
        cel.TimedSeq(
            cel.EventType("A"),
            Interval(Fraction(2), None),
            cel.EventType("B"),
        ),
        Interval(Fraction(0), Fraction(5)),
    )


def test_shorthand_interval_expands_to_upper_bound():
    assert parse_query("A + [0,3]") == parse_query("A +[0,3]")
    assert parse_query("A within <=5") == parse_query("A within [0,5]")


@pytest.mark.parametrize(
    "shorthand, brackets",
    [
        ("<= 5", "[0,5]"),
        ("< 5", "[0,5)"),
        (">= 5", "[5,inf)"),
        ("> 5", "(5,inf)"),
        ("= 5", "[5,5]"),
        ("== 5", "[5,5]"),
    ],
)
def test_each_interval_shorthand_is_its_bracket_form(shorthand, brackets):
    assert parse_query(f"A within {shorthand}") == parse_query(f"A within {brackets}")


def test_an_empty_shorthand_interval_is_a_parse_error():
    with pytest.raises(ParseError, match="empty interval: < 0"):
        parse_query("A ;< 0 B")


def test_reference_query_shape():
    phi = parse_query(PHI2_TEXT)
    assert isinstance(phi, cel.Project)
    assert phi.vars == frozenset({"X", "Y", "T"})
    body = phi.body
    # the filter spec (X[...] and Y[...]) desugars to nested filters
    assert isinstance(body, cel.Filter)
    assert isinstance(body.body, cel.Filter)
    kinds = {type(sub).__name__ for sub in cel.subformulas(phi)}
    assert "TimedContigSeq" in kinds and "TimedContigIter" in kinds
    preds = [
        sub.pred for sub in cel.subformulas(phi) if isinstance(sub, cel.Filter)
    ]
    assert Basic("hum", "<", Fraction(30)) in preds
    assert Basic("hum", ">", Fraction(30)) in preds


def test_seq_is_left_associative():
    assert parse_query("A ; B ; C") == cel.Seq(
        cel.Seq(cel.EventType("A"), cel.EventType("B")), cel.EventType("C")
    )


def test_postfix_binds_tighter_than_binary():
    phi = parse_query("A as X or B as Y")
    assert phi == cel.Or(
        cel.As(cel.EventType("A"), "X"), cel.As(cel.EventType("B"), "Y")
    )


def test_ascii_and_unicode_iteration_agree():
    assert parse_query("A (+)[0,1]") == parse_query("A ⊕[0,1]")


def test_comments_and_whitespace_ignored():
    assert parse_query("# heading\nA ; B  # tail\n") == parse_query("A ; B")


def test_ascii_and_unicode_projection_agree():
    assert parse_query("π {X} (A as X)") == parse_query("pi {X} (A as X)")


def test_an_unexpected_character_is_named_with_its_place():
    with pytest.raises(ParseError) as err:
        parse_query("A $ B")
    assert str(err.value) == "unexpected character '$' (line 1, column 3)"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "A ;",
        "A within",
        "A within [5,3]",
        "pi {X (A)",
        "A filter",
        "A unknownkeyword B",
    ],
)
def test_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_query(text)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_query("A ;; B")
    assert "line" in str(err.value) or "column" in str(err.value)


@pytest.mark.parametrize(
    "text, pred",
    [
        ("not x < 3", Not(Basic("x", "<", 3))),
        ("!x >= 1.5", Not(Basic("x", ">=", Fraction(3, 2)))),
        ("!(x < 3 and x > 1)", Not(And(Basic("x", "<", 3), Basic("x", ">", 1)))),
        ("not ! x = 3", Not(Not(Basic("x", "==", 3)))),
        ("(type = B)", TypeIs("B")),
        ("type == B and (true)", And(TypeIs("B"), TrueP())),
        ('x = 3 and x != "s"', And(Basic("x", "==", 3), Basic("x", "!=", "s"))),
        ('x == "it\'s"', Basic("x", "==", "it's")),
        ("x != 'say \"hi\"'", Basic("x", "!=", 'say "hi"')),
    ],
)
def test_predicate_syntax_parses_and_round_trips(text, pred):
    phi = parse_query(f"A as X filter X[{text}]")
    assert phi == cel.Filter(cel.As(cel.EventType("A"), "X"), "X", pred)
    assert parse_query(pretty(phi)) == phi


@pytest.mark.parametrize(
    "text, message",
    [
        ("A as X filter X[type < B]", "expected '=' after 'type' (line 1, column 22)"),
        ("A as X filter X[type", "expected '=' after 'type' (line 1, column 17)"),
        ("A as X filter X[x 3]", "expected comparison operator, found '3' (line 1, column 19)"),
        ("A as X filter X[x", "expected comparison operator (line 1, column 17)"),
        ("A as X filter X[x <]", "expected constant, found ']' (line 1, column 20)"),
        ("A as X filter X[x <", "expected constant (line 1, column 19)"),
    ],
)
def test_predicate_syntax_errors_name_what_is_missing(text, message):
    with pytest.raises(ParseError) as err:
        parse_query(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("(A", "expected ')', found end of input (line 1, column 2)"),
        ("A within [0,5", "unexpected end of input (line 1, column 13)"),
        ("A within B", "expected interval, found 'B' (line 1, column 10)"),
        ("A within", "expected interval (line 1, column 3)"),
        ("A within [0,5,", "expected ']' or ')', found ',' (line 1, column 14)"),
        ("A ;[3,1] B", "malformed interval: low > high (line 1, column 4)"),
        ("A within (2,2)", "empty interval: open at the single point (line 1, column 10)"),
        ("A B", "trailing input 'B' (line 1, column 3)"),
        ("A as", "expected 'ident', found end of input (line 1, column 3)"),
        ("pi {X (A)", "expected '}', found '(' (line 1, column 7)"),
        (
            "A filter X[x < 'c']",
            "ordered comparison '<' needs a number constant (line 1, column 16)",
        ),
    ],
)
def test_parse_errors_name_what_is_wrong_and_where(text, message):
    with pytest.raises(ParseError) as err:
        parse_query(text)
    assert str(err.value) == message


@pytest.mark.parametrize("seed", range(60))
def test_pretty_round_trips(seed):
    rng = random.Random(seed)
    phi = random_formula(rng, rng.randint(0, 4))
    assert parse_query(pretty(phi)) == phi


def test_pretty_round_trips_reference_queries():
    for text in (PHI2_TEXT, "A ;[2,inf) B within [0,5]", "T"):
        phi = parse_query(text)
        assert parse_query(pretty(phi)) == phi


# A string constant may hold either quote, but not both: the syntax has no escapes.
_STRINGS = st.text("ab #'\"", max_size=5).filter(lambda v: not ("'" in v and '"' in v))

_PREDICATES = st.recursive(
    st.one_of(
        st.builds(Basic, st.just("x"), st.sampled_from(["==", "!="]), _STRINGS),
        st.builds(Basic, st.just("x"), st.sampled_from(["<", ">=", "=="]), st.integers(0, 4)),
        st.just(TrueP()),
        st.builds(TypeIs, st.sampled_from(["A", "B"])),
    ),
    lambda inner: st.one_of(st.builds(And, inner, inner), st.builds(Not, inner)),
    max_leaves=4,
)


@given(st.integers(0, 10**6), st.integers(0, 3), _PREDICATES)
def test_pretty_round_trips_filters_on_strings_with_either_quote(seed, depth, pred):
    phi = cel.Filter(cel.As(random_formula(random.Random(seed), depth), "X"), "X", pred)
    assert parse_query(pretty(phi)) == phi
