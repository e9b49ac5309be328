"""Events, streams, complex events, and the predicate algebra."""

from __future__ import annotations

import copy
import itertools
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from tcer import cel
from tcer.cea import TRUE, TimedCea, Transition, clock_guard
from tcer.cli import ce_sort_key
from tcer.engine import _Trans
from tcer.model import (
    COMPARISONS,
    And,
    Basic,
    ComplexEvent,
    DecimalText,
    Event,
    Interval,
    MAX_DIGITS,
    Not,
    TimedStream,
    TrueP,
    TypeIs,
    event_cells,
    project_ce,
    number_text,
    operand,
    rat,
    sat,
    to_units,
    union_ce,
)
from tcer.parser import Token


# -- rationals and intervals -------------------------------------------------


def test_rat_parses_decimal_strings_exactly():
    assert rat("1.33") == Fraction(133, 100)
    assert rat("0.5") == Fraction(1, 2)
    assert rat(3) == Fraction(3)


def test_rat_bounds_the_digits_a_string_stands_for():
    assert rat("1e" + str(MAX_DIGITS - 1)) == 10 ** (MAX_DIGITS - 1)
    for text in ("1e" + str(MAX_DIGITS), "1E-" + str(MAX_DIGITS), "1" * (MAX_DIGITS + 1)):
        with pytest.raises(ValueError):
            rat(text)


def test_a_plain_decimal_of_max_digits_is_accepted_and_one_more_is_refused():
    assert rat("7" * MAX_DIGITS) == int("7" * MAX_DIGITS)
    fraction = "0." + "5" * (MAX_DIGITS - 2)
    assert rat(fraction) == Fraction(int(fraction[2:]), 10 ** (MAX_DIGITS - 2))
    for text in ("7" * (MAX_DIGITS + 1), "-" + "7" * MAX_DIGITS, fraction + "5"):
        with pytest.raises(ValueError, match="digits"):
            rat(text)


_DIGIT_RUNS = st.text("0123456789", max_size=6)


@st.composite
def _number_strings(draw) -> str:
    """Decimal numerals with a sign, leading zeros, a fraction and an
    exponent, each part optional; none stands for MAX_DIGITS digits."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    whole = draw(_DIGIT_RUNS)
    frac = draw(st.none() | _DIGIT_RUNS)
    exponent = draw(
        st.none()
        | st.tuples(
            st.sampled_from("eE"),
            st.sampled_from(["", "-", "+"]),
            st.text("0123456789", min_size=1, max_size=2),
        )
    )
    text = sign + whole + ("" if frac is None else "." + frac)
    return text + ("" if exponent is None else "".join(exponent))


_ODD_NUMBERS = [
    "+1", " 1.5", "1.5 ", "1.", ".5", "1/3", "-2/4", "1_0", "1_0.5", "1__0",
    "\u0661\u0662", "\u0663.\u0665", "1\u0665", "", "-", ".", "1e", "--1",
    "1.2.3", "0x10", "inf", "nan", "1,5", "1/0", "-0/0",
]


@given(
    st.one_of(
        _number_strings(),
        st.sampled_from(_ODD_NUMBERS),
        st.text("0123456789-+._/ \u0661", max_size=8),
    )
)
def test_rat_agrees_with_fraction_on_every_string(text):
    """The same value as ``Fraction``, or ``ValueError`` where it refuses the
    string (a zero denominator included)."""
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            rat(text)
    else:
        got = rat(text)
        assert type(got) is Fraction and got == expected


@given(
    st.one_of(
        _number_strings(),
        st.sampled_from(_ODD_NUMBERS),
        st.integers(-10**12, 10**12),
        st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000)),
        # a JSON number's text as the stream decoder hands it over
        st.from_regex(
            r"-?(0|[1-9][0-9]{0,12})(\.[0-9]{1,12})?([eE][-+]?[0-9]{1,2})?", fullmatch=True
        ).map(number_text),
    ),
    st.sampled_from([1, 10**9, 3 * 10**9, 7 * 10**10]),
)
@example("2.50", 2)
@example("2.0", 1)
@example("-0.0", 1)
@example("1.0000000000", 10**9)
@example(DecimalText("-0.0"), 1)
def test_to_units_counts_what_rat_reads(value, scale):
    """``rat(value) · scale`` exactly, an int when it is whole, or the error
    ``rat`` raises."""
    try:
        expected = rat(value) * scale
    except ValueError:
        with pytest.raises(ValueError):
            to_units(value, scale)
    else:
        got = to_units(value, scale)
        assert got == expected and type(got) is (int if expected.denominator == 1 else Fraction)


def test_booleans_satisfy_no_comparison():
    for pred in (Basic("x", "<", 2), Basic("x", "!=", "a"), Basic("x", "==", 1), Basic("x", "!=", 0)):
        assert not sat(Event("A", {"x": True}), pred)


@pytest.mark.parametrize("value", [[1], {"y": 1}, 1 + 0j, (1,)], ids=["list", "dict", "complex", "tuple"])
def test_a_value_that_is_neither_a_number_nor_a_string_satisfies_no_comparison(value):
    """Not even ``!=``, and ``<`` does not raise: a Basic predicate
    constrains values of its constant's kind."""
    event = Event("A", {"x": value})
    for op in ("<", "<=", ">", ">=", "==", "!="):
        for constant in (1, Fraction(1, 3)):
            assert not sat(event, Basic("x", op, constant))
    assert not sat(event, Basic("x", "!=", "a"))
    assert not sat(event, Basic("x", "==", "a"))


@pytest.mark.parametrize("constant", [True, None, float("nan"), [1]], ids=["bool", "none", "nan", "list"])
def test_a_constant_that_no_value_could_equal_is_refused(constant):
    """A comparison reads both sides through ``operand``; a constant it maps
    to None would satisfy no comparison, not even ``!=``."""
    with pytest.raises(ValueError, match="not a finite number or a string"):
        Basic("x", "<", constant)


def test_operand_passes_numbers_and_strings_and_reads_floats_as_rat():
    for value in (3, Fraction(1, 3), "a"):
        assert operand(value) is value
    assert operand(0.1) == Fraction(1, 10)
    for value in (None, True, False, float("inf"), float("nan"), [1], Decimal("1.5"), 1j):
        assert operand(value) is None


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_ordered_comparison_needs_a_number_constant(op):
    with pytest.raises(ValueError, match="number constant"):
        Basic("x", op, "a")


def test_a_string_constant_holding_both_quotes_is_refused():
    """The query syntax has no escapes, so ``str`` could not print it as text that parses back."""
    with pytest.raises(ValueError, match="both quote marks"):
        Basic("x", "==", "a'b\"c")


def test_interval_membership_matches_bracket_notation():
    iv = Interval(Fraction(1), Fraction(3), low_closed=False, high_closed=True)
    assert not iv.contains(Fraction(1))
    assert iv.contains(Fraction(2))
    assert iv.contains(Fraction(3))
    unbounded = Interval(Fraction(2), None)
    assert unbounded.contains(Fraction(1000))
    assert not unbounded.contains(Fraction(1))


def test_interval_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Interval(Fraction(3), Fraction(1))
    with pytest.raises(ValueError):
        Interval(Fraction(-1), Fraction(1))


# Intervals with ends in {0, 1/2, 1}, so that ends often tie, and constants
# from -1 to 2 for ``Interval.of``: every constant, every midpoint between
# two, and a value beyond them tell any two of these sets apart.
_ENDS = [Fraction(0), Fraction(1, 2), Fraction(1)]
_IV_GRID = [Fraction(k, 4) for k in range(11)]


@st.composite
def _intervals(draw):
    low = draw(st.sampled_from(_ENDS))
    high = draw(st.one_of(st.none(), st.sampled_from([e for e in _ENDS if e >= low])))
    low_closed, high_closed = draw(st.booleans()), draw(st.booleans())
    assume(high != low or (low_closed and high_closed))
    return Interval(low, high, low_closed, high_closed)


@given(
    _intervals(),
    _intervals(),
    st.sampled_from(["<", "<=", ">", ">=", "="]),
    st.sampled_from([Fraction(k, 2) for k in range(-2, 5)]),
)
def test_interval_operations_agree_with_contains_on_a_grid(a, b, op, c):
    meet, of = a.meet(b), Interval.of(op, c)
    for iv in (meet, of):
        assert iv is None or Interval(*iv) == iv  # a well-formed interval
    in_a = [a.contains(v) for v in _IV_GRID]
    in_b = [b.contains(v) for v in _IV_GRID]
    both = [x and y for x, y in zip(in_a, in_b)]
    assert (meet is None) == (not any(both))
    if meet is not None:
        assert [meet.contains(v) for v in _IV_GRID] == both
    fits = [COMPARISONS[op](v, c) for v in _IV_GRID]
    assert (of is None) == (not any(fits))
    if of is not None:
        assert [of.contains(v) for v in _IV_GRID] == fits


def test_interval_shorthands():
    assert Interval.of("<=", Fraction(5)).contains(Fraction(0))
    assert not Interval.of("<", Fraction(5)).contains(Fraction(5))
    assert Interval.of(">=", rat("0.5")).contains(Fraction(1, 2))
    assert not Interval.of(">", rat("0.5")).contains(Fraction(1, 2))
    assert Interval.of("=", Fraction(2)).contains(Fraction(2))


@given(
    a=st.fractions(min_value=-100, max_value=100),
    b=st.fractions(min_value=-100, max_value=100),
)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a


# -- streams -----------------------------------------------------------------


def test_stream_is_one_indexed(s0):
    assert len(s0) == 9
    event, ts = s0[1]
    assert event.etype == "H" and ts == Fraction("1.2")
    assert s0.time(9) == Fraction("7.2")


def test_stream_requires_strict_increase():
    e = Event("A", {})
    for first in (0, -1):
        with pytest.raises(ValueError, match="is not above 0"):
            TimedStream([(e, first)])
    with pytest.raises(ValueError):
        TimedStream([(e, Fraction(1)), (e, Fraction(1))])
    with pytest.raises(ValueError):
        TimedStream([(e, Fraction(2)), (e, Fraction(1))])


def test_stream_delta_is_gap_or_first_timestamp(s0):
    assert s0.delta(1) == Fraction("1.2")
    assert s0.delta(2) == Fraction("1.33") - Fraction("1.2")


# -- predicates --------------------------------------------------------------


def test_sat_reference_values(s0):
    hot = Basic("temp", ">", Fraction(40))
    assert sat(s0.event(2), hot)  # temp 45
    assert not sat(s0.event(5), hot)  # temp 40, strict comparison
    assert sat(s0.event(5), TrueP())


def test_sat_missing_attribute_is_false(s0):
    assert not sat(s0.event(1), Basic("temp", ">", 0))  # humidity event


def test_sat_mixed_value_kinds_is_false():
    e = Event("A", {"x": "red"})
    assert not sat(e, Basic("x", "<", 3))
    assert sat(e, Basic("x", "==", "red"))
    assert sat(e, Basic("x", "!=", "blue"))


@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
def test_sat_boolean_algebra(v, c1, c2):
    e = Event("A", {"x": v})
    p1, p2 = Basic("x", "<", c1), Basic("x", ">=", c2)
    assert sat(e, Not(p1)) == (not sat(e, p1))
    assert sat(e, And(p1, p2)) == (sat(e, p1) and sat(e, p2))


def test_pred_satisfiable_detects_empty_conjunctions():
    assert (True,) in event_cells([And(Basic("x", ">", 3), Basic("x", "<", 5))])
    assert (True,) not in event_cells([And(Basic("x", ">", 5), Basic("x", "<", 3))])
    assert (True,) not in event_cells([And(TypeIs("A"), TypeIs("B"))])
    assert event_cells([Not(TrueP())]) == {(False,)}


def test_preds_intersect_is_syntactic_overlap():
    assert (True, True) in event_cells([Basic("x", "<=", 3), Basic("x", ">=", 3)])
    assert (True, True) not in event_cells([Basic("x", "<", 3), Basic("x", ">", 3)])
    assert (True, True) in event_cells([TrueP(), TypeIs("A")])


def test_pred_satisfiable_finds_the_exact_midpoint_of_big_constants():
    # a float midpoint of these two rounds onto the lower one
    assert (True,) in event_cells([And(Basic("x", ">", 10**20), Basic("x", "<", 10**20 + 1))])


_ATOMS = st.one_of(
    st.just(TrueP()),
    st.sampled_from([TypeIs("A"), TypeIs("B")]),
    st.builds(
        Basic,
        st.sampled_from("xy"),
        st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
        st.sampled_from([-1, 0, 1, 2]),
    ),
    st.builds(Basic, st.sampled_from("xy"), st.sampled_from(["==", "!="]), st.sampled_from("ab")),
)


def _predicates(depth: int):
    if depth == 0:
        return _ATOMS
    sub = _predicates(depth - 1)
    return st.one_of(_ATOMS, st.builds(Not, sub), st.builds(And, sub, sub))


# Exact for the constants above: every value class of x and y appears, that
# is absence, a boolean, each constant, a value in each gap between numeric
# constants and beyond them, and a string that is no constant.
_VALUES = [None, True, "a", "b", "c"] + [Fraction(k, 2) for k in range(-4, 7)]
GRID = [
    Event(etype, {name: v for name, v in (("x", x), ("y", y)) if v is not None})
    for etype, x, y in itertools.product("ABC", _VALUES, _VALUES)
]


@given(_predicates(4))
def test_pred_satisfiable_agrees_with_an_event_grid(pred):
    assert ((True,) in event_cells([pred])) == any(sat(e, pred) for e in GRID)


@given(st.lists(_predicates(3), min_size=1, max_size=3))
def test_event_cells_agree_with_an_event_grid(preds):
    assert event_cells(preds) == {tuple(sat(e, p) for p in preds) for e in GRID}


# -- complex events ----------------------------------------------------------


def test_union_reference_values():
    c1 = ComplexEvent.make(5, 9, {"X": {5}})
    c2 = ComplexEvent.make(2, 9, {"Y": {9}})
    assert union_ce(c1, c2) == ComplexEvent.make(2, 9, {"X": {5}, "Y": {9}})
    c3 = ComplexEvent.make(1, 3, {"X": {2}})
    c4 = ComplexEvent.make(4, 6, {"X": {5}})
    assert union_ce(c3, c4) == ComplexEvent.make(1, 6, {"X": {2, 5}})


def test_projection_reference_values():
    c = ComplexEvent.make(5, 9, {"X": {5}, "Y": {9}, "T": {6}})
    assert project_ce(c, {"X", "Y"}) == ComplexEvent.make(5, 9, {"X": {5}, "Y": {9}})
    assert project_ce(c, ()) == ComplexEvent.make(5, 9, {})
    assert project_ce(c, {"X", "Y", "T"}) == c


def test_make_validates_positions():
    with pytest.raises(ValueError):
        ComplexEvent.make(3, 2, {})
    with pytest.raises(ValueError):
        ComplexEvent.make(2, 4, {"X": {5}})
    # empty binding sets are dropped
    assert ComplexEvent.make(1, 2, {"X": set()}).binding == ()


ces = st.builds(
    lambda start, extra, bindings: ComplexEvent.make(
        start,
        start + extra,
        {
            var: {start + (p % (extra + 1)) for p in ps}
            for var, ps in bindings.items()
        },
    ),
    st.integers(1, 10),
    st.integers(0, 5),
    st.dictionaries(
        st.sampled_from(["X", "Y", "Z"]), st.sets(st.integers(0, 5), max_size=3)
    ),
)


@given(ces, ces, ces)
def test_union_is_acui(c1, c2, c3):
    assert union_ce(c1, c2) == union_ce(c2, c1)
    assert union_ce(c1, union_ce(c2, c3)) == union_ce(union_ce(c1, c2), c3)
    assert union_ce(c1, c1) == c1


@given(
    ces,
    st.sets(st.sampled_from(["X", "Y", "Z"])),
    st.sets(st.sampled_from(["X", "Y", "Z"])),
)
def test_project_composes_by_intersection(c, l1, l2):
    assert project_ce(project_ce(c, l1), l2) == project_ce(c, l1 & l2)


# positions as the oracles and the engine hand them to ``make``: a list with
# duplicates in any order, a set, or a range (ascending, descending or empty);
# past 8 a set of ints need not iterate in sorted order
raw_positions = st.one_of(
    st.lists(st.integers(1, 40), max_size=6),
    st.sets(st.integers(1, 40), max_size=6),
    st.builds(range, st.integers(1, 40), st.integers(0, 41), st.sampled_from([1, 3, -1, -5])),
)
raw_bindings = st.dictionaries(st.sampled_from(["Y", "X", "X0", "T"]), raw_positions)


@given(raw_bindings, st.randoms())
def test_make_stores_one_canonical_binding(binding, rnd):
    ce = ComplexEvent.make(1, 40, binding)
    assert [var for var, _ in ce.binding] == sorted(var for var, ps in binding.items() if ps)
    for var, ps in ce.binding:
        assert type(ps) is tuple
        assert all(a < b for a, b in zip(ps, ps[1:]))
        assert set(ps) == set(binding[var])
    items = list(binding.items())
    rnd.shuffle(items)
    shuffled = {var: rnd.sample(list(ps), len(ps)) for var, ps in items}
    other = ComplexEvent.make(1, 40, shuffled)
    assert other == ce
    assert hash(other) == hash(ce)


def _sorted_positions_key(ce: ComplexEvent):
    # the reference order: each binding's positions sorted into a list
    return (ce.end, ce.start, [(var, sorted(ps)) for var, ps in ce.binding])


# two starts and two ends, so that many matches tie on both and are ordered
# by their bindings
tied_ces = st.builds(ComplexEvent.make, st.integers(0, 1), st.integers(40, 41), raw_bindings)


@given(st.lists(tied_ces, max_size=12))
def test_ce_sort_key_orders_as_the_sorted_positions_key(matches):
    assert sorted(matches, key=ce_sort_key) == sorted(matches, key=_sorted_positions_key)


# -- value classes -------------------------------------------------------------

_FORMULAS = st.one_of(
    st.sampled_from("AB").map(cel.EventType),
    st.sampled_from("AB").map(lambda t: cel.As(cel.EventType(t), "X")),
)
_GUARDS = st.one_of(
    st.just(TRUE),
    st.builds(clock_guard, st.just("z"), st.sampled_from(["=", "<=", ">=", ">"]), st.integers(0, 3)),
)
_NODES = st.one_of(_predicates(1), _FORMULAS)
_RATS = st.fractions(0, 4, max_denominator=4)
_SMALL = st.integers(0, 3)
_INTERVALS = st.builds(Interval, _RATS, st.none())
_LABELS = st.frozensets(st.sampled_from("XY"))
_TRANSITION_FIELDS = st.tuples(
    st.sampled_from([0, 1]), _predicates(1), _GUARDS, _LABELS, st.frozensets(st.just("z")),
    st.sampled_from([0, 1]),
)
_CEA_FIELDS = st.tuples(
    st.just(frozenset({0, 1})), _LABELS, st.just(frozenset({"z"})),
    st.lists(_TRANSITION_FIELDS.map(lambda f: Transition(*f)), max_size=3).map(tuple),
    st.just(0), st.frozensets(st.sampled_from([0, 1])),
)

# Every immutable value class, grouped with the classes that take the same
# fields: (field names, field values, classes).
_VALUE_CLASSES = [
    ((), st.just(()), [TrueP]),
    (("etype",), st.tuples(st.sampled_from("AB")), [TypeIs, cel.EventType]),
    (("body",), st.tuples(_NODES), [Not, cel.Plus, cel.ContigPlus]),
    (
        ("left", "right"),
        st.tuples(_NODES, _NODES),
        [And, cel.Or, cel.And, cel.Seq, cel.ContigSeq],
    ),
    (
        ("body", "interval"),
        st.tuples(_FORMULAS, _INTERVALS),
        [cel.Within, cel.TimedIter, cel.TimedContigIter],
    ),
    (
        ("left", "interval", "right"),
        st.tuples(_FORMULAS, _INTERVALS, _FORMULAS),
        [cel.TimedSeq, cel.TimedContigSeq],
    ),
    (("body", "var"), st.tuples(_FORMULAS, st.sampled_from("XY")), [cel.As]),
    (
        ("body", "var", "pred"),
        st.tuples(_FORMULAS, st.sampled_from("XY"), _predicates(1)),
        [cel.Filter],
    ),
    (("vars", "body"), st.tuples(_LABELS, _FORMULAS), [cel.Project]),
    (
        ("attr", "op", "value"),
        st.tuples(st.just("x"), st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), _RATS),
        [Basic],
    ),
    (("source", "pred", "guard", "label", "resets", "target"), _TRANSITION_FIELDS, [Transition]),
    (("states", "vars", "clocks", "delta", "initial", "finals"), _CEA_FIELDS, [TimedCea]),
    (
        ("kind", "text", "line", "col"),
        st.tuples(st.sampled_from(["ident", "number"]), st.text(max_size=3), _SMALL, _SMALL),
        [Token],
    ),
    (
        ("source", "pred", "bound", "label", "reset", "target"),
        st.tuples(_SMALL, _predicates(1), st.none() | _SMALL, _LABELS, st.booleans(), _SMALL),
        [_Trans],
    ),
    (
        ("etype", "attrs"),
        st.tuples(st.sampled_from("AB"), st.dictionaries(st.just("x"), _SMALL)),
        [Event],
    ),
]


@given(st.data())
def test_value_classes_compare_hash_and_print_as_frozen_dataclasses(data):
    names, values, classes = data.draw(st.sampled_from(_VALUE_CLASSES))
    fields = data.draw(values)
    for cls in classes:
        x, y = cls(*fields), cls(**dict(zip(names, fields)))
        assert x == y and not x != y
        assert tuple(getattr(x, name) for name in names) == fields
        if cls is Event:  # the attributes are a dict, hashed as sorted items
            assert hash(x) == hash((fields[0], tuple(sorted(fields[1].items()))))
        else:
            assert hash(x) == hash(fields)
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields))
        assert repr(x) == f"{cls.__qualname__}({inner})"
        assert not hasattr(x, "__dict__")
        for name in names + ("new_field",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x
        bad_calls = [lambda: cls(*fields, None), lambda: cls(*fields, new_field=None)]
        if names:  # a field missing, and one given twice
            bad_calls += [
                lambda: cls(*fields[:-1]), lambda: cls(*fields, **{names[0]: fields[0]})
            ]
        for bad_call in bad_calls:
            with pytest.raises(TypeError, match="field|argument"):
                bad_call()
        for other in classes:
            if other is not cls:
                assert x != other(*fields) and other(*fields) != x
