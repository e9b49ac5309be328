"""Query AST classification and the brute-force reference semantics."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tcer import cel
from tcer.cel import OracleCapExceeded, classify, eval_cel_oracle
from tcer.model import Basic, ComplexEvent, Event, Interval, TimedStream
from tcer.parser import parse_query
from tcer.randgen import random_formula, random_stream

from conftest import PHI1P_TEXT, PHI2_TEXT


def test_reference_query_output(s0):
    out = eval_cel_oracle(parse_query(PHI2_TEXT), s0)
    assert ComplexEvent.make(4, 8, {"X": {4}, "Y": {8}, "T": {5, 6, 7}}) in out


def test_single_event_type_matches_every_occurrence(s0):
    out = eval_cel_oracle(cel.EventType("H"), s0)
    assert out == frozenset(
        ComplexEvent.make(k, k, {"H": {k}}) for k in (1, 3, 4, 8, 9)
    )


def test_zero_width_window_keeps_single_events(s0):
    phi = cel.Within(cel.EventType("T"), Interval.of("<=", Fraction(0)))
    out = eval_cel_oracle(phi, s0)
    assert out == frozenset(
        ComplexEvent.make(k, k, {"T": {k}}) for k in (2, 5, 6, 7)
    )


def test_strict_predicate_excludes_the_borderline_reading(s0):
    phi = parse_query(PHI1P_TEXT)  # temp > 40, strict
    out = eval_cel_oracle(phi, s0)
    assert ComplexEvent.make(5, 9, {"X": {5}, "Y": {9}}) not in out


def test_oracle_cap_is_enforced():
    long = TimedStream((Event("A", {}), Fraction(i)) for i in range(1, 17))
    with pytest.raises(OracleCapExceeded):
        eval_cel_oracle(cel.EventType("A"), long)
    assert eval_cel_oracle(cel.EventType("A"), long, cap=16)


# -- classification ----------------------------------------------------------


def test_classify_reference_queries():
    label, flags = classify(parse_query(PHI1P_TEXT))
    assert label == "windowed"
    label, flags = classify(parse_query(PHI2_TEXT))
    assert label == "windowed"


def test_classify_single_event_type():
    label, flags = classify(cel.EventType("T"))
    assert label == "simple"
    assert {"simple", "windowed"} <= flags


def test_classify_swg_form():
    # filtered any-type blocks chained by gap constraints, under one window
    any_type = cel.Or(cel.EventType("A"), cel.EventType("B"))

    def block(var, pred):
        return cel.Filter(cel.As(any_type, var), var, pred)

    chain = cel.TimedSeq(
        block("X1", Basic("x", ">", 0)),
        Interval.of("<=", Fraction(3)),
        block("X2", Basic("x", "<", 5)),
    )
    label, flags = classify(cel.Within(chain, Interval.of("<=", Fraction(5))))
    assert label == "swg"
    assert "windowed" in flags
    assert "simple" not in flags
    # a block over a sequence, not a disjunction of types, is only windowed
    assert classify(parse_query("((A ; B) as X filter X[x < 1]) within [0,5]"))[0] == "windowed"


def test_classify_general():
    # a window nested under a timed operator leaves the two-level grammar
    phi = cel.TimedSeq(
        cel.Within(cel.EventType("A"), Interval.of("<=", Fraction(1))),
        Interval.of("<=", Fraction(2)),
        cel.EventType("B"),
    )
    assert classify(phi)[0] == "general"


# -- semantic laws -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_or_and_window_laws(seed):
    rng = random.Random(seed)
    phi1 = random_formula(rng, 2)
    phi2 = random_formula(rng, 2)
    stream = random_stream(rng, rng.randint(0, 8))
    s1 = eval_cel_oracle(phi1, stream)
    s2 = eval_cel_oracle(phi2, stream)
    assert s1 <= eval_cel_oracle(cel.Or(phi1, phi2), stream)
    assert eval_cel_oracle(cel.And(phi1, phi2), stream) == s1 & s2
    unbounded = Interval(Fraction(0), None)
    assert eval_cel_oracle(cel.Within(phi1, unbounded), stream) == s1
    assert eval_cel_oracle(
        cel.TimedSeq(phi1, unbounded, phi2), stream
    ) == eval_cel_oracle(cel.Seq(phi1, phi2), stream)


@pytest.mark.parametrize("seed", range(25))
def test_outputs_are_well_formed(seed):
    rng = random.Random(1000 + seed)
    phi = random_formula(rng, 3)
    stream = random_stream(rng, rng.randint(0, 8))
    for c in eval_cel_oracle(phi, stream):
        assert 1 <= c.start <= c.end <= len(stream)
        for _, positions in c.binding:
            assert all(c.start <= p <= c.end for p in positions)


def test_iteration_is_a_fixpoint(s0):
    # H+ must contain every non-empty combination of H positions in order
    out = eval_cel_oracle(cel.Plus(cel.EventType("H")), s0)
    singles = {c for c in out if len(dict(c.binding)["H"]) == 1}
    assert len(singles) == 5
    assert ComplexEvent.make(1, 9, {"H": {1, 3, 4, 8, 9}}) in out


def test_contiguous_iteration_requires_adjacency(s0):
    out = eval_cel_oracle(cel.ContigPlus(cel.EventType("H")), s0)
    assert ComplexEvent.make(3, 4, {"H": {3, 4}}) in out
    assert ComplexEvent.make(1, 3, {"H": {1, 3}}) not in out


def test_filter_restricts_marked_positions(s0):
    phi = cel.Filter(
        cel.As(cel.EventType("H"), "X"), "X", Basic("hum", "<", Fraction(21))
    )
    out = eval_cel_oracle(phi, s0)
    assert {c.start for c in out} == {3, 9}  # hum 20 and 18
