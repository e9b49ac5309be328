"""Clocked automata: guards, valuations, runs, classifiers, serialization."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tcer.cea import (
    FULL_INTERVAL,
    TRUE,
    TimedCea,
    Transition,
    _state_key,
    cea_from_json,
    cea_to_json,
    clock_guard,
    eval_cea_oracle,
    format_guard,
    guard_from_json,
    guard_meet,
    guard_sat,
    guard_size,
    guard_to_json,
    is_deterministic,
    is_monotonic,
    reset,
    step,
)
from tcer.model import Basic, ComplexEvent, Event, Interval, TimedStream, TrueP, TypeIs
from tcer.randgen import random_stream

from conftest import eval_cea_at, make_t1, random_sync_cea


# -- guards over partial valuations ------------------------------------------


def _cmp(clock, op, constant) -> dict:
    return {"kind": "cmp", "clock": clock, "op": op, "constant": str(constant)}


def test_guard_sat_reference_values():
    nu = {"x": Fraction(5), "y": Fraction(1, 2)}
    assert guard_sat(nu, clock_guard("x", ">=", Fraction(4)))
    assert not guard_sat(nu, clock_guard("y", "<", Fraction(1, 2)))
    conj = guard_meet(clock_guard("z", "<=", Fraction(5, 3)), clock_guard("y", ">=", 1))
    assert conj == (("z", Interval(0, Fraction(5, 3))), ("y", Interval(1, None)))
    assert not guard_sat(nu, conj)  # z is not initialized
    assert guard_sat(nu, TRUE)


def test_uninitialized_clock_fails_even_under_or():
    nu = {"x": Fraction(5)}
    doc = {"kind": "or", "left": _cmp("x", ">=", 0), "right": _cmp("z", ">=", 0)}
    boxes, mentioned = guard_from_json(doc, "guard")
    assert mentioned == {"x", "z"}
    assert boxes == [(("x", FULL_INTERVAL), ("z", FULL_INTERVAL))]
    assert not any(guard_sat(nu, box) for box in boxes)


def test_a_written_box_reloads_with_its_clocks_in_order():
    """A box written with ``y`` first reloads as the same box, and a
    disjunction's boxes check their clocks in order of first mention."""
    g = guard_meet(clock_guard("y", ">", 2), guard_meet(clock_guard("x", "<=", 3), clock_guard("w", ">=", 0)))
    assert guard_from_json(guard_to_json(g), "guard") == ([g], {"x", "y", "w"})
    doc = {"kind": "or", "left": _cmp("y", "<", 1), "right": _cmp("x", ">", 2)}
    boxes, _ = guard_from_json(doc, "guard")
    assert [[z for z, _ in box] for box in boxes] == [["y", "x"]] * 2


@pytest.mark.parametrize("clocks", [9, 24])
@pytest.mark.parametrize("interval", [Interval(0, 5), Interval(1, 2, False, True)])
def test_a_written_box_on_many_clocks_reloads_as_itself(clocks, interval):
    """A conjunction is not cut into cells, so a box the tools write loads
    as itself however many clocks it checks (2^24 cells, if it were cut)."""
    g = tuple((f"z{i}", interval) for i in range(clocks))
    assert guard_from_json(guard_to_json(g), "guard") == ([g], {z for z, _ in g})


def test_guard_size_counts_comparisons():
    g = guard_meet(
        clock_guard("x", "<", 1), guard_meet(clock_guard("y", ">", 2), clock_guard("y", "<", 4))
    )
    assert guard_size(g) == 3
    assert format_guard(g) == "x < 1 and y > 2 and y < 4"
    assert guard_size(TRUE) == 1  # the constant itself is one operation
    assert guard_size(clock_guard("z", ">=", 0)) == 1  # kept to check that z is set


def test_guard_satisfiable():
    assert guard_meet(clock_guard("z", ">", 1), clock_guard("z", "<", 2)) is not None
    assert guard_meet(clock_guard("z", ">", 2), clock_guard("z", "<", 1)) is None
    assert clock_guard("z", "<", 0) is None  # clocks are non-negative


def test_reset_initializes_and_zeroes():
    nu = reset({"x": Fraction(3)}, ["y"])
    assert nu == {"x": Fraction(3), "y": Fraction(0)}


# -- steps and runs ----------------------------------------------------------


def test_step_starts_a_run_on_a_hot_reading(s0, t1):
    succ = step((0, {}), s0[2], s0.time(2), t1)
    assert succ == {(1, (("z", Fraction(0)),), frozenset({"X"}))}


def test_step_closes_a_run_on_a_dry_reading(s0, t1):
    # at state 2 with z about to reach 2.7, event 9 (hum 18) fires z<=5
    nu = {"z": Fraction("7.2") - Fraction("4.5") - Fraction(1)}
    succ = step((2, nu), s0[9], Fraction(1), t1)
    assert any(q == 3 and label == frozenset({"Y"}) for q, _, label in succ)


def test_step_with_no_matching_predicate(s0, t1):
    assert step((0, {}), s0[1], s0.time(1), t1) == set()  # humidity event


def test_run_oracle_reference_output(s0, t1):
    assert eval_cea_oracle(t1, s0) == frozenset(
        {ComplexEvent.make(5, 9, {"X": {5}, "Y": {9}})}
    )
    assert eval_cea_at(t1, s0, 9) == eval_cea_oracle(t1, s0)
    assert eval_cea_at(t1, s0, 5) == frozenset()


def test_strict_variant_has_no_output(s0):
    # with a strict > 40 the borderline reading cannot confirm the heat
    assert eval_cea_oracle(make_t1(">"), s0) == frozenset()


def test_no_finals_means_no_output(s0, t1):
    dead = TimedCea(
        t1.states, t1.vars, t1.clocks, t1.delta, t1.initial, frozenset()
    )
    assert eval_cea_oracle(dead, s0) == frozenset()


def test_never_reset_clock_never_fires(s0):
    cea = TimedCea(
        states=frozenset({0, 1}),
        vars=frozenset({"X"}),
        clocks=frozenset({"z"}),
        delta=(
            Transition(0, TrueP(), clock_guard("z", ">=", 0), frozenset({"X"}), frozenset(), 1),
        ),
        initial=0,
        finals=frozenset({1}),
    )
    assert eval_cea_oracle(cea, s0) == frozenset()


def test_outputs_partition_by_end_position(s0, t1):
    total = eval_cea_oracle(t1, s0)
    assert total == frozenset().union(
        *(eval_cea_at(t1, s0, j) for j in range(1, len(s0) + 1))
    )


# -- classifiers -------------------------------------------------------------


def test_t1_is_not_deterministic_but_monotonic(t1):
    assert not is_deterministic(t1)  # hot reading: stay at 1 or advance to 2
    assert is_monotonic(t1) == "le"


def test_single_transition_is_deterministic():
    cea = TimedCea(
        frozenset({0, 1}),
        frozenset({"X"}),
        frozenset(),
        (Transition(0, TrueP(), TRUE, frozenset({"X"}), frozenset(), 1),),
        0,
        frozenset({1}),
    )
    assert is_deterministic(cea)
    assert is_monotonic(cea) == "le"  # all-true guards default


def test_disjoint_predicates_keep_determinism(t1):
    delta = tuple(
        tr if tr.pred != TrueP() else Transition(
            tr.source, TypeIs("T"), tr.guard, tr.label, tr.resets, tr.target
        )
        for tr in t1.delta
    )
    cea = TimedCea(t1.states, t1.vars, t1.clocks, delta, t1.initial, t1.finals)
    assert not is_deterministic(cea)  # hot T readings still overlap


def test_equality_guard_is_not_monotonic(t1):
    delta = t1.delta[:2] + (
        Transition(1, TrueP(), clock_guard("z", "=", 3), frozenset(), frozenset(), 2),
    )
    cea = TimedCea(t1.states, t1.vars, t1.clocks, delta, t1.initial, t1.finals)
    assert is_monotonic(cea) == "no"


def test_mixed_directions_are_not_monotonic(t1):
    delta = t1.delta + (
        Transition(1, TrueP(), clock_guard("z", ">=", 3), frozenset(), frozenset(), 2),
    )
    cea = TimedCea(t1.states, t1.vars, t1.clocks, delta, t1.initial, t1.finals)
    assert is_monotonic(cea) == "no"


@pytest.mark.parametrize(
    "op, constant, direction",
    [
        ("<=", 3, "le"), ("=", 0, "le"), (">=", 3, "ge"), (">=", 0, "ge"),
        ("<", 3, "no"), (">", 3, "no"), ("=", 3, "no"),
    ],
)
def test_a_guard_is_monotonic_by_its_interval(t1, op, constant, direction):
    """``le``: every interval is ``[0, c]`` or ``[0, inf)``; ``ge``: every
    one is ``[c, inf)``; a strict end or a point above 0 is neither."""
    guard = clock_guard("z", op, constant)
    delta = t1.delta[:2] + (Transition(1, TrueP(), guard, frozenset(), frozenset(), 2),)
    cea = TimedCea(t1.states, t1.vars, t1.clocks, delta, t1.initial, t1.finals)
    assert is_monotonic(cea) == direction


def test_size_counts_states_and_transition_parts(t1):
    # 4 states + per transition: |guard| + |pred| + |label| + |resets|,
    # where the constant true guard/predicate each count as one
    assert t1.size() == 4 + (1 + 1 + 1 + 1) + (1 + 1 + 0 + 0) + (1 + 1 + 0 + 0) + (
        1 + 1 + 0 + 0
    ) + (1 + 1 + 1 + 0)


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_json_round_trip(seed):
    rng = random.Random(seed)
    cea = random_sync_cea(rng)
    doc = json.loads(json.dumps(cea_to_json(cea)))
    back = cea_from_json(doc)
    stream = random_stream(rng, 6)
    assert eval_cea_oracle(back, stream) == eval_cea_oracle(cea, stream)
    assert back.clocks == cea.clocks and back.finals == cea.finals


def test_states_are_written_tuples_first_then_ints_by_value_then_strings():
    states = [("a", 1), 2, 10, "q"]
    delta = [
        Transition(p, TrueP(), TRUE, frozenset(), frozenset(), q)
        for p, q in zip(states, states[1:])
    ]
    cea = TimedCea(frozenset(states), frozenset(), frozenset(), tuple(delta), 10, frozenset({"q"}))
    doc = cea_to_json(cea)
    assert doc["states"] == ["('a', 1)", "2", "10", "q"]
    assert doc["initial"] == 2 and doc["finals"] == [3]


@given(st.integers(11, 31), st.randoms(use_true_random=False))
def test_a_reloaded_automaton_writes_back_as_itself(n_states, rng):
    """A loaded automaton's states are the ints 0 to n-1; it is written
    with them in that order, also past 10 states, so it reloads as itself."""
    cea = random_sync_cea(rng, n_states)
    loaded = cea_from_json(json.loads(json.dumps(cea_to_json(cea))))
    assert cea_from_json(cea_to_json(loaded)) == loaded


def test_json_round_trip_preserves_fractions(t1):
    delta = t1.delta[:1] + (
        Transition(1, TrueP(), clock_guard("z", "<=", Fraction(4, 3)), frozenset(), frozenset(), 2),
    )
    cea = TimedCea(t1.states, t1.vars, t1.clocks, delta, t1.initial, t1.finals)
    back = cea_from_json(cea_to_json(cea))
    guards = {tr.guard for tr in back.delta}
    assert clock_guard("z", "<=", Fraction(4, 3)) in guards


def cea_to_dot(cea: TimedCea) -> str:
    """A Graphviz rendering of the automaton, for reading one by eye."""
    lines = ["digraph cea {", "  rankdir=LR;"]
    states = sorted(cea.states, key=_state_key)
    index = {q: i for i, q in enumerate(states)}
    for q in states:
        shape = "doublecircle" if q in cea.finals else "circle"
        lines.append(f'  n{index[q]} [label="{_state_key(q)}", shape={shape}];')
    lines.append("  start [shape=point];")
    lines.append(f"  start -> n{index[cea.initial]};")
    for tr in cea.delta:
        lab = ",".join(sorted(tr.label)) or "∅"
        rst = ",".join(sorted(tr.resets)) or "∅"
        text = f"{tr.pred}, {format_guard(tr.guard)} / {{{lab}}}, {{{rst}}}"
        text = text.replace('"', "'")
        lines.append(f'  n{index[tr.source]} -> n{index[tr.target]} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines)


def test_dot_export_mentions_all_states(t1):
    dot = cea_to_dot(t1)
    for q in t1.states:
        assert str(q) in dot
