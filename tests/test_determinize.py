"""Subset-construction determinization of synchronous-reset automata."""

from __future__ import annotations

import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tcer.cea import (
    Cmp,
    GAnd,
    GOr,
    GTrue,
    TimedCea,
    Transition,
    eval_cea_oracle,
    guard_boxes,
    guard_clocks,
    guard_sat,
    is_deterministic,
    is_monotonic,
)
from tcer.determinize import (
    SyncResetViolation,
    determinize,
    boxes_to_guard,
    negate_guard,
    simplify_boxes,
    split_disjunctions,
)
from tcer.model import TrueP, TypeIs, sat
from tcer.randgen import random_stream

from conftest import random_sync_cea


# -- guard negation ----------------------------------------------------------


def test_the_package_leaves_the_determinize_module_importable():
    import tcer.determinize as d

    assert isinstance(d, types.ModuleType)
    assert callable(d.determinize)


def test_negate_guard_duals():
    assert negate_guard(Cmp("z", "<=", 3)) == Cmp("z", ">", 3)
    assert negate_guard(Cmp("z", "=", 3)) == GOr(Cmp("z", ">", 3), Cmp("z", "<", 3))
    assert not guard_sat({"z": Fraction(1)}, negate_guard(GTrue()))


@given(
    st.integers(0, 6),
    st.sampled_from(["=", "<", "<=", ">=", ">"]),
    st.fractions(min_value=0, max_value=6),
)
def test_negation_complements_over_initialized_clocks(c, op, v):
    gamma = Cmp("z", op, Fraction(c))
    nu = {"z": v}
    assert guard_sat(nu, negate_guard(gamma)) == (not guard_sat(nu, gamma))


def test_negation_complements_compound_guards():
    gamma = GAnd(Cmp("x", "<=", 2), GOr(Cmp("y", ">", 1), Cmp("x", "=", 0)))
    for xv in range(4):
        for yv in range(4):
            nu = {"x": Fraction(xv), "y": Fraction(yv)}
            assert guard_sat(nu, negate_guard(gamma)) == (not guard_sat(nu, gamma))


def test_simplify_guard_rejoins_adjacent_intervals():
    gamma = GOr(Cmp("z", "<=", 2), GAnd(Cmp("z", ">", 2), Cmp("z", "<=", 5)))
    assert boxes_to_guard(simplify_boxes(guard_boxes(gamma))) == Cmp("z", "<=", 5)


def test_split_disjunctions_keeps_clock_mention():
    # a disjunct must keep failing while any mentioned clock is uninitialized
    cea = TimedCea(
        states=frozenset({0, 1}),
        vars=frozenset({"X"}),
        clocks=frozenset({"z0", "z1"}),
        delta=(
            Transition(
                0,
                TrueP(),
                GOr(Cmp("z0", "<", 1), Cmp("z1", "<", 2)),
                frozenset({"X"}),
                frozenset(),
                1,
            ),
        ),
        initial=0,
        finals=frozenset({1}),
    )
    for tr in split_disjunctions(cea).delta:
        assert guard_clocks(tr.guard) == frozenset({"z0", "z1"})


# -- the reference automaton -------------------------------------------------


def test_determinize_reference_automaton(t1, s0):
    det = determinize(t1)
    assert is_deterministic(det)
    assert is_monotonic(det) == "le"
    checked = frozenset(z for tr in det.delta for z in guard_clocks(tr.guard))
    assert len(checked) == 1
    assert det.initial == (0,)
    assert eval_cea_oracle(det, s0) == eval_cea_oracle(t1, s0)


@pytest.mark.parametrize("seed", range(20))
def test_determinize_reference_automaton_random_streams(t1, seed):
    det = determinize(t1)
    rng = random.Random(seed)
    stream = random_stream(rng, rng.randint(0, 10))
    assert eval_cea_oracle(det, stream) == eval_cea_oracle(t1, stream)


def test_determinize_is_idempotent_up_to_language(t1, s0):
    det = determinize(t1)
    again = determinize(det)
    assert is_deterministic(again)
    assert eval_cea_oracle(again, s0) == eval_cea_oracle(det, s0)


def test_all_states_reachable(t1):
    det = determinize(t1)
    reached = {det.initial}
    frontier = [det.initial]
    while frontier:
        q = frontier.pop()
        for tr in det.out(q):
            if tr.target not in reached:
                reached.add(tr.target)
                frontier.append(tr.target)
    assert reached == det.states


# -- random synchronous automata ---------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_determinize_preserves_language(seed):
    rng = random.Random(40_000 + seed)
    cea = random_sync_cea(rng)
    det = determinize(cea)
    assert is_deterministic(det)
    for _ in range(4):
        stream = random_stream(rng, rng.randint(0, 8))
        assert eval_cea_oracle(det, stream) == eval_cea_oracle(cea, stream)


def test_conflicting_resets_are_reported():
    cea = TimedCea(
        states=frozenset({0, 1, 2}),
        vars=frozenset({"X"}),
        clocks=frozenset({"z"}),
        delta=(
            Transition(0, TrueP(), GTrue(), frozenset({"X"}), frozenset({"z"}), 1),
            Transition(0, TrueP(), GTrue(), frozenset({"X"}), frozenset(), 2),
        ),
        initial=0,
        finals=frozenset({1, 2}),
    )
    with pytest.raises(SyncResetViolation) as err:
        determinize(cea)
    tr1, tr2 = err.value.pair
    assert tr1.resets != tr2.resets
    assert tr1.label == tr2.label


# -- predicate/guard type partitions -----------------------------------------


@given(st.integers(0, 6), st.data())
def test_predicate_types_partition_events(v, data):
    from tcer.determinize import _dedup
    from tcer.model import Basic, Event, Not, event_cells, pred_and
    import itertools

    preds = _dedup(
        [
            Basic("x", data.draw(st.sampled_from(["<", "<=", ">", ">="])), c)
            for c in data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
        ]
        + [TypeIs(data.draw(st.sampled_from(["A", "B"])))]
    )
    event = Event(data.draw(st.sampled_from(["A", "B"])), {"x": v})
    holding = 0
    for bits in itertools.product((True, False), repeat=len(preds)):
        cell = pred_and(
            *(p for p, b in zip(preds, bits) if b),
            *(Not(p) for p, b in zip(preds, bits) if not b),
        )
        if sat_cell(event, cell):
            holding += 1
            assert (True,) in event_cells([cell])  # held cells must not be pre-pruned
    assert holding == 1


def sat_cell(event, cell):
    return sat(event, cell)


@given(
    st.fractions(min_value=0, max_value=7),
    st.lists(
        st.tuples(
            st.sampled_from(["=", "<", "<=", ">=", ">"]), st.integers(0, 6)
        ),
        min_size=1,
        max_size=3,
        unique=True,
    ),
)
def test_guard_types_partition_valuations(v, atoms):
    import itertools

    from tcer.cea import gand

    guards = [Cmp("z", op, Fraction(c)) for op, c in atoms]
    nu = {"z": v}
    holding = 0
    for bits in itertools.product((True, False), repeat=len(guards)):
        alpha = gand(*(g if b else negate_guard(g) for g, b in zip(guards, bits)))
        if guard_sat(nu, alpha):
            holding += 1
    assert holding == 1


# -- size bound --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_size_bound(seed):
    rng = random.Random(70_000 + seed)
    cea = random_sync_cea(rng)
    det = determinize(cea)
    q, d = len(cea.states), len(cea.delta)
    assert det.size() <= 2 ** (q + 2 * d) * cea.size() + 2**q
