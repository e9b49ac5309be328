"""Clock regions and the synchronous-reset decision procedure."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tcer.cea import TRUE, TimedCea, Transition, advance, clock_guard, guard_meet, guard_sat, reset
from tcer.compiler import compile_windowed
from tcer.model import TrueP, TypeIs
from tcer.parser import parse_query
from tcer.regions import (
    EMPTY_REGION,
    Region,
    SyncResult,
    _TOP,
    _sample,
    check_sync,
    region_successor,
    reset_region,
    time_successors,
)

from conftest import make_t1, random_sync_cea


def guard_holds(region: Region, gamma, scale: int) -> bool:
    """Whether every valuation in the region satisfies the guard.

    Every constant of the guard, times ``scale``, must be an integer no
    larger than the ceiling of its clock.  Then each atom is constant on the
    region, so one valuation in it decides the guard.  A clock the region
    does not initialize fails.
    """
    return guard_sat(_sample(region, scale), gamma)


# -- region mechanics ---------------------------------------------------------


def test_successor_advances_fraction_then_integer():
    ceil = {"z": 3}
    r0 = reset_region(EMPTY_REGION, frozenset({"z"}))
    assert guard_holds(r0, clock_guard("z", "=", 0), 1)
    r1 = region_successor(r0, ceil)
    assert guard_holds(r1, guard_meet(clock_guard("z", ">", 0), clock_guard("z", "<", 1)), 1)
    r2 = region_successor(r1, ceil)
    assert guard_holds(r2, clock_guard("z", "=", 1), 1)


def test_successor_saturates_above_the_ceiling():
    ceil = {"z": 1}
    region = reset_region(EMPTY_REGION, frozenset({"z"}))
    for _ in range(4):
        region = region_successor(region, ceil)
    assert guard_holds(region, clock_guard("z", ">", 1), 1)
    assert region_successor(region, ceil) == region


def test_time_successors_cover_all_later_regions():
    ceil = {"z": 2}
    r0 = reset_region(EMPTY_REGION, frozenset({"z"}))
    succ = list(time_successors(r0, ceil))
    # strictly positive delay: (0,1), 1, (1,2), 2, (2,inf)
    assert len(succ) == 5
    assert not any(guard_holds(s, clock_guard("z", "=", 0), 1) for s in succ)
    assert any(guard_holds(s, clock_guard("z", "=", 2), 1) for s in succ)


def test_reset_zeroes_only_the_given_clocks():
    ceil = {"x": 1, "y": 1}
    region = reset_region(EMPTY_REGION, frozenset({"x", "y"}))
    region = region_successor(region, ceil)  # both in (0,1)
    region = reset_region(region, frozenset({"x"}))
    assert guard_holds(region, clock_guard("x", "=", 0), 1)
    assert guard_holds(region, guard_meet(clock_guard("y", ">", 0), clock_guard("y", "<", 1)), 1)


def test_uninitialized_clock_satisfies_no_guard():
    region = reset_region(EMPTY_REGION, frozenset({"x"}))
    assert not guard_holds(region, clock_guard("y", ">=", 0), 1)
    assert guard_holds(region, TRUE, 1)


def region_of(nu, ceilings) -> Region:
    """The region of a concrete valuation, straight from its definition."""
    ints, zero, fracs = {}, set(), {}
    for z, v in nu.items():
        if v > ceilings[z]:
            ints[z] = _TOP
            continue
        ints[z] = math.floor(v)
        if v == ints[z]:
            zero.add(z)
        else:
            fracs.setdefault(v - ints[z], set()).add(z)
    return Region(
        ints=tuple(sorted(ints.items())),
        zero=frozenset(zero),
        groups=tuple(frozenset(fracs[f]) for f in sorted(fracs)),
    )


_RUN_STEP = st.one_of(
    st.tuples(st.just("reset"), st.sets(st.sampled_from(["x", "y"]), min_size=1)),
    st.tuples(st.just("delay"), st.integers(1, 20).map(lambda k: Fraction(k, 4))),
)


@given(
    ceilings=st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 3), min_size=1),
    run=st.lists(_RUN_STEP, max_size=12),
)
def test_regions_agree_with_concrete_valuations(ceilings, run):
    nu = {}
    for kind, arg in run:
        region = region_of(nu, ceilings)
        if kind == "reset":
            clocks = frozenset(arg) & set(ceilings)
            nu = reset(nu, clocks)
            assert reset_region(region, clocks) == region_of(nu, ceilings)
        else:
            nu = advance(nu, arg)
            assert region_of(nu, ceilings) in time_successors(region, ceilings)
        region = region_of(nu, ceilings)
        for z, ceiling in ceilings.items():
            for op in ("=", "<", "<=", ">=", ">"):
                for c in range(ceiling + 1):
                    atom = clock_guard(z, op, c)
                    if atom is not None:  # ``z < 0`` is no guard: no value passes it
                        assert guard_holds(region, atom, 1) == guard_sat(nu, atom)


# -- the decision procedure ---------------------------------------------------


def test_reference_automaton_is_synchronous(t1):
    result = check_sync(t1)
    assert result.verdict == "yes"
    assert result.witness is None
    assert result.explored > 0


@pytest.mark.parametrize("seed", range(20))
def test_random_generator_emits_synchronous_automata(seed):
    rng = random.Random(90_000 + seed)
    assert check_sync(random_sync_cea(rng)).verdict == "yes"


def _conflict_automaton(guard1=TRUE, guard2=TRUE, pred1=TrueP(), pred2=TrueP()):
    return TimedCea(
        states=frozenset({0, 1, 2}),
        vars=frozenset({"X"}),
        clocks=frozenset({"z"}),
        delta=(
            Transition(0, pred1, guard1, frozenset({"X"}), frozenset({"z"}), 1),
            Transition(0, pred2, guard2, frozenset({"X"}), frozenset(), 2),
        ),
        initial=0,
        finals=frozenset({1, 2}),
    )


def test_immediate_conflict_is_found_with_witness():
    result = check_sync(_conflict_automaton())
    assert result.verdict == "no"
    run1, run2 = result.witness
    assert len(run1) == len(run2) == 1
    assert run1[-1].resets != run2[-1].resets
    assert run1[-1].label == run2[-1].label


def test_witness_runs_share_labels_and_sources():
    # a deeper conflict: identical first step, divergent resets on the second
    cea = TimedCea(
        states=frozenset({0, 1, 2, 3}),
        vars=frozenset({"X"}),
        clocks=frozenset({"z"}),
        delta=(
            Transition(0, TrueP(), TRUE, frozenset(), frozenset({"z"}), 1),
            Transition(1, TrueP(), clock_guard("z", "<=", 2), frozenset({"X"}), frozenset({"z"}), 2),
            Transition(1, TrueP(), clock_guard("z", "<=", 2), frozenset({"X"}), frozenset(), 3),
        ),
        initial=0,
        finals=frozenset({2, 3}),
    )
    result = check_sync(cea)
    assert result.verdict == "no"
    run1, run2 = result.witness
    assert len(run1) == len(run2) == 2
    for u1, u2 in zip(run1, run2):
        assert u1.label == u2.label
    assert run1[-1].resets != run2[-1].resets


def test_disjoint_predicates_avoid_the_conflict():
    result = check_sync(_conflict_automaton(pred1=TypeIs("A"), pred2=TypeIs("B")))
    assert result.verdict == "yes"


def test_disjoint_guards_avoid_the_conflict():
    result = check_sync(
        _conflict_automaton(guard1=clock_guard("z", "<=", 1), guard2=clock_guard("z", ">", 1))
    )
    # the guards mention z before any reset initializes it: neither can fire,
    # so the runs never take these transitions together
    assert result.verdict == "yes"


def test_guards_with_fractional_constants_are_rescaled():
    result = check_sync(
        _conflict_automaton(
            guard1=clock_guard("z", "<=", Fraction(1, 2)), guard2=clock_guard("z", ">", Fraction(1, 2))
        )
    )
    assert result.verdict == "yes"


def test_overlapping_guards_still_conflict():
    cea = TimedCea(
        states=frozenset({0, 1, 2, 3}),
        vars=frozenset({"X"}),
        clocks=frozenset({"z"}),
        delta=(
            Transition(0, TrueP(), TRUE, frozenset(), frozenset({"z"}), 1),
            Transition(1, TrueP(), clock_guard("z", "<=", 3), frozenset({"X"}), frozenset({"z"}), 2),
            Transition(1, TrueP(), clock_guard("z", ">=", 2), frozenset({"X"}), frozenset(), 3),
        ),
        initial=0,
        finals=frozenset({2, 3}),
    )
    assert check_sync(cea).verdict == "no"


def test_cap_yields_unknown():
    result = check_sync(make_t1(">="), cap=1)
    assert result.verdict == "unknown"


def test_cap_bounds_the_region_steps_of_a_large_constant():
    cea = compile_windowed(parse_query("(A ;[0,100000] B)"))
    start = time.perf_counter()
    result = check_sync(cea, cap=10)
    assert result.verdict == "unknown"
    assert result.explored <= 10
    assert time.perf_counter() - start < 1.0
