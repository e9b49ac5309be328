"""Zones and the synchronous-reset decision procedure."""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tcer.cea import (
    TRUE,
    TimedCea,
    Transition,
    advance,
    clock_guard,
    guard_meet,
    guard_sat,
    reset,
)
from tcer.compiler import NotWindowed, compile_cel, compile_windowed
from tcer.model import TrueP, TypeIs
from tcer.parser import parse_query
from tcer.randgen import random_formula
from tcer.regions import (
    _INF,
    _box,
    _elapse,
    _guarded,
    _limits,
    _step,
    check_sync,
)

from conftest import make_t1, random_sync_cea

# A DBM over the reference clock 0, the delay clock 1, and ``x`` and ``y``
_INDEX = {"x": 2, "y": 3}
_N = 4


def contains(zone, values) -> bool:
    """Whether the zone holds the valuation ``values``, one value per DBM
    clock, where None (an uninitialized clock) is left unchecked."""
    for i, vi in enumerate(values):
        for j, vj in enumerate(values):
            b = zone[i * _N + j]
            if vi is None or vj is None or b >= _INF:
                continue
            c, non_strict = divmod(b, 2)
            if vi - vj > c or (vi - vj == c and not non_strict):
                return False
    return True


def meets(zone, guard) -> bool:
    """Whether some valuation in the zone passes the guard."""
    _, bounds = _box(guard, _INDEX, 1)
    return _guarded(list(zone), _N, bounds) is not None


def start_zone(ceilings):
    """The zone before the first event, for clock ceilings ``(M_x, M_y)``."""
    limits = _limits([0, 0, *ceilings])
    return _step([1] * _N * _N, _N, 0, limits, 0b10), limits


# -- zone mechanics -----------------------------------------------------------


def test_reset_zeroes_only_the_given_clocks():
    zone, limits = start_zone((1, 1))
    zone = _step(_elapse(zone, _N), _N, 0b1110, limits, 0b1110)
    zone = _elapse(zone, _N)  # both in (0, inf), equal
    zone = _step(zone, _N, 0b110, limits, 0b1110)
    assert meets(zone, clock_guard("x", "=", 0))
    assert not meets(zone, clock_guard("x", ">", 0))
    assert not meets(zone, clock_guard("y", "=", 0))
    assert contains(zone, [0, 0, 0, Fraction(1, 2)])


def test_successor_saturates_above_the_ceiling():
    zone, limits = start_zone((1, 1))
    y_is_one = _box(clock_guard("y", "=", 1), _INDEX, 1)[1]
    zone = _step(_elapse(zone, _N), _N, 0b1110, limits, 0b1110)
    zones = []
    for _ in range(4):  # each round, x grows by 1 and y is reset at 1
        zone = _step(_guarded(_elapse(zone, _N), _N, y_is_one), _N, 0b1010, limits, 0b1110)
        zones.append(zone)
    assert meets(zones[0], clock_guard("x", "=", 1))
    # from x = 2 on, the zone is widened to x > 1, and the rounds keep it
    assert not meets(zones[1], clock_guard("x", "<=", 1))
    assert zones[1] == zones[2] == zones[3]


def test_strict_bounds_stay_strict():
    zone, limits = start_zone((1, 1))
    zone = _elapse(_step(_elapse(zone, _N), _N, 0b1110, limits, 0b1110), _N)
    # x and y were reset together, so they stay equal
    y_is_one = clock_guard("y", "=", 1)
    assert meets(zone, guard_meet(clock_guard("x", ">=", 1), y_is_one))
    assert not meets(zone, guard_meet(clock_guard("x", ">", 1), y_is_one))
    assert meets(zone, guard_meet(clock_guard("x", "<=", 1), y_is_one))
    assert not meets(zone, guard_meet(clock_guard("x", "<", 1), y_is_one))


def test_uninitialized_clock_satisfies_no_guard():
    # the pair conflicts wherever ``z`` is set, but no reset precedes it
    z_set = clock_guard("z", ">=", 0)
    assert check_sync(_conflict_automaton(guard1=z_set, guard2=z_set)).verdict == "yes"
    zone, limits = start_zone((2, 2))
    zone = _step(_elapse(zone, _N), _N, 0b110, limits, 0b110)
    # ``x`` was reset and ``y`` not: the zone keeps no bound on ``y``
    assert all(zone[3 * _N + j] == _INF for j in range(_N) if j != 3)


_RUN_STEP = st.tuples(
    st.integers(1, 20).map(lambda k: Fraction(k, 4)),
    st.sets(st.sampled_from(["x", "y"])),
)


@given(
    ceilings=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    run=st.lists(_RUN_STEP, max_size=12),
)
def test_zones_contain_concrete_valuations(ceilings, run):
    """Along random positive delays and resets, the concrete valuation stays
    in the symbolic zone, and every atomic guard up to the ceilings that the
    valuation passes meets the zone."""
    zone, limits = start_zone(ceilings)
    nu, init = {}, 0b10
    for delay, clocks in run:
        nu = advance(nu, delay)
        zone = _elapse(zone, _N)
        assert contains(zone, [0, delay, nu.get("x"), nu.get("y")])
        for z, ceiling in zip(("x", "y"), ceilings):
            for op in ("=", "<", "<=", ">=", ">"):
                for c in range(ceiling + 1):
                    atom = clock_guard(z, op, c)
                    if atom is not None and guard_sat(nu, atom):
                        assert meets(zone, atom)
        nu = reset(nu, clocks)
        resets = sum(1 << _INDEX[z] for z in clocks) | 0b10
        init |= resets
        zone = _step(zone, _N, resets, limits, init)
        assert contains(zone, [0, 0, nu.get("x"), nu.get("y")])


def valuations_runs_reach(last, top) -> list[dict]:
    """The valuations that runs reach right after a positive delay, where
    ``last[z]`` is the step that last reset clock ``z``.  Clocks reset at
    one step are equal, a clock reset earlier is strictly larger, and every
    set clock is positive, which is all the runs' delays fix.  Listed on
    quarters up to ``top + 2``, enough to meet every box of two clocks with
    integer constants up to ``top`` that some run meets."""
    grid = [Fraction(k, 4) for k in range(1, 4 * top + 9)]
    out = []
    for vx in grid if "x" in last else [None]:
        for vy in grid if "y" in last else [None]:
            if vx is not None and vy is not None:
                order = (last["x"] > last["y"]) - (last["x"] < last["y"])
                if order != (vy > vx) - (vy < vx):
                    continue
            out.append({z: v for z, v in (("x", vx), ("y", vy)) if v is not None})
    return out


_ATOM = st.tuples(st.sampled_from(["=", "<", "<=", ">=", ">"]), st.integers(0, 3))


@given(
    ceilings=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    run=st.lists(st.sets(st.sampled_from(["x", "y"])), max_size=8),
    atoms=st.lists(st.tuples(_ATOM, _ATOM), min_size=1, max_size=12),
)
def test_widened_zones_meet_exactly_the_boxes_some_run_reaches(ceilings, run, atoms):
    """``Extra_M`` adds valuations, but no box with constants up to the
    ceilings meets the widened zone unless some run reaches the box."""
    zone, limits = start_zone(ceilings)
    last, init = {}, 0b10
    for step, clocks in enumerate(run):
        zone = _elapse(zone, _N)
        reached = valuations_runs_reach(last, max(ceilings))
        for pair in atoms:
            box = TRUE
            for z, ceiling, (op, c) in zip(("x", "y"), ceilings, pair):
                if z in last and c <= ceiling and clock_guard(z, op, c) is not None:
                    box = guard_meet(box, clock_guard(z, op, c))
            assert meets(zone, box) == any(guard_sat(nu, box) for nu in reached)
        last.update((z, step) for z in clocks)
        resets = sum(1 << _INDEX[z] for z in clocks) | 0b10
        init |= resets
        zone = _step(zone, _N, resets, limits, init)


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


def test_large_constants_answer_yes_in_under_a_second():
    for text in ("(A ;[0,100000] B)", "(A ;[0,60] B) within [0,3600]"):
        cea = compile_windowed(parse_query(text))
        start = time.perf_counter()
        assert check_sync(cea).verdict == "yes"
        assert time.perf_counter() - start < 1.0


def _two_late_b_transitions(c):
    """After ``A`` resets ``z``, two ``B`` transitions, both guarded
    ``z > c``, one resetting ``z`` and one not."""
    late = clock_guard("z", ">", c)
    return TimedCea(
        states=frozenset({0, 1, 2, 3}),
        vars=frozenset(),
        clocks=frozenset({"z"}),
        delta=(
            Transition(0, TypeIs("A"), TRUE, frozenset(), frozenset({"z"}), 1),
            Transition(1, TypeIs("B"), late, frozenset(), frozenset({"z"}), 2),
            Transition(1, TypeIs("B"), late, frozenset(), frozenset(), 3),
        ),
        initial=0,
        finals=frozenset({2, 3}),
    )


def test_a_constant_too_large_for_the_bounds_answers_unknown():
    assert check_sync(_two_late_b_transitions(2**40)).verdict == "no"
    for c in (2**61, 2**62, 10**999):
        assert check_sync(_two_late_b_transitions(c)).verdict == "unknown"


def test_many_independent_predicates_stay_fast():
    # twenty filters on distinct attributes: 2**20 combinations of truth
    # values, of which each state pair only ever needs its own few
    text = " ; ".join(f"(A as X{i} filter X{i}[a{i} < 1])" for i in range(20))
    cea = compile_windowed(parse_query(text))
    start = time.perf_counter()
    assert check_sync(cea).verdict == "yes"
    assert time.perf_counter() - start < 1.0


# -- pinned results -------------------------------------------------------------

# The first 16 hex digits of the sha256 of ``_result_lines`` over each block
# of 100 ``random_formula`` seeds, recorded before the search memoized its
# zone operations and predicate pairs (498 "yes" and 102 "no" in all)
_RESULT_DIGESTS = [
    "93b10435c925b86b",
    "2106a1735a598743",
    "e2d9e3e72e9a4cc4",
    "efe31756498bbd9b",
    "bb704407906f0db1",
    "eff46905953dcd21",
]


def _result_lines(seeds) -> str:
    """Per seed, ``check_sync``'s verdict, explored count and witness runs
    on the formula of depth ``1 + seed % 5``, compiled windowed where it is
    windowed and by ``compile_cel`` otherwise."""
    lines = []
    for seed in seeds:
        phi = random_formula(random.Random(seed), 1 + seed % 5)
        try:
            cea = compile_windowed(phi)
        except NotWindowed:
            cea = compile_cel(phi)
        result = check_sync(cea)
        runs = " | ".join(" ; ".join(map(str, run)) for run in result.witness or ())
        lines.append(f"{seed} {result.verdict} {result.explored} {runs}")
    return "\n".join(lines)


@pytest.mark.parametrize("block", range(len(_RESULT_DIGESTS)))
def test_results_on_random_formulas_match_the_recorded_digest(block):
    text = _result_lines(range(100 * block, 100 * block + 100))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _RESULT_DIGESTS[block]
