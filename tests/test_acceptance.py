"""End-to-end acceptance battery.

Covers: the reference-query reproduction across all three engines, seeded
compilation and determinization soundness, the synchronous-reset decision,
streaming correctness with its structural bounds, amortized-constant update
time, output-linear enumeration delay, and an exhaustive gadget-merge grid.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from tcer import cel
from tcer.caecs import Caecs
from tcer.cea import (
    TRUE,
    TimedCea,
    Transition,
    eval_cea_oracle,
    is_deterministic,
)
from tcer.cel import eval_cel_oracle
from tcer.compiler import compile_cel, compile_windowed
from tcer.determinize import determinize
from tcer.engine import StreamingEngine
from tcer.model import ComplexEvent, Event, TypeIs, event_cells
from tcer.parser import parse_query
from tcer.randgen import random_formula, random_stream
from tcer.regions import check_sync

from conftest import (
    PHI2_TEXT,
    eval_cea_at,
    make_s0,
    make_t1,
    random_streamable_cea,
    random_sync_cea,
)


# -- 1. reference reproduction across all three engines -----------------------


def test_reference_query_all_engines_agree_everywhere():
    start = time.perf_counter()
    s0 = make_s0()
    phi = parse_query(PHI2_TEXT)
    cea = compile_cel(phi)
    det = determinize(compile_windowed(phi))
    engine = StreamingEngine(det, debug=True)

    expected_match = ComplexEvent.make(4, 8, {"X": {4}, "Y": {8}, "T": {5, 6, 7}})
    reference = eval_cel_oracle(phi, s0)
    assert expected_match in reference

    per_position = {}
    for i, e, t in s0.pairs():
        per_position[i] = frozenset(engine.feed(e, t))
    for j in range(1, len(s0) + 1):
        at_j = frozenset(c for c in reference if c.end == j)
        assert eval_cea_at(cea, s0, j) == at_j
        assert per_position[j] == at_j
    assert frozenset().union(*per_position.values()) == reference
    assert time.perf_counter() - start < 1.0


# -- 2. compilation soundness -------------------------------------------------


def test_compilation_soundness_battery():
    start = time.perf_counter()
    operators_seen = set()
    for seed in range(200):
        rng = random.Random(200_000 + seed)
        phi = random_formula(rng, rng.randint(1, 4))
        operators_seen |= {type(sub).__name__ for sub in cel.subformulas(phi)}
        cea = compile_cel(phi)
        stream = random_stream(rng, rng.randint(0, 10))
        assert eval_cea_oracle(cea, stream, cap=len(stream) + 1) == eval_cel_oracle(
            phi, stream, cap=len(stream) + 1
        )
    assert len(operators_seen) >= 15  # every operator was exercised
    assert time.perf_counter() - start < 300


# -- 3. determinization soundness and size ------------------------------------


def _sync_family():
    for seed in range(50):
        yield random_sync_cea(random.Random(300_000 + seed))


def test_determinization_soundness_battery():
    start = time.perf_counter()
    for cea in _sync_family():
        det = determinize(cea)
        assert is_deterministic(det)
        q, d = len(cea.states), len(cea.delta)
        assert det.size() <= 2 ** (q + 2 * d) * cea.size() + 2**q
        rng = random.Random(det.size())
        for _ in range(3):
            stream = random_stream(rng, rng.randint(0, 8))
            assert eval_cea_oracle(det, stream) == eval_cea_oracle(cea, stream)
    assert time.perf_counter() - start < 300


# -- 4. the synchronous-reset decision ----------------------------------------


def test_sync_decision_accepts_the_synchronous():
    assert check_sync(make_t1(">=")).verdict == "yes"
    for cea in _sync_family():
        assert check_sync(determinize(cea)).verdict == "yes"


def _conflict_family():
    """Automata with a reset conflict after a seeded run-up of common steps."""
    for seed in range(10):
        rng = random.Random(seed)
        depth = rng.randint(0, 3)
        delta = []
        for i in range(depth):
            delta.append(
                Transition(
                    i,
                    TypeIs(rng.choice(["A", "B"])),
                    TRUE,
                    frozenset({"X"}) if rng.random() < 0.5 else frozenset(),
                    frozenset({"z"}) if rng.random() < 0.5 else frozenset(),
                    i + 1,
                )
            )
        pred = TypeIs(rng.choice(["A", "B"]))
        label = frozenset({"Y"})
        delta.append(
            Transition(depth, pred, TRUE, label, frozenset({"z"}), depth + 1)
        )
        delta.append(Transition(depth, pred, TRUE, label, frozenset(), depth + 2))
        yield TimedCea(
            states=frozenset(range(depth + 3)),
            vars=frozenset({"X", "Y"}),
            clocks=frozenset({"z"}),
            delta=tuple(delta),
            initial=0,
            finals=frozenset({depth + 1, depth + 2}),
        )


def test_sync_decision_rejects_conflicts_with_verifiable_witness():
    for cea in _conflict_family():
        result = check_sync(cea)
        assert result.verdict == "no"
        run1, run2 = result.witness
        assert len(run1) == len(run2) >= 1
        # the two runs start together, stay same-labeled and co-fireable,
        # reset identically until the last step, where the resets diverge
        assert run1[0].source == run2[0].source == cea.initial
        for k, (u1, u2) in enumerate(zip(run1, run2)):
            if k:
                assert u1.source == run1[k - 1].target
                assert u2.source == run2[k - 1].target
            assert u1.label == u2.label
            assert (True, True) in event_cells([u1.pred, u2.pred])
            if k < len(run1) - 1:
                assert u1.resets == u2.resets
        assert run1[-1].resets != run2[-1].resets


# -- 5. streaming correctness with structural bounds ---------------------------


def test_streaming_correctness_battery():
    for seed in range(100):
        rng = random.Random(500_000 + seed)
        cea = random_streamable_cea(rng)
        stream = random_stream(rng, rng.randint(0, 30))
        engine = StreamingEngine(cea, debug=True)
        for _, e, t in stream.pairs():
            matches = engine.feed(e, t)
            assert frozenset(matches) == eval_cea_at(
                cea, stream, engine.position, cap=len(stream)
            )
        assert engine.max_list_len <= len(cea.states) + 2
        assert engine.max_odepth <= 11


# -- 6. amortized-constant update time ----------------------------------------


def test_update_time_stays_constant_over_100k_events():
    start = time.perf_counter()
    det = determinize(compile_windowed(parse_query(PHI2_TEXT)))
    engine = StreamingEngine(det, debug=False)
    rng = random.Random(0)
    t = Fraction(0)
    times = []
    n = 100_000
    for _ in range(n):
        t += Fraction(rng.randint(5, 40), 100)
        event = Event(
            rng.choice(["H", "T"]),
            {
                "hum": Fraction(rng.randint(0, 60)),
                "temp": Fraction(rng.randint(20, 60)),
            },
        )
        t0 = time.perf_counter()
        engine.feed(event, t)
        times.append(time.perf_counter() - t0)
    decile = n // 10
    first = sum(times[:decile]) / decile
    last = sum(times[-decile:]) / decile
    assert last <= 2 * first, f"update time grew: {first:.2e}s -> {last:.2e}s"
    assert time.perf_counter() - start < 120


# -- 7. output-linear enumeration delay ---------------------------------------


def _accumulating_automaton() -> TimedCea:
    """Every earlier A-position opens a match that stays alive forever."""
    return TimedCea(
        states=frozenset({0, 1}),
        vars=frozenset({"X"}),
        clocks=frozenset({"z"}),
        delta=(
            Transition(0, TypeIs("A"), TRUE, frozenset({"X"}), frozenset({"z"}), 1),
            Transition(1, TypeIs("A"), TRUE, frozenset(), frozenset(), 1),
        ),
        initial=0,
        finals=frozenset({1}),
    )


def _delays_per_output_unit(engines: list[StreamingEngine]) -> list[tuple[int, float]]:
    """Per engine, the match count at its last position and the enumeration
    time per unit of output (one per match plus one per bound position),
    minimized over repetitions.  Each round probes every engine once, so a
    drift in machine speed reaches them alike, and ``gc`` is paused while
    timing, as ``timeit`` does."""
    best = [math.inf] * len(engines)
    counts = [0] * len(engines)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            for k, engine in enumerate(engines):
                t0 = time.perf_counter()
                out = list(engine.enumerate_at(engine.position))
                elapsed = time.perf_counter() - t0
                counts[k] = len(out)
                size = sum(1 + sum(len(ps) for _, ps in m.binding) for m in out)
                best[k] = min(best[k], elapsed / size)
    finally:
        if gc_was_enabled:
            gc.enable()
    return list(zip(counts, best))


def test_enumeration_delay_is_output_linear():
    engines = []
    for n in (150, 1500):
        engine = StreamingEngine(_accumulating_automaton(), debug=False)
        for j in range(1, n + 1):
            engine.feed(Event("A", {}), Fraction(j))
        engines.append(engine)
    (early_count, early), (late_count, late) = _delays_per_output_unit(engines)
    assert early_count == 150 and late_count == 1500  # >= 10^3 matches late
    assert late <= 2 * early, f"delay grew with position: {early:.2e} -> {late:.2e}"


def _heat_spell(n: int) -> tuple[StreamingEngine, list[ComplexEvent]]:
    """PHI2's engine after a dry H, n T readings 0.5 apart and a humid H,
    with the matches at the last position."""
    engine = StreamingEngine(determinize(compile_windowed(parse_query(PHI2_TEXT))), debug=False)
    t = Fraction(1)
    assert engine.feed(Event("H", {"hum": Fraction(20)}), t) == []
    for _ in range(n):
        t += Fraction(1, 2)
        assert engine.feed(Event("T", {"temp": Fraction(45)}), t) == []
    return engine, engine.feed(Event("H", {"hum": Fraction(40)}), t + Fraction(1, 2))


def test_deep_match_is_enumerated():
    _, matches = _heat_spell(5000)
    expected = ComplexEvent.make(1, 5002, {"X": {1}, "T": range(2, 5002), "Y": {5002}})
    assert matches == [expected]
    assert sum(len(ps) for _, ps in matches[0].binding) == 5002


def test_enumeration_cost_per_bound_position_is_flat():
    engines = [_heat_spell(n)[0] for n in (100, 5000)]
    (short_count, short), (long_count, long) = _delays_per_output_unit(engines)
    assert short_count == long_count == 1
    assert long <= 2 * short, f"cost per position grew: {short:.2e} -> {long:.2e}"


# -- 8. gadget-merge grid vs a brute-force oracle -----------------------------


def _apply_items(cs: Caecs, items, anchor):
    """Ground semantics of a gadget on one clock component; None = filtered."""
    for item in reversed(items):
        if item[0] == "c":
            _, t0, bound = item
            passes = t0 - anchor <= bound if cs.direction == "le" else t0 - anchor >= bound
            if not passes:
                return None
        else:
            anchor = item[1]
    return anchor


def _gate_args(items):
    """The (reset, limit) of an item list (a reset over a check)."""
    reset = limit = None
    for item in items:
        if item[0] == "r":
            reset = item[1]
        else:
            _, t0, bound = item
            limit = t0 - bound
    return reset, limit


def _merge_cases(grid, bounds):
    for t1, t2 in itertools.product(grid, repeat=2):
        if t1 < t2:
            continue  # the outer gadget is applied later
        yield [("r", t1)], [("r", t2)]
        for b2 in bounds:
            yield [("r", t1)], [("c", t2, b2)]
        for b1 in bounds:
            yield [("c", t1, b1)], [("r", t2)]
            for b2 in bounds:
                yield [("c", t1, b1)], [("c", t2, b2)]


def test_gadget_merge_grid_matches_brute_force():
    grid = [Fraction(k, 2) for k in range(0, 17)]  # 0 .. 8 by halves
    bounds = [Fraction(k, 2) for k in range(0, 9)]  # 0 .. 4 by halves
    combos = 0
    for direction in ("le", "ge"):
        cs = Caecs(direction)
        bottoms = {a: cs.new_bottom(1, a) for a in grid}
        for outer, inner in _merge_cases(grid, bounds):
            combos += 1
            # clock components below the pair predate the inner gadget
            inner_time = inner[0][1]
            inner_args, outer_args = _gate_args(inner), _gate_args(outer)
            for a in (a for a in grid if a <= inner_time):
                node = cs.gate(bottoms[a], *inner_args)
                if node is not None:
                    node = cs.gate(node, *outer_args)
                if node is not None:
                    cs.check(node)  # one gate, whose limit the bottom passes
                got = None if node is None else node.anchor
                assert got == _apply_items(cs, outer + inner, a), (direction, outer, inner, a)
    assert combos >= 10_000
