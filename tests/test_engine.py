"""Streaming evaluation of deterministic monotonic single-clock automata."""

from __future__ import annotations

import importlib
import importlib.util
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from tcer.cea import (
    FULL_INTERVAL,
    TRUE,
    TimedCea,
    Transition,
    cea_from_json,
    cea_to_json,
    clock_guard,
    eval_cea_oracle,
    guard_meet,
)
from tcer.caecs import Caecs, enumerate_node
from tcer.cel import eval_cel_oracle
from tcer.cli import parse_stream_line, read_stream, stream_line
from tcer.compiler import compile_windowed
from tcer.determinize import determinize
from tcer.engine import NotStreamable, StreamingEngine
from tcer.model import (
    Basic,
    ComplexEvent,
    Event,
    TimedStream,
    TrueP,
    TypeIs,
    event_cells,
    format_rat,
    rat,
    sat,
)
from tcer.parser import parse_query
from tcer.randgen import ATTR, TYPES, random_stream

from conftest import PHI2_TEXT, bench_stream, eval_cea_at, make_t1, random_streamable_cea


@pytest.fixture
def det_t1(t1):
    return determinize(t1)


# -- the reference pipeline ---------------------------------------------------


def test_reference_pipeline_end_to_end(det_t1, s0):
    engine = StreamingEngine(det_t1, debug=True)
    results = {}
    for event, time in s0.pairs_et():
        matches = engine.feed(event, time)
        if matches:
            results[engine.position] = matches
    assert results == {9: [ComplexEvent.make(5, 9, {"X": {5}, "Y": {9}})]}


def test_per_position_output_matches_oracle(det_t1, s0):
    engine = StreamingEngine(det_t1, debug=True)
    for _, e, t in s0.pairs():
        matches = engine.feed(e, t)
        assert frozenset(matches) == eval_cea_at(det_t1, s0, engine.position)
        assert len(matches) == len(set(matches))  # no duplicates


def test_enumerate_at_is_repeatable(det_t1, s0):
    engine = StreamingEngine(det_t1, debug=True)
    for _, e, t in s0.pairs():
        engine.feed(e, t)
    once = frozenset(engine.enumerate_at(engine.position))
    again = frozenset(engine.enumerate_at(engine.position))
    assert once == again == eval_cea_at(det_t1, s0, 9)


def test_timestamps_must_increase(det_t1):
    engine = StreamingEngine(det_t1, debug=True)
    engine.feed(Event("T", {"temp": Fraction(50)}), Fraction(1))
    with pytest.raises(ValueError):
        engine.feed(Event("T", {"temp": Fraction(50)}), Fraction(1))


def test_fresh_run_builds_no_node_when_no_initial_transition_fires():
    engine = StreamingEngine(determinize(compile_windowed(parse_query(PHI2_TEXT))), debug=True)
    assert engine.feed(Event("T", {"temp": Fraction(45)}), Fraction(1)) == []
    assert engine.caecs.created == 0


@pytest.mark.parametrize("time", [Fraction(-5), Fraction(0), Fraction(-1)])
def test_timestamps_must_be_positive(det_t1, time):
    engine = StreamingEngine(det_t1, debug=True)
    with pytest.raises(ValueError):
        engine.feed(Event("H", {"hum": Fraction(20)}), time)
    assert engine.position == 0


# -- streamability preconditions ----------------------------------------------


def _one(delta, clocks=frozenset({"z"}), states=frozenset({0, 1, 2}), finals=frozenset({2})):
    return TimedCea(states, frozenset({"X"}), clocks, tuple(delta), 0, finals)


def test_rejects_nondeterministic_automata(t1):
    with pytest.raises(NotStreamable):
        StreamingEngine(t1)


def test_rejects_nonmonotonic_guards():
    cea = _one(
        [
            Transition(0, TrueP(), TRUE, frozenset({"X"}), frozenset({"z"}), 1),
            Transition(1, TypeIs("A"), clock_guard("z", "<=", 2), frozenset(), frozenset(), 2),
            Transition(1, TypeIs("B"), clock_guard("z", ">=", 2), frozenset(), frozenset(), 2),
        ]
    )
    with pytest.raises(NotStreamable):
        StreamingEngine(cea)


def test_rejects_two_checked_clocks():
    cea = _one(
        [
            Transition(0, TrueP(), TRUE, frozenset({"X"}), frozenset({"y", "z"}), 1),
            Transition(
                1,
                TrueP(),
                guard_meet(clock_guard("z", "<=", 2), clock_guard("y", "<=", 3)),
                frozenset(),
                frozenset(),
                2,
            ),
        ],
        clocks=frozenset({"y", "z"}),
    )
    with pytest.raises(NotStreamable):
        StreamingEngine(cea)


def test_a_gap_in_a_window_is_refused_for_its_second_checked_clock():
    """``determinize`` drops a ``[0, inf)`` interval on ``zx`` that a join
    of the gap's guard cells rebuilds, so the refusal names the real
    obstacle, not the trivial interval that made the guards look
    non-monotonic."""
    query = "(A as X0 ;[0,2] B as X1) within [0,10]"
    det = determinize(compile_windowed(parse_query(query)))
    assert all(("zx", FULL_INTERVAL) not in tr.guard for tr in det.delta)
    with pytest.raises(NotStreamable, match=r"^more than one checked clock: \{zn,zx\}$"):
        StreamingEngine(det)


def test_rejects_transitions_into_the_initial_state():
    cea = _one(
        [
            Transition(0, TrueP(), TRUE, frozenset({"X"}), frozenset({"z"}), 1),
            Transition(1, TrueP(), TRUE, frozenset(), frozenset(), 0),
        ]
    )
    with pytest.raises(NotStreamable):
        StreamingEngine(cea)


def test_rejects_initial_transition_without_reset_of_checked_clock():
    cea = _one(
        [
            Transition(0, TrueP(), TRUE, frozenset({"X"}), frozenset(), 1),
            Transition(1, TrueP(), clock_guard("z", "<=", 2), frozenset(), frozenset(), 2),
        ]
    )
    with pytest.raises(NotStreamable):
        StreamingEngine(cea)


def test_a_guarded_transition_out_of_the_initial_state_never_fires():
    """No clock is set before a run starts, so a guard out of the initial
    state fails; the engine leaves that transition out and agrees with the
    run oracle, which reads the uninitialized clock."""
    cea = _one(
        [
            Transition(0, TypeIs("A"), TRUE, frozenset({"X"}), frozenset({"z"}), 1),
            Transition(0, TypeIs("B"), clock_guard("z", "<=", 2), frozenset({"X"}), frozenset({"z"}), 2),
            Transition(1, TypeIs("B"), clock_guard("z", "<=", 2), frozenset({"X"}), frozenset(), 2),
        ]
    )
    engine = StreamingEngine(cea)
    assert [tr.pred for tr in engine.out[0]] == [TypeIs("A")]
    stream = random_stream(random.Random(7), 12)
    for _, e, t in stream.pairs():
        assert frozenset(engine.feed(e, t)) == eval_cea_at(cea, stream, engine.position, cap=12)
    assert eval_cea_oracle(cea, stream, cap=12)


# -- setup cost as predicates multiply ---------------------------------------


def _timed_engine(text: str) -> tuple[StreamingEngine, float]:
    start = perf_counter()
    engine = StreamingEngine(determinize(compile_windowed(parse_query(text))), debug=True)
    return engine, perf_counter() - start


def test_twenty_filtered_alternatives_build_an_engine_quickly():
    # one subset tests twenty predicates: only the cells that some event
    # reaches may be visited, not all 2^20 truth vectors
    k = 20
    alternatives = " or ".join(f"(A as X{i} filter X{i}[v > {i}] ; B)" for i in range(k))
    engine, seconds = _timed_engine(f"({alternatives}) within [0,10]")
    assert seconds < 2
    assert engine.feed(Event("A", {"v": 7}), 1) == []
    matches = engine.feed(Event("B", {}), 2)
    assert sorted(m.binding for m in matches) == [
        (("A", (1,)), ("B", (2,)), (f"X{i}", (1,)))
        for i in range(7)
    ]


def test_a_filter_on_sixteen_attributes_builds_an_engine_quickly():
    # a conjunction folds one attribute at a time, not over the product of
    # every attribute's witness values
    conjunction = " and ".join(f"a{i} > {i}" for i in range(16))
    engine, seconds = _timed_engine(f"(A as X filter X[{conjunction}]) within [0,10]")
    assert seconds < 0.5
    values = {f"a{i}": i + 1 for i in range(16)}
    assert len(engine.feed(Event("A", values), 1)) == 1
    assert engine.feed(Event("A", {**values, "a15": 15}), 2) == []


# -- randomized agreement with the run oracle ---------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_random_automata_agree_with_oracle_per_position(seed):
    rng = random.Random(30_000 + seed)
    cea = random_streamable_cea(rng)
    stream = random_stream(rng, rng.randint(0, 12))
    engine = StreamingEngine(cea, debug=True)
    for _, e, t in stream.pairs():
        matches = engine.feed(e, t)
        expected = eval_cea_at(cea, stream, engine.position, cap=len(stream))
        assert frozenset(matches) == expected
        assert len(matches) == len(set(matches))


@settings(deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n_states=st.integers(2, 6),
    length=st.integers(0, 14),
)
def test_feed_agrees_with_the_run_oracle_at_every_position(rng, n_states, length):
    """Either guard direction (the generator draws it), with the engine's
    structural checks on."""
    cea = random_streamable_cea(rng, n_states)
    stream = random_stream(rng, length)
    engine = StreamingEngine(cea, debug=True)
    for _, e, t in stream.pairs():
        matches = engine.feed(e, t)
        assert len(matches) == len(set(matches))
        assert frozenset(matches) == eval_cea_at(cea, stream, engine.position, cap=len(stream))


# -- clock ticks -----------------------------------------------------------------

# Gaps whose sums are whole ticks (quarters) and ones that are not: thirds,
# sevenths and decimals with ten to twelve places.
GAPS = st.one_of(
    st.integers(1, 8).map(lambda k: Fraction(k, 4)),
    st.integers(1, 6).map(lambda k: Fraction(k, 3)),
    st.integers(1, 14).map(lambda k: Fraction(k, 7)),
    st.integers(10, 12).flatmap(
        lambda places: st.integers(1, 2 * 10**places).map(lambda k: Fraction(k, 10**places))
    ),
)


@settings(deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n_states=st.integers(2, 6),
    gaps=st.lists(GAPS, max_size=14),
)
def test_feed_agrees_with_the_run_oracle_on_times_that_are_not_whole_ticks(rng, n_states, gaps):
    """A time with more than nine decimal places, or that is not a decimal,
    stays a ``Fraction`` of ticks and gives the oracle's matches."""
    cea = random_streamable_cea(rng, n_states)
    times = [sum(gaps[: k + 1]) for k in range(len(gaps))]
    stream = TimedStream(
        (Event(rng.choice(TYPES), {ATTR: rng.randint(0, 4)}), t) for t in times
    )
    engine = StreamingEngine(cea, debug=True)
    for _, e, t in stream.pairs():
        matches = engine.feed(e, t)
        assert (type(engine.last_time) is int) == ((t * engine.scale).denominator == 1)
        assert len(matches) == len(set(matches))
        assert frozenset(matches) == eval_cea_at(cea, stream, engine.position, cap=len(stream))


@settings(deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n_states=st.integers(2, 6),
    tenths=st.lists(st.integers(1, 80), max_size=14, unique=True).map(sorted),
)
@example(rng=random.Random(55), n_states=2, tenths=[1, 4, 6, 9, 16])
def test_feed_reads_a_float_time_as_rat_does(rng, n_states, tenths):
    """A float time is the decimal it prints as.  In the explicit example, a
    run from 0.1 to 1.6 passes a guard ``z <= 1.5`` only as decimals."""
    cea = random_streamable_cea(rng, n_states)
    on_floats = StreamingEngine(cea, debug=True)
    on_rats = StreamingEngine(cea, debug=True)
    for k in tenths:
        e, t = Event(rng.choice(TYPES), {ATTR: rng.randint(0, 4)}), k / 10
        assert on_floats.feed(e, t) == on_rats.feed(e, rat(t))


def test_a_float_time_matches_as_its_decimal_and_a_bool_is_refused():
    """0.4 - 0.1 is 0.3, though the binary floats differ by a little more."""
    cea = determinize(compile_windowed(parse_query("(A as X ; B as Y) within [0, 0.3]")))
    engine = StreamingEngine(cea, debug=True)
    assert engine.feed(Event("A", {}), 0.1) == []
    assert [(ce.start, ce.end) for ce in engine.feed(Event("B", {}), 0.4)] == [(1, 2)]
    with pytest.raises(TypeError):
        engine.feed(Event("B", {}), True)


def test_a_guard_constant_in_thirds_scales_to_a_whole_bound():
    """``z <= 1/3`` after an A that resets z: the scale takes the 3, so the
    bound is an int, and a B exactly 1/3 s later is a whole tick."""
    cea = TimedCea(
        frozenset({0, 1, 2}),
        frozenset({"X", "Y"}),
        frozenset({"z"}),
        (
            Transition(0, TypeIs("A"), TRUE, frozenset({"X"}), frozenset({"z"}), 1),
            Transition(1, TypeIs("C"), TRUE, frozenset(), frozenset(), 1),
            Transition(
                1, TypeIs("B"), clock_guard("z", "<=", Fraction(1, 3)), frozenset({"Y"}), frozenset(), 2
            ),
        ),
        0,
        frozenset({2}),
    )
    assert cea_to_json(cea)["transitions"][2]["guard"]["constant"] == "1/3"
    assert cea_from_json(cea_to_json(cea)) == cea
    engine = StreamingEngine(cea, debug=True)
    assert engine.scale == 3 * 10**9
    assert [tr.bound for tr in engine.out[1]] == [None, 10**9]
    assert type(engine.out[1][1].bound) is int
    stream = TimedStream(
        (Event(etype, {}), Fraction(ts))
        for etype, ts in [
            ("A", "1"), ("C", "1.1"), ("B", "4/3"),
            ("A", "2"), ("B", "2.3333333334"),
            ("A", "3"), ("B", "3.333333333"),
        ]
    )
    found = {}
    for _, e, t in stream.pairs():
        matches = engine.feed(e, t)
        assert frozenset(matches) == eval_cea_at(cea, stream, engine.position)
        if matches:
            found[engine.position] = matches
    assert found == {
        3: [ComplexEvent.make(1, 3, {"X": [1], "Y": [3]})],
        7: [ComplexEvent.make(6, 7, {"X": [6], "Y": [7]})],
    }


@pytest.mark.parametrize("seed", range(10))
def test_invariant_bounds_hold(seed):
    rng = random.Random(60_000 + seed)
    cea = random_streamable_cea(rng)
    stream = random_stream(rng, 20)
    engine = StreamingEngine(cea, debug=True)
    for e, t in stream.pairs_et():
        engine.feed(e, t)
    assert engine.max_list_len <= len(cea.states) + 2
    assert engine.max_odepth <= 11


def test_output_depth_grows_without_bound_under_ge():
    # the oldest run heads the list, so odepth grows by one per A (13 at the
    # 14th): Caecs.check, on by default, must hold at any depth
    phi = parse_query("A as X ;[1,inf) (A (+))")
    engine = StreamingEngine(determinize(compile_windowed(phi)), debug=True)
    stream = TimedStream((Event("A", {}), t) for t in range(1, 17))
    expected = eval_cel_oracle(phi, stream, cap=16)
    total = 0
    for _, e, t in stream.pairs():
        matches = engine.feed(e, t)
        assert frozenset(matches) == {c for c in expected if c.end == engine.position}
        total += len(matches)
    assert total == len(expected) == 680
    assert engine.max_odepth > 11


def test_the_default_engine_skips_the_store_invariant_walk(monkeypatch, s0):
    """``Caecs.check`` walks a root's whole spine, so the default engine,
    which must keep constant update cost, never calls it."""

    def refuse(self, root):
        raise AssertionError("Caecs.check ran without debug=True")

    monkeypatch.setattr(Caecs, "check", refuse)
    det = determinize(compile_windowed(parse_query(PHI2_TEXT)))
    engine = StreamingEngine(det)
    matches = [engine.feed(e, t) for e, t in s0.pairs_et()]
    assert sum(map(len, matches)) == sum(map(bool, matches)) == 1


# -- node count ----------------------------------------------------------------


def test_phi2_builds_a_pinned_number_of_nodes():
    """A transition that checks and resets applies both as one gadget per
    node, stored as one ``Gate``.  Applied as two gadgets, the check and then
    the reset, the same 30k events would build 60,199 nodes.  ``debug=True``
    runs ``Caecs.check`` on every stored root."""
    phi = parse_query(PHI2_TEXT)
    engine = StreamingEngine(determinize(compile_windowed(phi)), debug=True)
    for event, ts in bench_stream(phi, 30_000, random.Random(0)):
        engine.feed(event, ts)
    assert engine.caecs.created == 41_321


FANOUT_TEXT = "pi {X, Y} ((A as X ; B as Y) within [0, 30])"


def fanout_events(rng: random.Random, n: int):
    """A/B events, 70% B, 0.5-1.5 s apart: about 9 A's per 30 s window."""
    t = 0
    for _ in range(n):
        t += rng.randint(50, 150)
        yield Event("B" if rng.random() < 0.7 else "A", {}), Fraction(t, 100)


@pytest.mark.parametrize(
    "text, events",
    [
        (PHI2_TEXT, lambda phi, n: bench_stream(phi, n, random.Random(0))),
        (FANOUT_TEXT, lambda phi, n: fanout_events(random.Random(5), n)),
    ],
    ids=["phi2", "fanout"],
)
def test_nodes_built_per_event_do_not_grow_with_the_stream(text, events):
    """The most nodes one ``feed`` builds is the same over the first 1k
    events as over 20k, and within the ``c·|Δ|``, ``c = 8|Q| + 17``, that
    the ``caecs`` module docstring derives from ``engine._exec``."""
    phi = parse_query(text)
    engine = StreamingEngine(determinize(compile_windowed(phi)), debug=False)
    caecs = engine.caecs
    most, peak = {}, 0
    for k, (event, ts) in enumerate(events(phi, 20_000), 1):
        before = caecs.created
        engine.feed(event, ts)
        peak = max(peak, caecs.created - before)
        if k in (1_000, 20_000):
            most[k] = peak
    c = 8 * len(engine.cea.states) + 17
    assert most[1_000] == most[20_000] <= c * len(engine.cea.delta)


def test_enumeration_builds_no_node_and_walks_the_merged_union_in_order():
    """Over fan-out events, a final union-list walked node by node gives
    what ``enumerate_node`` gives on its merged union, match for match."""
    phi = parse_query("(A as X ; (B as Y +)) within [0, 5]")
    engine = StreamingEngine(determinize(compile_windowed(phi)), debug=False)
    caecs, finals = engine.caecs, engine.cea.finals
    longest = 0
    for event, ts in fanout_events(random.Random(5), 400):
        engine.feed(event, ts)
        created = caecs.created
        got = list(engine.enumerate_at(engine.position))
        assert caecs.created == created
        lists = [ul for p, ul in engine.table.items() if p in finals]
        longest = max([longest] + [len(ul) for ul in lists])
        merged = [
            m for ul in lists for m in enumerate_node(caecs, caecs.ul_merge(ul), engine.position)
        ]
        assert got == merged
    assert longest > 1  # some walk crosses the union that merging would build


@pytest.mark.parametrize(
    "text, events",
    [
        (PHI2_TEXT, lambda s0: s0.pairs_et()),
        (FANOUT_TEXT, lambda s0: fanout_events(random.Random(5), 400)),
    ],
    ids=["phi2", "fanout"],
)
def test_enumeration_builds_each_match_in_canonical_form(text, events, s0):
    """``enumerate_node`` builds a ``ComplexEvent`` directly; it must be the
    one ``ComplexEvent.make`` gives for the same binding."""
    engine = StreamingEngine(determinize(compile_windowed(parse_query(text))), debug=False)
    seen = 0
    for event, ts in events(s0):
        for m in engine.feed(event, ts):
            assert m == ComplexEvent.make(m.start, m.end, dict(m.binding))
            seen += 1
    assert seen > 0


def test_feed_enumerates_only_when_a_final_state_holds_a_list(monkeypatch, s0):
    engine = StreamingEngine(determinize(compile_windowed(parse_query(PHI2_TEXT))), debug=False)
    walked = []
    enumerate_at = engine.enumerate_at
    monkeypatch.setattr(engine, "enumerate_at", lambda j: walked.append(j) or enumerate_at(j))
    holding = []
    for event, ts in s0.pairs_et():
        engine.feed(event, ts)
        if not engine.cea.finals.isdisjoint(engine.table):
            holding.append(engine.position)
    assert walked == holding == [8]  # the one match, (4, 8)


# -- the interface the benchmark calls through ---------------------------------

BENCH_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# Functions the benchmark's tracer looks for that the product does not define:
# ``new_union_list`` never existed, and ``Caecs.gate`` replaced the other two.
NEVER_DEFINED = {"caecs.new_union_list", "caecs.add_clock_check", "caecs.add_reset"}


def test_every_function_the_benchmark_traces_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, owner_name, attr, name, _ in spans.TARGETS:
        if name in NEVER_DEFINED:
            continue
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        assert callable(getattr(owner, attr, None)), name


def test_feed_calls_sat_and_enumerate_node_through_the_engine_module(monkeypatch, s0):
    import tcer.engine

    calls: Counter[str] = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("sat", "enumerate_node"):
        monkeypatch.setattr(tcer.engine, name, counting(name, getattr(tcer.engine, name)))
    engine = StreamingEngine(determinize(compile_windowed(parse_query(PHI2_TEXT))), debug=False)
    for event, ts in s0.pairs_et():
        engine.feed(event, ts)
    assert calls["sat"] > 0 and calls["enumerate_node"] > 0
    assert engine.position == len(s0) and engine.caecs.created > 0
    assert engine.table
    for ul in engine.table.values():
        assert isinstance(ul, list)
        assert all(type(node.odepth) is int for node in ul)


# -- dispatch on event cells ---------------------------------------------------


def _chain(preds) -> TimedCea:
    """One transition per predicate, in a row: a deterministic automaton whose
    engine holds the predicates' atoms."""
    n = len(preds)
    return TimedCea(
        states=frozenset(range(n + 1)),
        vars=frozenset({"X"}),
        clocks=frozenset(),
        delta=tuple(
            Transition(i, pred, TRUE, frozenset({"X"}), frozenset(), i + 1)
            for i, pred in enumerate(preds)
        ),
        initial=0,
        finals=frozenset({n}),
    )


def _fed(engine: StreamingEngine, event: Event):
    """The ``(etype, values)`` that ``feed`` hands to ``step`` for the event."""
    seen = []
    engine.step = lambda etype, values, ticks: seen.append((etype, values))
    try:
        engine.feed(event, 1)
    finally:
        del engine.step
    return seen[0]


_OPS = ["<", "<=", ">", ">=", "==", "!="]
_CONSTANTS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
_DECIMAL_TEXTS = st.builds(
    lambda neg, whole, places: ("-" if neg else "") + str(whole) + ("." + places if places else ""),
    st.booleans(),
    st.integers(0, 4),
    st.text("0123456789", max_size=12),
)
_VALUE_TEXTS = st.one_of(
    _DECIMAL_TEXTS,
    st.builds(format_rat, st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 4, 5, 8, 10]))),
    st.builds(
        lambda m, e, mark: f"{m}{mark}{e}", st.integers(-400, 400), st.integers(-3, 3), st.sampled_from("eE")
    ),
    st.builds(json.dumps, _DECIMAL_TEXTS),
    st.sampled_from(["true", "false", "null", '"a"']),
)
_EXACT_VALUES = st.one_of(
    _CONSTANTS,
    st.integers(-40, 40),
    st.floats(-40, 40, width=32),
    st.sampled_from([None, True, False, "a", "1.5", [1], {"y": 1}, 1 + 0j]),
)


@settings(deadline=None)
@given(
    atoms=st.lists(st.tuples(st.sampled_from(_OPS), _CONSTANTS), min_size=1, max_size=3),
    string=st.sampled_from([None, "==", "!="]),
    texts=st.lists(_VALUE_TEXTS, min_size=1, max_size=4),
    exact=st.lists(_EXACT_VALUES, max_size=4),
)
@example(
    atoms=[("<", Fraction(1, 3)), ("==", Fraction(5, 2))],
    string="==",
    texts=["0.3333333333", "2.5", "25e-1", '"1.5"'],
    exact=[Fraction(1, 3)],
)
def test_unit_atoms_agree_with_sat_on_the_exact_event(atoms, string, texts, exact):
    """Each atom's verdict on values in units, as the engine's reader and
    ``feed`` give them, is ``sat``'s on the exact event, whatever the
    constants' denominators and the values' forms."""
    preds = [Basic("x", op, int(c) if c.denominator == 1 else c) for op, c in atoms]
    if string is not None:
        preds.append(Basic("x", string, "1.5"))
    engine = StreamingEngine(_chain(preds))
    for text in texts:
        line = '{"type": "A", "attrs": {"x": %s, "y": %s}, "ts": 1}' % (text, text)
        event, _ = parse_stream_line(line, 1)
        expected = tuple(sat(event, atom) for atom in engine.atoms)
        [(etype, values, ticks)] = read_stream([line], engine)
        assert ticks == engine.scale and set(values) <= {"x"}
        assert engine.cell(etype, values) == expected, text
        assert engine.cell(*_fed(engine, event)) == expected, text
    for value in exact:
        event = Event("A", {"x": value, "y": value})
        expected = tuple(sat(event, atom) for atom in engine.atoms)
        assert engine.cell(*_fed(engine, event)) == expected, value


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_float_that_is_not_finite_satisfies_no_comparison(value):
    """NaN and the infinities satisfy no comparison, ``!=`` included, under
    ``sat`` and under ``feed`` alike, as a value that is not a number does;
    neither raises."""
    preds = [Basic("x", op, 1) for op in _OPS] + [Basic("x", "!=", "1.5")]
    for pred in preds:
        assert not sat(Event("A", {"x": value}), pred)
        engine = StreamingEngine(_chain([pred]))
        event = Event("A", {"x": value})
        assert engine.cell(*_fed(engine, event)) == (False,) == (sat(event, pred),)
        assert engine.feed(event, 1) == []
        assert engine.feed(Event("A", {"x": value}), 2) == []


class _CountingDict(dict):
    """A dict that counts the lookups made through ``get``."""

    lookups = 0

    def get(self, key, default=None):
        _CountingDict.lookups += 1
        return super().get(key, default)


def _cell_counts(text: str, events, through_lines: bool, monkeypatch):
    """Run the events through an engine, by ``feed`` or as stream lines;
    return the engine, the most lookups one event made to find its cell, and
    the calls of ``sat``."""
    import tcer.engine

    sat_calls = Counter()

    def counting_sat(event, pred):
        sat_calls[0] += 1
        return sat(event, pred)

    monkeypatch.setattr(tcer.engine, "sat", counting_sat)
    monkeypatch.setattr(_CountingDict, "lookups", 0)
    engine = StreamingEngine(determinize(compile_windowed(parse_query(text))), debug=False)
    engine._types = _CountingDict(engine._types)
    step = engine.step
    engine.step = lambda etype, values, ticks: step(etype, _CountingDict(values), ticks)
    if through_lines:
        items = read_stream((stream_line(event, ts) for event, ts in events), engine)
        run = engine.step
    else:
        items, run = events, engine.feed
    most = 0
    for item in items:
        before = _CountingDict.lookups
        run(*item)
        most = max(most, _CountingDict.lookups - before)
    return engine, most, sat_calls[0]


@pytest.mark.parametrize("through_lines", [False, True], ids=["feed", "lines"])
@pytest.mark.parametrize(
    "text, events",
    [
        (PHI2_TEXT, lambda phi, n: bench_stream(phi, n, random.Random(0))),
        (FANOUT_TEXT, lambda phi, n: fanout_events(random.Random(5), n)),
    ],
    ids=["phi2", "fanout"],
)
def test_an_event_evaluates_each_atom_once_and_sat_runs_once_per_cell(
    text, events, through_lines, monkeypatch
):
    """Over 20k events: no event makes more lookups to find its cell (one
    for its type, one per attribute that the atoms read) than the engine has
    distinct atoms, the memo holds at most one entry per cell of the atoms,
    each a cell that ``event_cells`` finds, and ``sat`` runs at most once per
    cell and transition."""
    engine, most, sat_calls = _cell_counts(
        text, events(parse_query(text), 20_000), through_lines, monkeypatch
    )
    atoms = engine.atoms
    assert len(set(atoms)) == len(atoms) and all(isinstance(a, (TypeIs, Basic)) for a in atoms)
    assert 0 < most <= len(atoms)
    cells = event_cells(atoms)
    assert set(engine.cells) <= cells
    assert 0 < sat_calls <= len(engine.cells) * len(engine.cea.delta)
    assert len(engine.cells) <= len(cells)


def test_engines_over_one_automaton_share_its_memo_and_nothing_else(monkeypatch, s0):
    """A second engine over the same automaton finds every cell that the
    first one met already decided, so ``sat`` does not run again, and it
    still gives the same matches from its own store."""
    import tcer.engine

    det = determinize(compile_windowed(parse_query(PHI2_TEXT)))
    first = StreamingEngine(det)
    expected = [first.feed(event, ts) for event, ts in s0.pairs_et()]
    calls = Counter()
    monkeypatch.setattr(tcer.engine, "sat", lambda event, pred: calls.update([pred]) or sat(event, pred))
    second = StreamingEngine(det)
    assert second.cells is first.cells and second.table is not first.table
    assert [second.feed(event, ts) for event, ts in s0.pairs_et()] == expected
    assert not calls and second.caecs is not first.caecs and second.position == first.position
    assert StreamingEngine(determinize(compile_windowed(parse_query(PHI2_TEXT)))).cells == {}
