"""Subset-construction determinization of synchronous-reset automata."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tcer.cea import (
    TRUE,
    AutomatonFormatError,
    TimedCea,
    Transition,
    cea_from_json,
    cea_to_json,
    clock_guard,
    eval_cea_oracle,
    guard_clocks,
    guard_cuts,
    guard_from_json,
    guard_meet,
    guard_sat,
    guard_types,
    is_deterministic,
    is_monotonic,
    join_cells,
)
from tcer.compiler import NotWindowed, compile_cel, compile_windowed
from tcer.determinize import SyncResetViolation, determinize
from tcer.engine import NotStreamable, StreamingEngine
from tcer.model import Event, Interval, TimedStream, TrueP, TypeIs, _atoms, sat
from tcer.parser import parse_query
from tcer.randgen import random_formula, random_stream

from conftest import PHI2_TEXT, random_streamable_cea, random_sync_cea
from test_engine import FANOUT_TEXT


# -- guard boxes ---------------------------------------------------------------


def test_the_package_leaves_the_determinize_module_importable():
    import tcer.determinize as d

    assert isinstance(d, types.ModuleType)
    assert callable(d.determinize)


def test_simplify_guard_rejoins_adjacent_intervals():
    guards = [_conjunction([("z", "<=", 2)]), _conjunction([("z", ">", 2), ("z", "<=", 5)])]
    cuts = guard_cuts(guards)
    assert [_box(cuts, cell) for cell in _cells(cuts)] == [
        guards[0], guards[1], clock_guard("z", ">", 5)
    ]
    assert join_cells(cuts, [(0,), (1,)]) == [clock_guard("z", "<=", 5)]


def test_split_disjunctions_keeps_clock_mention():
    # a disjunct must keep failing while any mentioned clock is uninitialized
    doc = cea_to_json(
        TimedCea(
            states=frozenset({0, 1}),
            vars=frozenset({"X"}),
            clocks=frozenset({"z0", "z1"}),
            delta=(Transition(0, TrueP(), TRUE, frozenset({"X"}), frozenset(), 1),),
            initial=0,
            finals=frozenset({1}),
        )
    )
    either = {"kind": "or", "left": _cmp("z0", "<", 1), "right": _cmp("z1", "<", 2)}
    doc["transitions"][0]["guard"] = either
    cea = cea_from_json(doc)
    assert len(cea.delta) == 2
    for tr in cea.delta:
        assert guard_clocks(tr.guard) == frozenset({"z0", "z1"})


def _cmp(clock, op, constant) -> dict:
    return {"kind": "cmp", "clock": clock, "op": op, "constant": str(constant)}


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


def test_transitions_that_cannot_lead_to_acceptance_are_pruned():
    """A ``C`` sends a run to a sink that never accepts: with its clock
    never reset again, ``z`` at the sink is past every bound, so the
    transition into it is dead and the sink is not built."""
    cea = TimedCea(
        states=frozenset({0, 1, 2, 3}),
        vars=frozenset({"X"}),
        clocks=frozenset({"z"}),
        delta=(
            Transition(0, TypeIs("A"), TRUE, frozenset({"X"}), frozenset({"z"}), 1),
            Transition(1, TypeIs("B"), clock_guard("z", "<=", 1), frozenset({"X"}), frozenset(), 2),
            Transition(1, TypeIs("C"), TRUE, frozenset(), frozenset(), 3),
            Transition(3, TrueP(), TRUE, frozenset(), frozenset(), 3),
        ),
        initial=0,
        finals=frozenset({2}),
    )
    det = determinize(cea)
    assert det.states == {(0,), (1,), (2,)}


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
            Transition(0, TrueP(), TRUE, frozenset({"X"}), frozenset({"z"}), 1),
            Transition(0, TrueP(), TRUE, frozenset({"X"}), frozenset(), 2),
        ),
        initial=0,
        finals=frozenset({1, 2}),
    )
    with pytest.raises(SyncResetViolation) as err:
        determinize(cea)
    tr1, tr2 = err.value.pair
    assert tr1.resets != tr2.resets
    assert tr1.label == tr2.label
    assert err.value.subset == frozenset({0})
    assert str(err.value) == "conflicting resets {z} vs {} on label {X} at states [0]"


# -- cells cut per label -------------------------------------------------------


def test_the_fan_out_skip_is_one_true_transition():
    """The ``{}`` skip is cut by its own predicate only, not by the
    ``{Y}`` transition's ``type = B``."""
    det = determinize(compile_windowed(parse_query(FANOUT_TEXT)))
    assert (len(det.states), len(det.delta)) == (3, 3)
    skips = [tr for tr in det.delta if not tr.label]
    assert len(skips) == 1
    assert skips[0].pred == TrueP() and skips[0].source == skips[0].target


def test_phi2_determinizes_to_the_querys_own_predicates():
    cea = compile_windowed(parse_query(PHI2_TEXT))
    det = determinize(cea)
    assert (len(det.states), len(det.delta)) == (4, 4)
    assert {(tr.label, tr.pred) for tr in det.delta} <= {(tr.label, tr.pred) for tr in cea.delta}
    assert sorted(str(tr.pred) for tr in det.delta) == [
        "(type = H and hum < 30)", "(type = H and hum > 30)", "type = T", "type = T"
    ]


def _formula_automaton(seed: int, windowed: bool) -> TimedCea:
    phi = random_formula(random.Random(seed), 1 + seed % 5)
    try:
        return compile_windowed(phi) if windowed else compile_cel(phi)
    except NotWindowed:
        return compile_cel(phi)


def test_no_refusal_of_a_random_formula_prints_a_python_set():
    """Sets and lists in a refusal print as ``{X,Y}`` and ``[1]``, through
    ``cea.format_names``, whether ``determinize`` or the engine refuses."""
    for seed in range(600):
        for windowed in (True, False):
            try:
                StreamingEngine(determinize(_formula_automaton(seed, windowed)))
            except (SyncResetViolation, NotStreamable) as e:
                assert not any(mark in str(e) for mark in ("['", "{'", "frozenset(")), (seed, e)


_AUTOMATA = st.one_of(
    st.builds(_formula_automaton, st.integers(0, 10**6), st.booleans()),
    st.integers(0, 10**6).map(lambda seed: random_sync_cea(random.Random(seed))),
    st.integers(0, 10**6).map(lambda seed: random_streamable_cea(random.Random(seed))),
)


def _determinized(cea: TimedCea) -> TimedCea:
    try:
        return determinize(cea)
    except SyncResetViolation:
        assume(False)


@settings(deadline=None)
@given(_AUTOMATA)
def test_a_transition_reads_only_its_own_labels_atoms(cea):
    """Every atom of a deterministic transition's predicate is an atom of an
    input transition with the same label: no other label cuts its cells."""
    det = _determinized(cea)
    atoms = {(tr.label, atom) for tr in cea.delta for atom in _atoms(tr.pred)}
    for tr in det.delta:
        assert {(tr.label, atom) for atom in _atoms(tr.pred)} <= atoms


@settings(deadline=None)
@given(_AUTOMATA)
def test_every_state_is_on_a_path_to_a_final_state(cea):
    det = _determinized(cea)
    live = set(det.finals)
    while more := {tr.source for tr in det.delta if tr.target in live} - live:
        live |= more
    assert det.states - {det.initial} <= live


def test_a_state_with_no_path_to_a_final_state_is_not_kept():
    """The two filters contradict each other on the first ``A``, so after
    the ``C`` no run can accept: only the initial state is left."""
    query = "(C :[1,1.5) (((A filter A[x >= 4]) : (A +)) filter A[x <= 3]))"
    for compile_ in (compile_windowed, compile_cel):
        det = determinize(compile_(parse_query(query)))
        assert det.states == {det.initial} and not det.delta


# Recorded from ``determinize`` as it cuts each label's cells on its own
# and keeps only the states on a path to a final state; a change to
# either shows here.
_DETERMINIZED_DIGESTS = [
    "570fec6d9de4bdb4",
    "27e538e88f42a50f",
    "1b328a284e9444d6",
    "23e7a55c1abff3ca",
    "9636b99fef614962",
    "bdce8ec645b56011",
]


def _determinized_lines(seeds) -> str:
    """Per seed, the determinized automaton of the formula of depth
    ``1 + seed % 5``, compiled windowed where it is windowed and by
    ``compile_cel`` otherwise, or the text of its refusal."""
    lines = []
    for seed in seeds:
        try:
            doc = cea_to_json(determinize(_formula_automaton(seed, windowed=True)))
            lines.append(f"{seed} {json.dumps(doc, sort_keys=True)}")
        except SyncResetViolation as e:
            lines.append(f"{seed} {e}")
    return "\n".join(lines)


@pytest.mark.parametrize("block", range(len(_DETERMINIZED_DIGESTS)))
def test_determinized_random_formulas_match_the_recorded_digest(block):
    text = _determinized_lines(range(100 * block, 100 * block + 100))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _DETERMINIZED_DIGESTS[block]


# -- predicate/guard type partitions -----------------------------------------


@given(st.integers(0, 6), st.data())
def test_predicate_types_partition_events(v, data):
    from tcer.model import Basic, Event, Not, event_cells, pred_and
    import itertools

    preds = list(
        dict.fromkeys(
            [
                Basic("x", data.draw(st.sampled_from(["<", "<=", ">", ">="])), c)
                for c in data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
            ]
            + [TypeIs(data.draw(st.sampled_from(["A", "B"])))]
        )
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


_ATOMS = st.tuples(
    st.sampled_from(["x", "y"]), st.sampled_from(["=", "<", "<=", ">=", ">"]), st.integers(0, 6)
)


def _conjunction(atoms):
    """The box of ``(clock, op, constant)`` comparisons; None when empty."""
    g = TRUE
    for atom in atoms:
        box = clock_guard(*atom)
        if box is None or (g := guard_meet(g, box)) is None:
            return None
    return g


def _cells(cuts) -> list:
    """The numbered cells of ``guard_cuts``, in product order."""
    return list(itertools.product(*[range(len(pieces)) for _, pieces in cuts]))


def _box(cuts, cell):
    """The box of a numbered cell: its piece on each clock."""
    return tuple((z, pieces[n][0]) for (z, pieces), n in zip(cuts, cell))


def _sample(box) -> dict:
    """One valuation in a box: each interval's closed low end, else a point
    just above its open one."""
    nu = {}
    for z, iv in box:
        if iv.low_closed:
            nu[z] = iv.low
        else:
            nu[z] = iv.low + 1 if iv.high is None else (iv.low + iv.high) / 2
    return nu


@given(
    st.lists(st.lists(_ATOMS, min_size=1, max_size=2), max_size=4),
    st.fractions(min_value=0, max_value=7),
    st.fractions(min_value=0, max_value=7),
)
def test_guard_types_partition_valuations(conjunctions, xv, yv):
    """The guard cells partition the valuations, and ``guard_types`` groups
    them, in product order, by the guards that pass each cell's sample, in
    the order of (True, False)^k."""
    guards = [g for g in map(_conjunction, conjunctions) if g is not None]
    cuts = guard_cuts(guards)
    cells = _cells(cuts)
    nu = {"x": xv, "y": yv}
    assert sum(guard_sat(nu, _box(cuts, cell)) for cell in cells) == 1
    types = guard_types(cuts, len(guards))
    bits = [tuple(bool(mask >> i & 1) for i in range(len(guards))) for mask, _ in types]
    assert bits == sorted(set(bits), key=lambda b: [not x for x in b])
    assert sorted([c for _, group in types for c in group], key=cells.index) == cells
    for b, (_, group) in zip(bits, types):
        assert group == [cell for cell in cells if cell in group]
        for cell in group:
            box = _box(cuts, cell)
            sample = _sample(box)
            assert guard_sat(sample, box)
            assert b == tuple(guard_sat(sample, g) for g in guards)
    # a clock's pieces come in order, at most two per distinct end
    for z, pieces in cuts:
        for (a, _), (b, _) in zip(pieces, pieces[1:]):
            assert a.high is not None and a.high <= b.low
        ivs = [iv for g in guards for y, iv in g if y == z]
        ends = {0} | {iv.low for iv in ivs} | {iv.high for iv in ivs if iv.high is not None}
        assert len(pieces) <= 2 * len(ends)


@given(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["x", "y", "w"]),
                st.sampled_from(["=", "<", "<=", ">=", ">"]),
                st.integers(0, 4),
            ),
            min_size=1,
            max_size=3,
        ),
        max_size=4,
    ),
    st.data(),
)
def test_join_cells_joins_kept_cells_into_disjoint_boxes(conjunctions, data):
    """Any subset of the numbered cells of random boxes on at most three
    clocks joins into pairwise disjoint boxes that hold exactly on the kept
    cells, at every valuation of a grid that meets every cell, and no two of
    those boxes differ on one clock only, where they touch."""
    guards = [g for g in map(_conjunction, conjunctions) if g is not None]
    cuts = guard_cuts(guards)
    kept = [cell for cell in _cells(cuts) if data.draw(st.booleans())]
    boxes = join_cells(cuts, kept)
    for a, b in itertools.combinations(boxes, 2):
        assert guard_meet(a, b) is None
        apart = [(x, y) for (_, x), (_, y) in zip(a, b) if x != y]
        if len(apart) == 1:
            x, y = sorted(apart[0], key=lambda iv: (iv.low, not iv.low_closed))
            assert x.high != y.low or x.high_closed == y.low_closed
    kept_boxes = [_box(cuts, cell) for cell in kept]
    clocks = [z for z, _ in cuts]
    grid = [Fraction(n, 2) for n in range(11)]
    for values in itertools.product(grid, repeat=len(clocks)):
        nu = dict(zip(clocks, values))
        inside = any(guard_sat(nu, cell) for cell in kept_boxes)
        assert sum(guard_sat(nu, box) for box in boxes) == inside


def _alternatives(k: int) -> str:
    return " OR ".join(f"(A as X ;[0,{i}] B{i} as Y)" for i in range(1, k + 1))


def test_k_alternatives_determinize_to_k_plus_two_states():
    """``k`` gaps on one clock make ``2k + 2`` guard cells, not ``2^k``
    guard types: ``k = 16`` builds at once, and agrees with the run oracle."""
    k = 16
    cea = compile_windowed(parse_query(_alternatives(k)))
    det = determinize(cea)
    assert len(det.states) == k + 2
    assert is_deterministic(det)
    types = ["A"] + [f"B{i}" for i in range(1, k + 1)]
    for seed in range(10):
        rng = random.Random(seed)
        t = Fraction(0)
        events = []
        for _ in range(rng.randint(1, 10)):
            t += Fraction(rng.randint(1, 12), 4)
            events.append((Event(rng.choice(types), {}), t))
        stream = TimedStream(events)
        assert eval_cea_oracle(det, stream) == eval_cea_oracle(cea, stream)


# -- automaton files with ``or`` guards --------------------------------------


_CLOCK_TREES = st.recursive(
    st.one_of(
        st.sampled_from([{"kind": "true"}, {"kind": "false"}]),
        _ATOMS.map(lambda a: _cmp(*a)),
    ),
    lambda sub: st.tuples(st.sampled_from(["and", "or"]), sub, sub).map(
        lambda t: {"kind": t[0], "left": t[1], "right": t[2]}
    ),
    max_leaves=6,
)


def _tree_sat(nu: dict, doc) -> bool:
    """The reference semantics of a guard tree: its Boolean value, failing
    as a whole when a clock it mentions is not set."""

    def clocks(d):
        if d["kind"] == "cmp":
            return {d["clock"]}
        return clocks(d["left"]) | clocks(d["right"]) if d["kind"] in ("and", "or") else set()

    def value(d):
        if d["kind"] in ("true", "false"):
            return d["kind"] == "true"
        if d["kind"] == "cmp":
            g = clock_guard(d["clock"], d["op"], Fraction(d["constant"]))
            return g is not None and guard_sat(nu, g)
        both = (value(d["left"]), value(d["right"]))
        return all(both) if d["kind"] == "and" else any(both)

    return clocks(doc) <= set(nu) and value(doc)


@settings(deadline=None)
@given(_CLOCK_TREES, st.data())
def test_guard_trees_load_as_disjoint_boxes(doc, data):
    """A loaded guard tree is pairwise disjoint boxes whose union is the
    tree's meaning, on every valuation of a grid, clocks unset included."""
    boxes, _ = guard_from_json(doc, "guard")
    for a, b in itertools.combinations(boxes, 2):
        assert guard_meet(a, b) is None
    values = [None] + [Fraction(n, 2) for n in range(15)]
    nu = {z: v for z in ("x", "y") if (v := data.draw(st.sampled_from(values))) is not None}
    assert sum(guard_sat(nu, box) for box in boxes) == _tree_sat(nu, doc)


def _shapes(kind: str, trees: list) -> list[dict]:
    """The ``kind`` of the trees as a left-deep, a right-deep and a
    balanced tree."""

    def node(left, right):
        return {"kind": kind, "left": left, "right": right}

    def balanced(ts):
        if len(ts) == 1:
            return ts[0]
        return node(balanced(ts[: len(ts) // 2]), balanced(ts[len(ts) // 2 :]))

    left, right = trees[0], trees[-1]
    for t in trees[1:]:
        left = node(left, t)
    for t in trees[-2::-1]:
        right = node(t, right)
    return [left, right, balanced(trees)]


@settings(deadline=None)
@given(st.sampled_from(["and", "or"]), st.lists(_CLOCK_TREES, min_size=2, max_size=5))
def test_a_guard_loads_the_same_however_its_and_or_is_associated(kind, trees):
    """The same subtrees under a left-deep, a right-deep and a balanced
    ``and``/``or`` load as the same boxes, or are refused with the same
    message: they mention the same comparisons and clocks in the same
    order, and mean the same."""
    loads = [_load(doc) for doc in _shapes(kind, trees)]
    assert loads[0] == loads[1] == loads[2]


@settings(deadline=None)
@given(_CLOCK_TREES)
def test_a_guard_loads_as_its_or_with_false_does(doc):
    """A conjunction loads as the meet of its comparisons, uncut; under an
    ``or`` with ``false`` it is decided on cells, and loads the same."""
    assert _load(doc) == _load({"kind": "or", "left": doc, "right": {"kind": "false"}})


def _load(doc):
    """The guard's boxes and clocks, or the message it is refused with."""
    try:
        return guard_from_json(doc, "guard")
    except AutomatonFormatError as e:
        return str(e)


def test_an_or_of_nested_boxes_on_three_clocks_loads_as_the_largest_box():
    """``x, y, z <= 10 + i`` for i = 0..15, or-ed: the boxes nest, so the
    guard is one box, though its comparisons cut 17^3 cells."""
    guard = {"kind": "false"}
    for i in range(16):
        box = {"kind": "true"}
        for z in "zyx":
            box = {"kind": "and", "left": _cmp(z, "<=", 10 + i), "right": box}
        guard = {"kind": "or", "left": box, "right": guard}
    boxes, clocks = guard_from_json(guard, "guard")
    assert clocks == {"x", "y", "z"}
    assert boxes == [tuple((z, Interval(0, 25)) for z in "xyz")]


def _or_joined(doc: dict) -> dict:
    """The automaton file with the transitions that differ only in their
    guard joined into one, under an ``or`` of their guards."""
    groups: dict[str, list[dict]] = {}
    for tr in doc["transitions"]:
        key = json.dumps({k: v for k, v in tr.items() if k != "guard"}, sort_keys=True)
        groups.setdefault(key, []).append(tr)
    joined = []
    for trs in groups.values():
        guard = trs[0]["guard"]
        for tr in trs[1:]:
            guard = {"kind": "or", "left": tr["guard"], "right": guard}
        joined.append(dict(trs[0], guard=guard))
    return dict(doc, transitions=joined)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_or_guarded_automaton_files_reload_as_the_same_language(seed):
    """A determinized automaton written with ``or`` guards, as files from
    before guards were boxes hold it, reloads deterministic, with pairwise
    disjoint disjuncts, and accepts what it accepted."""
    rng = random.Random(seed)
    cea = random_sync_cea(rng)
    det = determinize(cea)
    back = cea_from_json(json.loads(json.dumps(_or_joined(cea_to_json(det)))))
    assert is_deterministic(back)
    for stream in (random_stream(rng, rng.randint(0, 7)) for _ in range(2)):
        assert eval_cea_oracle(back, stream) == eval_cea_oracle(det, stream)
    plain = cea_from_json(json.loads(json.dumps(_or_joined(cea_to_json(cea)))))
    def split_from_one(a: Transition, b: Transition) -> bool:
        return all(getattr(a, f) == getattr(b, f) for f in ("source", "pred", "label", "resets", "target"))

    for a, b in itertools.combinations(plain.delta, 2):
        assert not split_from_one(a, b) or guard_meet(a.guard, b.guard) is None


# -- size bound --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_size_bound(seed):
    rng = random.Random(70_000 + seed)
    cea = random_sync_cea(rng)
    det = determinize(cea)
    q, d = len(cea.states), len(cea.delta)
    assert det.size() <= 2 ** (q + 2 * d) * cea.size() + 2**q
