"""The compact result store: gates, unions, and enumeration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from tcer.caecs import (
    Bottom,
    Caecs,
    Extended,
    Gate,
    Node,
    Union,
    enumerate_node,
    node_semantics,
)
from tcer.model import ComplexEvent


def F(x) -> Fraction:
    return Fraction(x).limit_denominator() if isinstance(x, float) else Fraction(x)


@pytest.fixture
def cs():
    return Caecs("le")


# -- basic node bookkeeping ---------------------------------------------------


def test_bottom_anchor_and_depth(cs):
    b = cs.new_bottom(3, F(5))
    assert b.anchor == 5 and b.odepth == 0
    e = cs.extend(b, 4, frozenset({"X"}))
    assert e.anchor == 5 and e.odepth == 0


# -- gadget merging: a gate over a gate ---------------------------------------


def _fields(node):
    return None if node is None else (node.reset, node.limit, node.left)


def test_gate_without_reset_or_limit_is_the_node(cs):
    b = cs.new_bottom(1, F(1))
    assert cs.gate(b, None, None) is b


def test_merge_two_checks_intersects_windows(cs):
    b = cs.new_bottom(1, F(6))
    inner = cs.gate(b, None, F(8) - F(6))
    assert _fields(cs.gate(inner, None, F(10) - F(5))) == (None, F(5), b)


def test_merge_check_subsumed_by_outer(cs):
    b = cs.new_bottom(1, F(6))
    inner = cs.gate(b, None, F(8) - F(6))
    assert _fields(cs.gate(inner, None, F(10) - F(9))) == (None, F(2), b)


def test_merge_disjoint_windows_is_void(cs):
    b = cs.new_bottom(1, F(3))
    inner = cs.gate(b, None, F(8) - F(6))  # clock set by 8
    assert cs.gate(inner, None, F(10) - F(1)) is None  # clock set at or after 9


def test_merge_check_over_late_reset_is_void(cs):
    inner = cs.gate(cs.new_bottom(1, F(1)), F(8), None)
    assert cs.gate(inner, None, F(10) - F(1)) is None


def test_merge_check_over_recent_reset_keeps_the_reset(cs):
    b = cs.new_bottom(1, F(1))
    inner = cs.gate(b, F(8), None)
    assert _fields(cs.gate(inner, None, F(10) - F(3))) == (F(8), None, b)


def test_merge_reset_over_reset_keeps_the_outer(cs):
    b = cs.new_bottom(1, F(1))
    inner = cs.gate(b, F(4), None)
    assert _fields(cs.gate(inner, F(9), None)) == (F(9), None, b)


def test_merged_gadgets_have_at_most_two_items(cs):
    b = cs.new_bottom(1, F(1))
    inner = cs.gate(b, F(4), F(3) - F(2))
    assert _fields(cs.gate(inner, F(9), F(8) - F(5))) == (F(9), F(1), b)


def test_clock_check_inside_window(cs):
    node = cs.gate(cs.new_bottom(5, F("4.5")), None, F("7.2") - F(5))
    assert isinstance(node, Gate) and node.reset is None
    assert node.limit == F("2.2") and node.anchor == F("4.5")


def test_clock_check_outside_window_is_empty(cs):
    assert cs.gate(cs.new_bottom(1, F("1.2")), None, F("7.2") - F(5)) is None


def test_adjacent_resets_collapse(cs):
    b = cs.new_bottom(1, F(0))
    twice = cs.gate(cs.gate(b, F(2), None), F(5), None)
    assert isinstance(twice, Gate) and twice.limit is None
    assert twice.anchor == F(5)
    assert twice.left is b  # no stacked gates


def test_adjacent_checks_collapse(cs):
    b = cs.new_bottom(1, F(0))
    twice = cs.gate(cs.gate(b, None, F(10) - F(12)), None, F(12) - F(13))
    assert isinstance(twice, Gate) and twice.reset is None
    assert twice.left is b


def test_reset_over_check_is_the_composed_form(cs):
    b = cs.new_bottom(1, F(0))
    node = cs.gate(cs.gate(b, None, F(3) - F(4)), F(6), None)
    assert _fields(node) == (F(6), F(-1), b)


def test_check_semantics_filters_by_reset_time(cs):
    b1 = cs.new_bottom(1, F(9))
    b2 = cs.new_bottom(2, F(2))
    u = cs.union(cs.gate(b1, F(9), None), cs.gate(b2, F(9), None))
    # both anchored at 9; drop the reset and the starts diverge again
    assert node_semantics(cs, u) == frozenset(
        {(1, frozenset(), F(9)), (2, frozenset(), F(9))}
    )


# -- union-lists --------------------------------------------------------------


def test_ul_insert_keeps_anchors_strictly_ordered(cs):
    ul = [cs.new_bottom(1, F(3))]
    ul = cs.ul_insert(ul, cs.new_bottom(2, F(7)))
    ul = cs.ul_insert(ul, cs.new_bottom(3, F(5)))
    assert [u.anchor for u in ul] == [7, 5, 3]


def test_ul_insert_unions_equal_anchors(cs):
    ul = [cs.new_bottom(1, F(3))]
    ul = cs.ul_insert(ul, cs.new_bottom(2, F(3)))
    assert len(ul) == 1 and isinstance(ul[0], Union)


def test_ul_clock_check_drops_stale_anchors(cs):
    ul = [cs.new_bottom(i, F(t)) for i, t in ((1, 9), (2, 7), (3, 3))]
    out = cs.ul_clock_check(ul, F(10), F(4))
    assert [u.anchor for u in out] == [9, 7]


def test_ul_clock_check_can_empty_the_list(cs):
    ul = [cs.new_bottom(1, F(1))]
    assert cs.ul_clock_check(ul, F(10), F(4)) is None


def test_ul_reset_folds_to_a_singleton(cs):
    ul = [cs.new_bottom(i, F(t)) for i, t in ((1, 9), (2, 7), (3, 3))]
    out = cs.ul_reset(ul, F(11))
    assert len(out) == 1
    assert out[0].anchor == 11
    assert node_semantics(cs, out[0]) == frozenset(
        {(1, frozenset(), F(11)), (2, frozenset(), F(11)), (3, frozenset(), F(11))}
    )


_HALVES = st.integers(0, 24).map(lambda k: Fraction(k, 2))


@st.composite
def _gadget_nodes(draw, cs: Caecs) -> Node:
    """A union of bottoms, perhaps extended, under a random gate."""
    anchors = sorted(
        set(draw(st.lists(_HALVES, min_size=1, max_size=3))), reverse=cs.direction == "le"
    )
    base = cs.ul_merge([cs.new_bottom(i, a) for i, a in enumerate(anchors, 1)])
    if draw(st.booleans()):
        base = cs.extend(base, 9, frozenset({"X"}))
    latest = max(anchors)
    reset = latest + draw(_HALVES) if draw(st.booleans()) else None
    limit = latest + draw(_HALVES) - draw(_HALVES) if draw(st.booleans()) else None
    node = cs.gate(base, reset, limit)
    assume(node is not None)
    return node


def _denotation(cs, ul):
    return node_semantics(cs, None if ul is None else cs.ul_merge(ul))


@pytest.mark.parametrize("direction", ["le", "ge"])
@given(data=st.data())
def test_one_gadget_check_and_reset_denotes_the_two_steps(direction, data):
    """``ul_reset`` with a bound denotes a clock-check gate then a reset gate
    on every node, and builds no more nodes."""
    cs = Caecs(direction)
    ul: list[Node] = []
    for node in data.draw(st.lists(_gadget_nodes(cs), min_size=1, max_size=4)):
        ul = cs.ul_insert(ul, node)
    t = max(u.anchor for u in ul) + data.draw(_HALVES)
    bound = data.draw(_HALVES)
    for u in ul:
        checked = cs.gate(u, None, t - bound)
        two = None if checked is None else [cs.gate(checked, t, None)]
        assert _denotation(cs, cs.ul_reset([u], t, bound)) == _denotation(cs, two)
    before = cs.created
    one = cs.ul_reset(ul, t, bound)
    one_nodes = cs.created - before
    checked = cs.ul_clock_check(ul, t, bound)
    two = None if checked is None else cs.ul_reset(checked, t)
    assert _denotation(cs, one) == _denotation(cs, two)
    assert one_nodes <= cs.created - before - one_nodes
    if one is not None:
        assert len(one) == 1 and one[0].anchor == t
        cs.check(one[0])


def test_ul_merge_preserves_contents(cs):
    ul = [cs.new_bottom(i, F(t)) for i, t in ((1, 9), (2, 7))]
    merged = cs.ul_merge(ul)
    assert node_semantics(cs, merged) == frozenset(
        {(1, frozenset(), F(9)), (2, frozenset(), F(7))}
    )


# -- enumeration --------------------------------------------------------------


def _events_of(cs, node, end):
    return frozenset(enumerate_node(cs, node, end))


def _expected(cs, node, end):
    out = set()
    for start, entries, _ in node_semantics(cs, node):
        mapping: dict[str, set[int]] = {}
        for pos, label in entries:
            for var in label:
                mapping.setdefault(var, set()).add(pos)
        out.add(ComplexEvent.make(start, end, mapping))
    return frozenset(out)


def test_enumerate_simple_chain(cs):
    b = cs.new_bottom(2, F(1))
    e = cs.extend(b, 3, frozenset({"X"}))
    e = cs.extend(e, 5, frozenset({"X", "Y"}))
    assert _events_of(cs, e, 5) == frozenset(
        {ComplexEvent.make(2, 5, {"X": {3, 5}, "Y": {5}})}
    )


def test_enumerate_yields_each_event_once(cs):
    b1 = cs.extend(cs.new_bottom(1, F(4)), 2, frozenset({"X"}))
    b2 = cs.extend(cs.new_bottom(3, F(4)), 4, frozenset({"X"}))
    u = cs.union(b1, b2)
    events = list(enumerate_node(cs, u, 5))
    assert len(events) == len(set(events)) == 2


@pytest.mark.parametrize("direction", ["le", "ge"])
@pytest.mark.parametrize("seed", range(25))
def test_enumeration_matches_semantics_on_random_lists(direction, seed):
    cs = Caecs(direction)
    rng = random.Random(seed)
    t = Fraction(0)
    ul = [cs.new_bottom(1, t)]
    for i in range(2, 14):
        t += Fraction(rng.randint(1, 4), 2)
        op = rng.random()
        if op < 0.35:
            ul = cs.ul_insert(ul, cs.new_bottom(i, t))
        elif op < 0.6:
            ul = [cs.extend(u, i, frozenset({"X"})) for u in ul]
        elif op < 0.8:
            ul = cs.ul_reset(ul, t)
        else:
            bound = Fraction(rng.randint(0, 8), 2) if direction == "le" else Fraction(
                rng.randint(0, 3), 2
            )
            checked = cs.ul_clock_check(ul, t, bound)
            if checked is None:
                ul = [cs.new_bottom(i, t)]
            else:
                ul = checked
        anchors = [u.anchor for u in ul]
        for a, b in zip(anchors, anchors[1:]):
            assert cs.better(a, b) and a != b
        for u in ul:
            cs.check(u)
            assert _events_of(cs, u, i) == _expected(cs, u, i)
            assert u.odepth <= 11


@pytest.mark.parametrize(
    "build",
    [
        lambda b, late: Union(b, late),  # right child beats the left
        lambda b, late: Gate(None, F(4), b),  # the anchor below fails the check
        lambda b, late: Gate(F(6), None, Gate(F(5), None, b)),  # stacked resets
        lambda b, late: Gate(None, F(0), Gate(F(5), None, b)),  # check over a reset
    ],
)
def test_check_rejects_a_broken_root(cs, build):
    b = cs.new_bottom(1, F(3))
    late = cs.new_bottom(2, F(7))
    cs.check(cs.ul_merge([late, b]))
    with pytest.raises(AssertionError):
        cs.check(build(b, late))


def test_union_keeps_a_child_gate_that_no_gadget_changes(cs):
    """A bare union operand puts no gate over its children, so its gate
    child is reused, not copied: only the two unions are new."""
    gate = cs.gate(cs.new_bottom(1, F(1)), F(5), None)
    operand = cs.ul_merge([gate, cs.new_bottom(2, F(3))])
    other = cs.new_bottom(3, F(5))
    before = cs.created
    node = cs.union(operand, other)
    assert cs.created - before == 2
    assert node.left is gate
    assert node_semantics(cs, node) == node_semantics(cs, operand) | node_semantics(cs, other)


def test_union_requires_equal_anchors(cs):
    with pytest.raises(AssertionError):
        cs.union(cs.new_bottom(1, F(1)), cs.new_bottom(2, F(2)))


def test_union_puts_the_better_of_two_right_parts_first(cs):
    """Both operands are unions, and the first one's right child has the
    worse anchor: the two right parts swap, so every node down the result's
    right spine checks, and the union denotes both operands."""
    first = cs.ul_merge([cs.new_bottom(1, F(10)), cs.new_bottom(2, F(5))])
    second = cs.ul_merge([cs.new_bottom(3, F(10)), cs.new_bottom(4, F(8))])
    node = cs.union(first, second)
    assert node_semantics(cs, node) == node_semantics(cs, first) | node_semantics(cs, second)
    spine = node
    while isinstance(spine, Union):
        cs.check(spine)
        spine = spine.right
