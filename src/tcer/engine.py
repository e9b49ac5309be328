"""Streaming evaluation of deterministic monotonic single-clock automata.

Per event: start a fresh run from the initial state, then advance each
stored state's runs once, through that state's transitions, and store the
surviving runs' result sets (as CAECS union-lists) keyed by their current
state.  Every transition that fires takes the same steps: if it marks, the
list becomes the extension of its merged union; then its clock check and its
reset are applied to each node as one gadget (``ul_reset``, or
``ul_clock_check`` for a guard without a reset), which drops the nodes whose
anchor fails the check and, after a reset, folds the list into one node; the
result is merged into the target's union-list.  A union-list is kept sorted
by anchor, because ``ul_insert`` places each node by its anchor, so the
order in which states are visited does not matter.  Update work per event
is constant in the stream length; outputs for the position are then
enumerated by walking the nodes of each final state's union-list in order,
which creates no node.

Times are held in ticks, as ``regions`` scales clock constants (Alur and
Dill): one tick is ``1/S`` s, ``S = DECIMAL_SCALE · lcm`` of the clock
constants' denominators.  Every bound is then an int, and so is every
timestamp with at most nine decimal places, so the store's anchors, resets
and limits are ints, compared and subtracted without ``Fraction``
arithmetic.  A timestamp with more places, or one that is not a decimal (a
third), stays an exact ``Fraction`` of ticks.  Python compares ints and
``Fraction``s exactly, so such a time takes the same path and gives the
same matches.  ``feed`` takes seconds and matches carry positions, so no
tick leaves the engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

from .caecs import Caecs, Node, enumerate_node
from .cea import (
    TimedCea,
    _conj_atoms,
    constant_scale,
    guard_clocks,
    is_deterministic,
    is_monotonic,
)
from .model import ComplexEvent, Event, Rational, Value, rat, sat

# Ticks per second for integer clock constants: a timestamp with at most nine
# decimal places is a whole number of ticks.
DECIMAL_SCALE = 10**9


class NotStreamable(Exception):
    """The automaton is outside the streamable class."""


class _Trans(Value):
    """A transition whose guard is one bound in ticks, or None if it is true."""

    __slots__ = ("source", "pred", "bound", "label", "reset", "target")

    def __init__(self, source, pred, bound: Optional[int], label: frozenset, reset: bool, target):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "reset", reset)
        object.__setattr__(self, "target", target)


def _prepare(cea: TimedCea, scale: int) -> tuple[list[_Trans], Optional[str], str]:
    """Validate the automaton and collapse guards to single bounds, in ticks
    of ``1/scale`` s."""
    if not is_deterministic(cea):
        raise NotStreamable("automaton is not deterministic")
    direction = is_monotonic(cea)
    if direction == "no":
        raise NotStreamable("guards are not monotonic")
    checked = frozenset(z for tr in cea.delta for z in guard_clocks(tr.guard))
    if len(checked) > 1:
        raise NotStreamable(f"more than one checked clock: {sorted(checked)}")
    clock = next(iter(checked), None)
    if not cea.no_transition_into_initial():
        raise NotStreamable("transition back into the initial state")
    out: list[_Trans] = []
    for tr in cea.delta:
        atoms = _conj_atoms(tr.guard)
        assert all(atom.clock == clock for atom in atoms)
        strictest = min if direction == "le" else max
        bound = int(strictest(atom.constant for atom in atoms) * scale) if atoms else None
        reset = clock is not None and clock in tr.resets
        if tr.source == cea.initial and clock is not None and not reset and bound is None:
            raise NotStreamable(
                "unguarded initial transition must initialize the clock"
            )
        out.append(_Trans(tr.source, tr.pred, bound, tr.label, reset, tr.target))
    return out, clock, direction


class StreamingEngine:
    """One evaluation session over a single stream."""

    def __init__(self, cea: TimedCea, debug: bool = False):
        self.scale = DECIMAL_SCALE * constant_scale(cea)
        trans, clock, direction = _prepare(cea, self.scale)
        self.cea = cea
        self.clock = clock
        self.caecs = Caecs(direction)
        self.debug = debug
        self.out: dict[object, list[_Trans]] = {}
        for tr in trans:
            if tr.source == cea.initial and tr.bound is not None:
                continue  # a guard cannot pass before the clock is started
            self.out.setdefault(tr.source, []).append(tr)
        self.table: dict[object, list[Node]] = {}
        self.position = 0
        self.last_time: Rational = 0  # in ticks
        self.max_list_len = 0
        self.max_odepth = 0

    # -- update --------------------------------------------------------------

    def feed(self, event: Event, time: Rational) -> list[ComplexEvent]:
        """Consume one stream element, timed in seconds; return this
        position's matches.  A time is read by ``model.rat``, so a float is
        the decimal it prints as, and a bool raises ``TypeError``."""
        n, d = rat(time).as_integer_ratio()
        q, r = divmod(self.scale, d)
        ticks = n * q if r == 0 else Fraction(n * self.scale, d)
        if ticks <= self.last_time:
            raise ValueError("timestamps must be positive and increase strictly")
        self.last_time = ticks
        self.position += 1
        j = self.position
        self.next_table: dict[object, list[Node]] = {}
        self._exec(self.cea.initial, None, event, j, ticks)
        for p, ul in self.table.items():
            self._exec(p, ul, event, j, ticks)
        self.table = self.next_table
        if self.debug:
            self._check_invariants()
        if self.cea.finals.isdisjoint(self.table):
            return []
        return list(self.enumerate_at(j))

    def _exec(
        self, p, ul: Optional[list[Node]], event: Event, j: int, time: Rational
    ) -> None:
        """Advance state ``p``'s union-list at ``time`` ticks; None is the
        fresh run, whose bottom is built when one of its transitions first
        fires."""
        caecs = self.caecs
        merged: Optional[Node] = None
        for tr in self.out.get(p, ()):
            if not sat(event, tr.pred):
                continue
            if ul is None:
                ul = [caecs.new_bottom(j, time)]
            out: Optional[list[Node]] = ul
            if tr.label:
                if merged is None:
                    merged = caecs.ul_merge(ul)
                out = [caecs.extend(merged, j, tr.label)]
            if tr.reset:
                out = caecs.ul_reset(out, time, tr.bound)
            elif tr.bound is not None:
                out = caecs.ul_clock_check(out, time, tr.bound)
            if out is not None:
                self._add(tr.target, out)

    def _add(self, q, ul: list[Node]) -> None:
        have = self.next_table.get(q)
        if have is None:
            self.next_table[q] = ul
        else:
            self.next_table[q] = self.caecs.ul_insert(have, self.caecs.ul_merge(ul))

    # -- output --------------------------------------------------------------

    def enumerate_at(self, j: int) -> Iterator[ComplexEvent]:
        """Walk each final state's union-list node by node: the nodes its
        merged union would push, in the same order, with no node built."""
        finals = self.cea.finals
        for p, ul in self.table.items():
            if p in finals:
                for node in ul:
                    yield from enumerate_node(self.caecs, node, j)

    # -- invariants ----------------------------------------------------------

    def _check_invariants(self) -> None:
        bound = len(self.cea.states) + 2
        for ul in self.table.values():
            assert len(ul) <= bound, f"union-list length {len(ul)} > {bound}"
            self.max_list_len = max(self.max_list_len, len(ul))
            for a, b in zip(ul[1:], ul[2:]):
                assert a.anchor != b.anchor and self.caecs.better(a.anchor, b.anchor)
            if len(ul) > 1:
                assert self.caecs.better(ul[0].anchor, ul[1].anchor)
            for u in ul:
                self.caecs.check(u)
                self.max_odepth = max(self.max_odepth, u.odepth)


def run_stream(cea: TimedCea, pairs, debug: bool = False):
    """Evaluate the automaton over (event, time) pairs.

    Yields (position, [matches]) for every position with at least one match.
    """
    engine = StreamingEngine(cea, debug=debug)
    for event, time in pairs:
        matches = engine.feed(event, time)
        if matches:
            yield engine.position, matches
