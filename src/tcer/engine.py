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

Times are held in ticks, as ``regions`` holds the bounds of its zones (the
scaling of Alur and Dill): one tick is ``1/S`` s, ``S = DECIMAL_SCALE · lcm``
of the clock constants' denominators.  Every bound is then an int, and so is every
timestamp with at most nine decimal places, so the store's anchors, resets
and limits are ints, compared and subtracted without ``Fraction``
arithmetic.  A timestamp with more places, or one that is not a decimal (a
third), stays an exact ``Fraction`` of ticks.  Python compares ints and
``Fraction``s exactly, so such a time takes the same path and gives the
same matches.  ``feed`` takes seconds and matches carry positions, so no
tick leaves the engine.

Predicates are dispatched on event cells (minterms, as in D'Antoni and
Veanes): the engine collects the distinct atoms (``TypeIs``, ``Basic``) of
its transitions' predicates, and per event finds their truth vector, each
atom decided once.  The type tests' part is looked up by the event type.
The part of the atoms on one attribute is constant on each class of its
values that ``model.event_cells`` uses (``model._classes``), so it is
decided once on each class's witness and looked up by the value's class,
found by bisection among the number constants.  Every predicate is a
Boolean combination of its atoms, so the vector decides which transitions
fire; ``cells`` memoizes, per vector, each state's fired transitions.  The
memo is filled lazily: on the first event with a new vector, ``sat``
decides each transition on that event.  It holds at most one entry per cell
of the atoms, ``len(model.event_cells(atoms))``, a bound set by the
automaton, and ``sat`` runs at most that many times ``|Δ|`` over a whole
stream.  The memo, the atoms and the prepared transitions depend on the
automaton alone, so the first engine over an automaton keeps them on it
(``_Dispatch``) and every later engine over it starts from them.

Attribute values are compared in units, as clocks compare ticks: an
attribute that the atoms read is counted in ``1/S`` units, ``S =
DECIMAL_SCALE · lcm`` of the denominators of its number constants, so its
constants are ints, and so is every value with at most nine decimal places;
any other value is an exact ``Fraction`` of units.  ``feed`` converts the
time and the attributes the atoms read with ``model.to_units``; ``step``
takes them already converted, from a reader such as the CLI's that reads
them straight from their digits, and rebuilds an event from them only on
the first event of a cell, for ``sat``.  Only numbers (not booleans, NaN or
infinities) satisfy a number comparison and only strings a string
comparison, as in ``sat``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import isfinite, lcm
from typing import Iterator, Optional

from .caecs import Caecs, Node, enumerate_node
from .cea import (
    TimedCea, constant_scale, format_names, guard_clocks, is_deterministic, is_monotonic
)
from .model import (
    Basic,
    ComplexEvent,
    Event,
    Rational,
    TypeIs,
    Value,
    _atoms,
    _classes,
    _compare,
    sat,
    to_units,
)

# Ticks per second for integer clock constants: a timestamp with at most nine
# decimal places is a whole number of ticks.
DECIMAL_SCALE = 10**9


class NotStreamable(Exception):
    """The automaton is outside the streamable class."""


class _Trans(Value):
    """A transition whose guard is one bound in ticks, or None if it is true."""

    __slots__ = ("source", "pred", "bound", "label", "reset", "target")


def _prepare(cea: TimedCea, scale: int) -> tuple[list[_Trans], str]:
    """Validate the automaton and read each guard's bound off its interval
    (the high end under ``le``, the low end under ``ge``), in ticks of
    ``1/scale`` s.  The initial state's guarded transitions are left out: a
    guard cannot pass before the clock is started."""
    if not is_deterministic(cea):
        raise NotStreamable("automaton is not deterministic")
    direction = is_monotonic(cea)
    if direction == "no":
        raise NotStreamable("guards are not monotonic")
    checked = frozenset(z for tr in cea.delta for z in guard_clocks(tr.guard))
    if len(checked) > 1:
        raise NotStreamable(f"more than one checked clock: {format_names(checked)}")
    clock = next(iter(checked), None)
    if not cea.no_transition_into_initial():
        raise NotStreamable("transition back into the initial state")
    out: list[_Trans] = []
    for tr in cea.delta:
        reset = clock is not None and clock in tr.resets
        if tr.source == cea.initial:
            if tr.guard:
                continue
            if clock is not None and not reset:
                raise NotStreamable("unguarded initial transition must initialize the clock")
        bound = None
        if tr.guard:
            ((_, iv),) = tr.guard
            end = iv.high if direction == "le" else iv.low
            bound = None if end is None else to_units(end, scale)
        out.append(_Trans(tr.source, tr.pred, bound, tr.label, reset, tr.target))
    return out, direction


class _Field:
    """The cells of one attribute: the truth vector of the atoms that read it,
    for each class of its values in units (``model._classes``), each class
    decided on its witness.  Any other value (absent, null, boolean)
    satisfies none of the atoms."""

    __slots__ = ("attr", "numbers", "at_number", "at_string", "other_string", "nothing")

    def __init__(self, attr: str, atoms: list[Basic], scale: int):
        # each number constant in units, an int: the scale is a multiple of
        # its denominator
        tests = [
            (a.op, a.value if isinstance(a.value, str) else to_units(a.value, scale)) for a in atoms
        ]
        self.numbers, witnesses, strings, other = _classes({c for _, c in tests})
        vectors = [
            tuple([_compare(v, op, c) for op, c in tests]) for v in (*witnesses, *strings, other)
        ]
        self.attr = attr
        self.nothing = (False,) * len(tests)
        self.at_number = vectors[: len(witnesses)] or [self.nothing]
        self.at_string = dict(zip(strings, vectors[len(witnesses):]))
        self.other_string = vectors[-1]


class _Dispatch:
    """What every engine over one automaton shares, built by the first one
    and kept on the automaton: the transitions with their guards in ticks, by
    source state; the distinct atoms of their predicates, and the tables that
    find the atoms' truth vector; and the memo of each vector's fired
    transitions."""

    __slots__ = (
        "scale", "direction", "out", "atoms", "reads", "types", "no_type", "fields", "cells"
    )

    def __init__(self, cea: TimedCea):
        self.scale = DECIMAL_SCALE * constant_scale(cea)
        trans, self.direction = _prepare(cea, self.scale)
        self.out: dict[object, list[_Trans]] = {}
        for tr in trans:
            self.out.setdefault(tr.source, []).append(tr)
        types: dict[str, TypeIs] = {}
        reads: dict[str, list[Basic]] = {}
        scales: dict[str, int] = {}
        for trs in self.out.values():
            for tr in trs:
                for atom in _atoms(tr.pred):
                    if isinstance(atom, TypeIs):
                        types.setdefault(atom.etype, atom)
                    elif atom not in reads.setdefault(atom.attr, []):
                        reads[atom.attr].append(atom)
                        d = 1 if isinstance(atom.value, str) else atom.value.denominator
                        scales[atom.attr] = lcm(scales.get(atom.attr, 1), d)
        # the type tests, then each attribute's atoms
        self.atoms = (*types.values(), *(a for atoms in reads.values() for a in atoms))
        self.reads = {attr: DECIMAL_SCALE * d for attr, d in scales.items()}
        self.types = {t: tuple([t == u for u in types]) for t in types}
        self.no_type = (False,) * len(types)
        self.fields = [_Field(attr, atoms, self.reads[attr]) for attr, atoms in reads.items()]
        self.cells: dict[tuple[bool, ...], dict[object, list[_Trans]]] = {}


class StreamingEngine:
    """One evaluation session over a single stream."""

    def __init__(self, cea: TimedCea, debug: bool = False):
        dispatch = cea._dispatch
        if dispatch is None:
            dispatch = _Dispatch(cea)
            object.__setattr__(cea, "_dispatch", dispatch)
        self.cea = cea
        self.scale = dispatch.scale
        self.out = dispatch.out
        self.atoms = dispatch.atoms
        self.reads = dispatch.reads
        self.cells = dispatch.cells
        self._types, self._no_type, self._fields = dispatch.types, dispatch.no_type, dispatch.fields
        self.caecs = Caecs(dispatch.direction)
        self.debug = debug
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
        attrs = event.attrs
        values = {}
        for attr, scale in self.reads.items():
            value = attrs.get(attr)
            if isinstance(value, (int, Fraction)) and value.__class__ is not bool or (
                isinstance(value, float) and isfinite(value)
            ):
                values[attr] = to_units(value, scale)
            elif isinstance(value, str):
                values[attr] = value
        return self.step(event.etype, values, to_units(time, self.scale))

    def step(self, etype: str, values: dict, ticks: Rational) -> list[ComplexEvent]:
        """``feed``, with the time in ticks and the attributes that the atoms
        read in units (``reads``); an absent, null or boolean value is left
        out."""
        if ticks <= self.last_time:
            raise ValueError("timestamps must be positive and increase strictly")
        cell = self.cell(etype, values)
        fired = self.cells.get(cell)
        if fired is None:
            fired = self.cells[cell] = self._fire(self._event(etype, values))
        self.last_time = ticks
        self.position += 1
        j = self.position
        self.next_table: dict[object, list[Node]] = {}
        trs = fired.get(self.cea.initial)
        if trs is not None:
            self._exec(None, trs, j, ticks)
        for p, ul in self.table.items():
            trs = fired.get(p)
            if trs is not None:
                self._exec(ul, trs, j, ticks)
        self.table = self.next_table
        if self.debug:
            self._check_invariants()
        if self.cea.finals.isdisjoint(self.table):
            return []
        return list(self.enumerate_at(j))

    def cell(self, etype: str, values: dict) -> tuple[bool, ...]:
        """The truth vector of ``atoms`` on an event with values in units:
        the type tests' looked up by the type, and each attribute's by the
        class of its value, found by bisection among its number constants."""
        vector = self._types.get(etype, self._no_type)
        for field in self._fields:
            v = values.get(field.attr)
            if v.__class__ is int or v.__class__ is Fraction:
                numbers = field.numbers
                i = bisect_left(numbers, v)
                vector += field.at_number[2 * i + (i < len(numbers) and numbers[i] == v)]
            elif isinstance(v, str):
                vector += field.at_string.get(v, field.other_string)
            else:
                vector += field.nothing
        return vector

    def _event(self, etype: str, values: dict) -> Event:
        """An event that the atoms see as they see these values: the read
        attributes, back in exact value units."""
        reads = self.reads
        return Event(
            etype,
            {a: v if isinstance(v, str) else Fraction(v, reads[a]) for a, v in values.items()},
        )

    def _fire(self, event: Event) -> dict[object, list[_Trans]]:
        """Each state's transitions that fire on the event, states with none
        left out."""
        fired = {}
        for p, trs in self.out.items():
            hits = [tr for tr in trs if sat(event, tr.pred)]
            if hits:
                fired[p] = hits
        return fired

    def _exec(self, ul: Optional[list[Node]], trs: list[_Trans], j: int, time: Rational) -> None:
        """Advance a state's union-list through its fired transitions at
        ``time`` ticks; None is the fresh run, whose bottom is built when one
        of its transitions fires."""
        caecs = self.caecs
        merged: Optional[Node] = None
        for tr in trs:
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
