"""Query-to-automaton compilation, operator by operator.

One builder, `_compile`, makes one automaton per syntax node.  A node's
initial state has no incoming transition and its final states no outgoing
one, so an operator redirects transitions instead of copying them: a
sequencing sends the left side's transitions into its finals to the right
side's initial state, a window checks its clock on the transitions into the
finals, and ``or`` moves the right side's initial out-transitions to the
left side's initial state.  `_finish` then keeps only the states on a path
from the initial state to a final one, and reads the clocks off their
transitions.

`compile_cel` runs the builder with a fresh clock per time operator.
`compile_windowed` runs it in its ``windowed`` mode, where the clocks are
fixed to two: ``zx``, reset on exactly the marking transitions, and ``zn``,
reset on exactly the initial out-transitions, which keeps resets a function
of the transition label and hence synchronous across runs.  Whether a
formula may be built that way is decided by `cel.outside_windowed` alone.
"""

from __future__ import annotations

from . import cel
from .cea import (
    FULL_INTERVAL,
    TRUE,
    Guard,
    State,
    TimedCea,
    Transition,
    exposed_clocks,
    guard_clocks,
    guard_meet,
    trim,
)
from .model import And as PAnd
from .model import Interval, Predicate, TrueP, TypeIs
from .parser import pretty


class NotWindowed(Exception):
    pass


ZX = "zx"  # marking clock of the windowed build
ZN = "zn"  # window clock of the windowed build


class _Build:
    """One sub-automaton under construction (mutable scaffolding)."""

    def __init__(self, delta: list, initial: State, finals: set):
        self.delta = delta
        self.initial = initial
        self.finals = finals


class _Fresh:
    def __init__(self):
        self.state_counter = self.clock_counter = 0

    def state(self) -> int:
        self.state_counter += 1
        return self.state_counter

    def clock(self) -> str:
        self.clock_counter += 1
        return f"z{self.clock_counter}"


def _finish(build: _Build, formula: cel.CelFormula) -> TimedCea:
    """The automaton on the initial state and the states on a path from it to
    a final one, their transitions and the clocks those transitions use."""
    states, delta = trim(build.initial, build.delta, build.finals)
    clocks = {z for tr in delta for z in tr.resets | guard_clocks(tr.guard)}
    out = TimedCea(
        states, cel.formula_vars(formula), clocks, delta, build.initial, build.finals & states
    )
    assert out.no_transition_into_initial()
    assert out.resets_before_checks()
    return out


def compile_cel(phi: cel.CelFormula) -> TimedCea:
    """The general operator-by-operator construction."""
    return _finish(_compile(phi, _Fresh()), phi)


def _interval_guard(clock: str, interval: Interval) -> Guard:
    """The box that checks ``clock`` in ``interval``; true for ``[0, inf)``."""
    return TRUE if interval == FULL_INTERVAL else ((clock, interval),)


def _checking(tr: Transition, guard: Guard, source: State) -> list[Transition]:
    """``tr`` from ``source``, also checking ``guard``; none when no clock
    value passes both guards."""
    both = guard_meet(tr.guard, guard)
    if both is None:
        return []
    return [Transition(source, tr.pred, both, tr.label, tr.resets, tr.target)]


def _gap(phi: cel.CelFormula, fresh: _Fresh, windowed: bool) -> tuple[frozenset, Guard]:
    """The gap clock's reset and check; an untimed operator has neither."""
    if not isinstance(phi, (cel.TimedSeq, cel.TimedContigSeq, cel.TimedIter, cel.TimedContigIter)):
        return frozenset(), TRUE
    z_x = ZX if windowed else fresh.clock()
    return frozenset((z_x,)), _interval_guard(z_x, phi.interval)


# AS, FILTER, OR, AND and projection: one combinator each.


def _as(b: _Build, var: str) -> _Build:
    b.delta = [
        tr
        if not tr.label
        else Transition(tr.source, tr.pred, tr.guard, tr.label | {var}, tr.resets, tr.target)
        for tr in b.delta
    ]
    return b


def _filter(b: _Build, var: str, pred: Predicate) -> _Build:
    b.delta = [
        tr
        if var not in tr.label
        else Transition(tr.source, PAnd(tr.pred, pred), tr.guard, tr.label, tr.resets, tr.target)
        for tr in b.delta
    ]
    return b


def _or(b1: _Build, b2: _Build) -> _Build:
    """``b2``'s initial out-transitions leave ``b1``'s initial state instead."""
    delta = b1.delta + [
        tr
        if tr.source != b2.initial
        else Transition(b1.initial, tr.pred, tr.guard, tr.label, tr.resets, tr.target)
        for tr in b2.delta
    ]
    return _Build(delta, b1.initial, b1.finals | b2.finals)


def _and(b1: _Build, b2: _Build) -> _Build:
    delta = [
        Transition(
            (t1.source, t2.source),
            PAnd(t1.pred, t2.pred),
            guard,
            t1.label,
            t1.resets | t2.resets,
            (t1.target, t2.target),
        )
        for t1 in b1.delta
        for t2 in b2.delta
        if t1.label == t2.label and (guard := guard_meet(t1.guard, t2.guard)) is not None
    ]
    finals = {(f1, f2) for f1 in b1.finals for f2 in b2.finals}
    return _Build(delta, (b1.initial, b2.initial), finals)


def _project(b: _Build, keep: frozenset[str]) -> _Build:
    b.delta = [
        Transition(tr.source, tr.pred, tr.guard, tr.label & keep, tr.resets, tr.target)
        for tr in b.delta
    ]
    return b


def _compile(phi: cel.CelFormula, fresh: _Fresh, windowed: bool = False) -> _Build:
    """Build the automaton for a formula.

    In ``windowed`` mode every event type resets ``zx``, the timed sequences
    and iterations check ``zx``, a window checks ``zn``, and a projection
    drops the ``zx`` resets it leaves unobservable.  `compile_windowed` adds
    the ``zn`` resets on the initial out-transitions.
    """
    if isinstance(phi, cel.EventType):
        q1, q2 = fresh.state(), fresh.state()
        marks = frozenset((ZX,)) if windowed else frozenset()
        tr = Transition(q1, TypeIs(phi.etype), TRUE, frozenset((phi.etype,)), marks, q2)
        return _Build([tr], q1, {q2})

    if isinstance(phi, cel.As):
        return _as(_compile(phi.body, fresh, windowed), phi.var)

    if isinstance(phi, cel.Filter):
        return _filter(_compile(phi.body, fresh, windowed), phi.var, phi.pred)

    if isinstance(phi, cel.Or):
        b1 = _compile(phi.left, fresh, windowed)
        return _or(b1, _compile(phi.right, fresh, windowed))

    if isinstance(phi, cel.And):
        b1 = _compile(phi.left, fresh, windowed)
        return _and(b1, _compile(phi.right, fresh, windowed))

    if isinstance(phi, (cel.Seq, cel.ContigSeq, cel.TimedSeq, cel.TimedContigSeq)):
        # b2's initial state ``q`` takes b1's final transitions and checks the gap
        b1 = _compile(phi.left, fresh, windowed)
        b2 = _compile(phi.right, fresh, windowed)
        marks, gamma_i = _gap(phi, fresh, windowed)
        q = b2.initial
        delta = [
            tr
            if tr.target not in b1.finals
            else Transition(tr.source, tr.pred, tr.guard, tr.label, tr.resets | marks, q)
            for tr in b1.delta
        ]
        for tr in b2.delta:
            delta += _checking(tr, gamma_i, q) if tr.source == q else [tr]
        if isinstance(phi, (cel.Seq, cel.TimedSeq)):
            delta.append(Transition(q, TrueP(), TRUE, frozenset(), frozenset(), q))
        return _Build(delta, b1.initial, b2.finals)

    if isinstance(phi, cel.Project):
        b = _project(_compile(phi.body, fresh, windowed), phi.vars)
        return _drop_dead_marking_resets(b) if windowed else b

    if isinstance(phi, cel.Within):
        # reset on the initial out-transitions, checked on the others into the finals
        b = _compile(phi.body, fresh, windowed)
        z_n = ZN if windowed else fresh.clock()
        b, gamma_i = _reset_on_initial(b, z_n), _interval_guard(z_n, phi.interval)
        delta = []
        for tr in b.delta:
            if tr.target not in b.finals:
                delta.append(tr)
            elif tr.source != b.initial:
                delta += _checking(tr, gamma_i, tr.source)
            elif phi.interval.contains(0):  # a one-event match
                delta.append(tr)
        return _Build(delta, b.initial, b.finals)

    if isinstance(phi, (cel.Plus, cel.ContigPlus, cel.TimedIter, cel.TimedContigIter)):
        # a block ends in the finals and in ``q_new``, which starts the next
        b = _compile(phi.body, fresh, windowed)
        marks, gamma_i = _gap(phi, fresh, windowed)
        q_new = fresh.state()
        starts = [tr for tr in b.delta if tr.source == b.initial]
        delta = b.delta + [t for tr in starts for t in _checking(tr, gamma_i, q_new)]
        delta += [
            Transition(tr.source, tr.pred, tr.guard, tr.label, tr.resets | marks, q_new)
            for tr in delta
            if tr.target in b.finals
        ]
        if isinstance(phi, (cel.Plus, cel.TimedIter)):
            delta.append(Transition(q_new, TrueP(), TRUE, frozenset(), frozenset(), q_new))
        return _Build(delta, b.initial, b.finals)

    raise TypeError(f"not a formula: {phi!r}")


def _reset_on_initial(b: _Build, z: str) -> _Build:
    b.delta = [
        tr
        if tr.source != b.initial
        else Transition(tr.source, tr.pred, tr.guard, tr.label, tr.resets | {z}, tr.target)
        for tr in b.delta
    ]
    return b


# ---------------------------------------------------------------------------
# Windowed build (two clocks, synchronous resets)
# ---------------------------------------------------------------------------


def compile_windowed(phi: cel.CelFormula) -> TimedCea:
    outside = cel.outside_windowed(phi)
    if outside is not None:
        raise NotWindowed(f"operator outside the windowed fragment: {pretty(outside)}")
    out = _finish(_reset_on_initial(_compile(phi, _Fresh(), windowed=True), ZN), phi)
    assert out.clocks <= {ZX, ZN}
    return out


def _drop_dead_marking_resets(b: _Build) -> _Build:
    """After projection, some formerly-marking transitions carry a reset of
    the marking clock without a label.  When no later guard can observe that
    reset, remove it; this restores "reset iff marking" (and synchronicity).
    """
    exposed = exposed_clocks(b.delta)
    b.delta = [
        Transition(tr.source, tr.pred, tr.guard, tr.label, tr.resets - {ZX}, tr.target)
        if not tr.label and ZX in tr.resets and ZX not in exposed.get(tr.target, ())
        else tr
        for tr in b.delta
    ]
    return b
