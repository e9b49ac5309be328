"""Query-to-automaton compilation, operator by operator.

One builder, `_compile`, makes one automaton per syntax node.  `compile_cel`
runs it with a fresh clock per time operator.  `compile_windowed` runs it in
its ``windowed`` mode, where the clocks are fixed to two: ``zx``, reset on
exactly the marking transitions, and ``zn``, reset on exactly the initial
out-transitions, which keeps resets a function of the transition label and
hence synchronous across runs.  Whether a formula may be built that way is
decided by `cel.outside_windowed` alone.  An untimed iteration is a timed one
with no clock and no gap guard.
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
    reachable,
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

    def __init__(self, states: set, delta: list, initial: State, finals: set, clocks: set):
        self.states = states
        self.delta = delta
        self.initial = initial
        self.finals = finals
        self.clocks = clocks


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
    out = TimedCea(
        states=frozenset(build.states),
        vars=cel.formula_vars(formula),
        clocks=frozenset(build.clocks),
        delta=tuple(build.delta),
        initial=build.initial,
        finals=frozenset(build.finals),
    )
    assert out.no_transition_into_initial()
    assert out.resets_before_checks()
    return out


def compile_cel(phi: cel.CelFormula) -> TimedCea:
    """The general operator-by-operator construction."""
    fresh = _Fresh()
    return _finish(_compile(phi, fresh), phi)


def _interval_guard(clock: str, interval: Interval) -> Guard:
    """The box that checks ``clock`` in ``interval``; true for ``[0, inf)``."""
    return TRUE if interval == FULL_INTERVAL else ((clock, interval),)


def _checking(
    tr: Transition, guard: Guard, source: State, target: State, resets: frozenset = frozenset()
) -> list[Transition]:
    """``tr`` from ``source`` to ``target``, also checking ``guard`` and
    resetting ``resets``; none when no clock value passes both guards."""
    both = guard_meet(tr.guard, guard)
    if both is None:
        return []
    return [Transition(source, tr.pred, both, tr.label, tr.resets | resets, target)]


def _retarget(tr: Transition, target: State) -> Transition:
    return Transition(tr.source, tr.pred, tr.guard, tr.label, tr.resets, target)


def _resource(tr: Transition, source: State) -> Transition:
    return Transition(source, tr.pred, tr.guard, tr.label, tr.resets, tr.target)


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


def _or(b1: _Build, b2: _Build, fresh: _Fresh) -> _Build:
    q0 = fresh.state()
    delta = list(b1.delta) + list(b2.delta)
    for b in (b1, b2):
        for tr in b.delta:
            if tr.source == b.initial:
                delta.append(_resource(tr, q0))
    return _Build(
        b1.states | b2.states | {q0}, delta, q0, b1.finals | b2.finals, b1.clocks | b2.clocks
    )


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
    states = {(p1, p2) for p1 in b1.states for p2 in b2.states}
    finals = {(f1, f2) for f1 in b1.finals for f2 in b2.finals}
    return _Build(states, delta, (b1.initial, b2.initial), finals, b1.clocks | b2.clocks)


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
        return _Build({q1, q2}, [tr], q1, {q2}, set(marks))

    if isinstance(phi, cel.As):
        return _as(_compile(phi.body, fresh, windowed), phi.var)

    if isinstance(phi, cel.Filter):
        return _filter(_compile(phi.body, fresh, windowed), phi.var, phi.pred)

    if isinstance(phi, cel.Or):
        b1 = _compile(phi.left, fresh, windowed)
        return _or(b1, _compile(phi.right, fresh, windowed), fresh)

    if isinstance(phi, cel.And):
        b1 = _compile(phi.left, fresh, windowed)
        b2 = _compile(phi.right, fresh, windowed)
        assert windowed or not (b1.clocks & b2.clocks), "operand clocks must be disjoint"
        return _and(b1, b2)

    if isinstance(phi, (cel.Seq, cel.ContigSeq)):
        b1 = _compile(phi.left, fresh, windowed)
        b2 = _compile(phi.right, fresh, windowed)
        delta = list(b1.delta) + list(b2.delta)
        for tr in b1.delta:
            if tr.target in b1.finals:
                delta.append(_retarget(tr, b2.initial))
        if isinstance(phi, cel.Seq):
            delta.append(Transition(b2.initial, TrueP(), TRUE, frozenset(), frozenset(), b2.initial))
        return _Build(
            b1.states | b2.states, delta, b1.initial, set(b2.finals), b1.clocks | b2.clocks
        )

    if isinstance(phi, cel.Project):
        b = _project(_compile(phi.body, fresh, windowed), phi.vars)
        return _drop_dead_marking_resets(b) if windowed else b

    if isinstance(phi, cel.Within):
        b = _compile(phi.body, fresh, windowed)
        return _within_wrap(b, phi.interval, ZN if windowed else fresh.clock(), fresh)

    if isinstance(phi, (cel.TimedSeq, cel.TimedContigSeq)):
        b1 = _compile(phi.left, fresh, windowed)
        b2 = _compile(phi.right, fresh, windowed)
        z_x = ZX if windowed else fresh.clock()
        q_new = fresh.state()
        gamma_i = _interval_guard(z_x, phi.interval)
        delta = list(b1.delta) + list(b2.delta)
        for tr in b1.delta:
            if tr.target in b1.finals:
                delta.append(
                    Transition(tr.source, tr.pred, tr.guard, tr.label, tr.resets | {z_x}, q_new)
                )
        if isinstance(phi, cel.TimedSeq):
            delta.append(Transition(q_new, TrueP(), TRUE, frozenset(), frozenset(), q_new))
        for tr in b2.delta:
            if tr.source == b2.initial:
                delta += _checking(tr, gamma_i, q_new, tr.target)
        return _Build(
            b1.states | b2.states | {q_new},
            delta,
            b1.initial,
            set(b2.finals),
            b1.clocks | b2.clocks | {z_x},
        )

    if isinstance(phi, (cel.Plus, cel.ContigPlus, cel.TimedIter, cel.TimedContigIter)):
        # an untimed iteration is a timed one with no clock and no gap guard
        b = _compile(phi.body, fresh, windowed)
        timed = isinstance(phi, (cel.TimedIter, cel.TimedContigIter))
        z_x = (ZX if windowed else fresh.clock()) if timed else None
        marks = frozenset((z_x,)) if timed else frozenset()
        gamma_i = _interval_guard(z_x, phi.interval) if timed else TRUE
        q_new = fresh.state()
        delta = list(b.delta)
        for tr in b.delta:
            if tr.target in b.finals:
                delta.append(
                    Transition(tr.source, tr.pred, tr.guard, tr.label, tr.resets | marks, q_new)
                )
        if isinstance(phi, (cel.Plus, cel.TimedIter)):
            delta.append(Transition(q_new, TrueP(), TRUE, frozenset(), frozenset(), q_new))
        for tr in b.delta:
            if tr.source == b.initial:
                delta += _checking(tr, gamma_i, q_new, tr.target)
                if tr.target in b.finals:
                    # one-step sub-match looping back: the gap must also be
                    # checked here, and the block-end reset applied
                    delta += _checking(tr, gamma_i, q_new, q_new, marks)
        return _Build(b.states | {q_new}, delta, b.initial, set(b.finals), b.clocks | marks)

    raise TypeError(f"not a formula: {phi!r}")


def _within_wrap(b: _Build, interval: Interval, z_n: str, fresh: _Fresh) -> _Build:
    """Wrap a build with a window clock: reset on the initial out-transitions,
    checked on the transitions entering a fresh final state."""
    q_f = fresh.state()
    gamma_i = _interval_guard(z_n, interval)
    delta: list[Transition] = []
    for tr in b.delta:
        if tr.source == b.initial:
            tr = Transition(tr.source, tr.pred, tr.guard, tr.label, tr.resets | {z_n}, tr.target)
            if tr.target not in b.finals:
                delta.append(tr)
            elif interval.contains(0):
                # single-event matches are possible only when 0 lies in the window
                delta.append(_retarget(tr, q_f))
        else:
            delta.append(tr)
            if tr.target in b.finals:
                delta += _checking(tr, gamma_i, tr.source, q_f)
    return _Build(b.states | {q_f}, delta, b.initial, {q_f}, b.clocks | {z_n})


# ---------------------------------------------------------------------------
# Windowed build (two clocks, synchronous resets)
# ---------------------------------------------------------------------------


def compile_windowed(phi: cel.CelFormula) -> TimedCea:
    outside = cel.outside_windowed(phi)
    if outside is not None:
        raise NotWindowed(f"operator outside the windowed fragment: {pretty(outside)}")
    build = _add_zn_on_initial(_compile(phi, _Fresh(), windowed=True))
    out = _finish(_prune_unreachable(build), phi)
    assert out.clocks <= {ZX, ZN}
    return out


def _add_zn_on_initial(b: _Build) -> _Build:
    b.delta = [
        tr
        if tr.source != b.initial
        else Transition(tr.source, tr.pred, tr.guard, tr.label, tr.resets | {ZN}, tr.target)
        for tr in b.delta
    ]
    b.clocks.add(ZN)
    return b


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


def _prune_unreachable(b: _Build) -> _Build:
    live = reachable(b.initial, b.delta)
    b.states = live
    b.delta = [tr for tr in b.delta if tr.source in live]
    b.finals = b.finals & live
    b.clocks = {z for tr in b.delta for z in tr.resets | guard_clocks(tr.guard)} & b.clocks
    return b
