"""Query language AST, fragment classifier, and brute-force reference semantics.

The reference evaluator (`eval_cel_oracle`) is a direct structural recursion
over the language's denotational semantics.  It is deliberately exhaustive and
desk-scale only; everything else in the system is tested against it.
"""

from __future__ import annotations

from typing import Union

from .model import (
    Binary,
    ComplexEvent,
    Interval,
    TimedStream,
    Unary,
    Value,
    project_ce,
    sat,
    union_ce,
)

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class EventType(Value):
    __slots__ = ("etype",)


class As(Value):
    __slots__ = ("body", "var")


class Filter(Value):
    __slots__ = ("body", "var", "pred")


class Project(Value):
    __slots__ = ("vars", "body")

    def __init__(self, vars: frozenset[str], body: "CelFormula"):
        super().__init__(frozenset(vars), body)


class _TimedUnary(Value):
    """The fields of a window or a timed iteration."""

    __slots__ = ("body", "interval")


class _TimedBinary(Value):
    """The fields of a timed sequencing."""

    __slots__ = ("left", "interval", "right")


class Or(Binary):
    __slots__ = ()


class And(Binary):
    __slots__ = ()


class Seq(Binary):
    __slots__ = ()


class ContigSeq(Binary):
    __slots__ = ()


class Plus(Unary):
    __slots__ = ()


class ContigPlus(Unary):
    __slots__ = ()


class Within(_TimedUnary):
    __slots__ = ()


class TimedSeq(_TimedBinary):
    __slots__ = ()


class TimedContigSeq(_TimedBinary):
    __slots__ = ()


class TimedIter(_TimedUnary):
    __slots__ = ()


class TimedContigIter(_TimedUnary):
    __slots__ = ()


CelFormula = Union[
    EventType,
    As,
    Filter,
    Or,
    And,
    Seq,
    ContigSeq,
    Plus,
    ContigPlus,
    Project,
    Within,
    TimedSeq,
    TimedContigSeq,
    TimedIter,
    TimedContigIter,
]

_BINARY = (Or, And, Seq, ContigSeq, TimedSeq, TimedContigSeq)


def children(phi: CelFormula) -> tuple[CelFormula, ...]:
    if isinstance(phi, EventType):
        return ()
    if isinstance(phi, _BINARY):
        return (phi.left, phi.right)
    return (phi.body,)


def subformulas(phi: CelFormula):
    yield phi
    for child in children(phi):
        yield from subformulas(child)


def formula_vars(phi: CelFormula) -> frozenset[str]:
    """All variables a formula can bind (event types count as variables)."""
    acc: set[str] = set()
    for sub in subformulas(phi):
        if isinstance(sub, EventType):
            acc.add(sub.etype)
        elif isinstance(sub, As):
            acc.add(sub.var)
    return frozenset(acc)


# ---------------------------------------------------------------------------
# Fragment classifier
# ---------------------------------------------------------------------------

TIMED_OPS = (Within, TimedSeq, TimedContigSeq, TimedIter, TimedContigIter)


def _is_standard(phi: CelFormula) -> bool:
    """No time operators anywhere (the core language, projection included)."""
    return not any(isinstance(sub, TIMED_OPS) for sub in subformulas(phi))


def _is_simple(phi: CelFormula) -> bool:
    """No projection and no window anywhere; other time operators are free."""
    return not any(isinstance(sub, (Project, Within)) for sub in subformulas(phi))


def outside_windowed(phi: CelFormula) -> CelFormula | None:
    """The first subformula outside the two-level windowed fragment, or None.

    The fragment is an outer layer of AS/FILTER/OR/AND/WITHIN (and
    projection) over bodies that are either simple or free of time operators.
    """
    if _is_standard(phi) or _is_simple(phi):
        return None
    if not isinstance(phi, (As, Filter, Or, And, Within, Project)):
        return phi
    return next(filter(None, map(outside_windowed, children(phi))), None)


def _is_type_disjunction(phi: CelFormula) -> bool:
    if isinstance(phi, EventType):
        return True
    if isinstance(phi, Or):
        return _is_type_disjunction(phi.left) and _is_type_disjunction(phi.right)
    return False


def _is_swg_block(phi: CelFormula) -> bool:
    # FILTER (types AS X, X[P])
    return (
        isinstance(phi, Filter)
        and isinstance(phi.body, As)
        and phi.var == phi.body.var
        and _is_type_disjunction(phi.body.body)
    )


def _is_swg_chain(phi: CelFormula) -> bool:
    if _is_swg_block(phi):
        return True
    return (
        isinstance(phi, TimedSeq)
        and _is_swg_chain(phi.left)
        and _is_swg_block(phi.right)
    )


def _is_swg(phi: CelFormula) -> bool:
    """Sequence-with-gaps form: a window over a chain of timed-sequenced
    filtered single-event blocks."""
    if not isinstance(phi, Within):
        return False
    window = phi.interval
    if window.high is None or window.low != 0 or not window.low_closed:
        return False
    return _is_swg_chain(phi.body)


def classify(phi: CelFormula) -> tuple[str, frozenset[str]]:
    """Return (most specific fragment label, all matching labels).

    Labels: ``swg`` (sequence-with-gaps queries), ``simple`` (no projection or
    window), ``windowed`` (two-level fragment), ``general``.
    """
    flags: set[str] = set()
    if _is_swg(phi):
        flags.add("swg")
    if _is_simple(phi):
        flags.add("simple")
    if outside_windowed(phi) is None:
        flags.add("windowed")
    for label in ("swg", "simple", "windowed"):
        if label in flags:
            return label, frozenset(flags)
    return "general", frozenset(flags)


# ---------------------------------------------------------------------------
# Reference semantics
# ---------------------------------------------------------------------------

DEFAULT_ORACLE_CAP = 14


class OracleCapExceeded(Exception):
    pass


def eval_cel_oracle(
    phi: CelFormula, stream: TimedStream, cap: int = DEFAULT_ORACLE_CAP
) -> frozenset[ComplexEvent]:
    """The full output set of the formula over the stream, by brute force."""
    if len(stream) > cap:
        raise OracleCapExceeded(
            f"stream length {len(stream)} exceeds oracle cap {cap}"
        )
    memo: dict[CelFormula, frozenset[ComplexEvent]] = {}
    return _sem(phi, stream, memo)


def _sem(
    phi: CelFormula,
    s: TimedStream,
    memo: dict[CelFormula, frozenset[ComplexEvent]],
) -> frozenset[ComplexEvent]:
    cached = memo.get(phi)
    if cached is not None:
        return cached
    result = frozenset(_sem_uncached(phi, s, memo))
    memo[phi] = result
    return result


def _joinable(
    c1: ComplexEvent,
    c2: ComplexEvent,
    s: TimedStream,
    contiguous: bool,
    interval: Interval | None,
) -> bool:
    """May ``c2`` follow ``c1`` in a sequencing or an iteration step?  It
    starts right after ``c1`` ends when contiguous, and after it otherwise,
    and the time gap between them lies in the interval of a timed form."""
    if (c1.end + 1 != c2.start) if contiguous else (c1.end >= c2.start):
        return False
    return interval is None or interval.contains(s.time(c2.start) - s.time(c1.end))


def _iterate(
    base: frozenset[ComplexEvent],
    s: TimedStream,
    contiguous: bool,
    interval: Interval | None,
) -> frozenset[ComplexEvent]:
    """Least fixed point of C = base ∪ {c1 ∪ c2 | c1 ∈ base, c2 ∈ C, joinable}."""
    acc: set[ComplexEvent] = set(base)
    frontier = set(base)
    while frontier:
        fresh: set[ComplexEvent] = set()
        for c2 in frontier:
            for c1 in base:
                if _joinable(c1, c2, s, contiguous, interval):
                    joined = union_ce(c1, c2)
                    if joined not in acc:
                        fresh.add(joined)
        acc.update(fresh)
        frontier = fresh
    return frozenset(acc)


def _sem_uncached(phi, s, memo):
    if isinstance(phi, EventType):
        return {
            ComplexEvent.make(i, i, {phi.etype: {i}})
            for i, e, _ in s.pairs()
            if e.etype == phi.etype
        }
    if isinstance(phi, As):
        out = set()
        for c in _sem(phi.body, s, memo):
            mapping = dict(c.binding)
            mapping[phi.var] = {p for _, ps in c.binding for p in ps}
            out.add(ComplexEvent.make(c.start, c.end, mapping))
        return out
    if isinstance(phi, Filter):
        return {
            c
            for c in _sem(phi.body, s, memo)
            if all(sat(s.event(i), phi.pred) for i in dict(c.binding).get(phi.var, ()))
        }
    if isinstance(phi, Or):
        return _sem(phi.left, s, memo) | _sem(phi.right, s, memo)
    if isinstance(phi, And):
        return _sem(phi.left, s, memo) & _sem(phi.right, s, memo)
    if isinstance(phi, (Seq, ContigSeq, TimedSeq, TimedContigSeq)):
        contiguous = isinstance(phi, (ContigSeq, TimedContigSeq))
        interval = phi.interval if isinstance(phi, (TimedSeq, TimedContigSeq)) else None
        return {
            union_ce(c1, c2)
            for c1 in _sem(phi.left, s, memo)
            for c2 in _sem(phi.right, s, memo)
            if _joinable(c1, c2, s, contiguous, interval)
        }
    if isinstance(phi, (Plus, ContigPlus, TimedIter, TimedContigIter)):
        contiguous = isinstance(phi, (ContigPlus, TimedContigIter))
        interval = phi.interval if isinstance(phi, (TimedIter, TimedContigIter)) else None
        return _iterate(_sem(phi.body, s, memo), s, contiguous, interval)
    if isinstance(phi, Project):
        return {project_ce(c, phi.vars) for c in _sem(phi.body, s, memo)}
    if isinstance(phi, Within):
        return {
            c
            for c in _sem(phi.body, s, memo)
            if phi.interval.contains(s.time(c.end) - s.time(c.start))
        }
    raise TypeError(f"not a formula: {phi!r}")
