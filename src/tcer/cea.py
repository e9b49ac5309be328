"""Clocked automata over event streams: clock conditions, valuations,
transitions, a brute-force run-enumeration oracle, and structural classifiers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .model import (
    Binary,
    ComplexEvent,
    Event,
    Interval,
    Predicate,
    TimedStream,
    Value,
    format_rat,
)
from . import model
from .parser import MAX_QUERY_DEPTH

# ---------------------------------------------------------------------------
# Clock conditions
# ---------------------------------------------------------------------------


class GTrue(Value):
    __slots__ = ()

    def __str__(self) -> str:
        return "true"


class GFalse(Value):
    """Unsatisfiable condition; internal (the dual of GTrue under negation)."""

    __slots__ = ()

    def __str__(self) -> str:
        return "false"


class Cmp(Value):
    __slots__ = ("clock", "op", "constant")

    def __init__(self, clock: str, op: str, constant: Fraction):
        if op not in ("=", "<", "<=", ">=", ">"):
            raise ValueError(f"unknown clock comparator {op!r}")
        object.__setattr__(self, "clock", clock)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "constant", model.rat(constant))

    def __str__(self) -> str:
        return f"{self.clock} {self.op} {format_rat(self.constant)}"


class GAnd(Binary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


class GOr(Binary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


ClockCondition = Union[GTrue, GFalse, Cmp, GAnd, GOr]

ClockValuation = Mapping[str, Fraction]


def guard_clocks(gamma: ClockCondition) -> frozenset[str]:
    return frozenset([atom.clock for atom in _guard_atoms(gamma)])


def guard_size(gamma: ClockCondition) -> int:
    """Number of comparisons (GTrue/GFalse count 1, connectives are free)."""
    if isinstance(gamma, (GTrue, GFalse, Cmp)):
        return 1
    return guard_size(gamma.left) + guard_size(gamma.right)


def guard_constants(gamma: ClockCondition) -> dict[str, set[Fraction]]:
    out: dict[str, set[Fraction]] = {}
    for sub in _guard_atoms(gamma):
        out.setdefault(sub.clock, set()).add(sub.constant)
    return out


def constant_scale(cea: TimedCea) -> int:
    """The lcm of the clock constants' denominators: the least positive
    int that turns every clock constant into an int when multiplied by it."""
    return math.lcm(
        1, *(atom.constant.denominator for tr in cea.delta for atom in _guard_atoms(tr.guard))
    )


def _guard_atoms(gamma: ClockCondition) -> list[Cmp]:
    if isinstance(gamma, Cmp):
        return [gamma]
    if isinstance(gamma, (GAnd, GOr)):
        return _guard_atoms(gamma.left) + _guard_atoms(gamma.right)
    return []


def guard_sat(nu: ClockValuation, gamma: ClockCondition) -> bool:
    """A valuation satisfies a condition only if it initializes every clock
    the condition mentions (an uninitialized clock fails even under Or)."""
    try:
        return _guard_eval(nu, gamma)
    except KeyError:
        return False


def _guard_eval(nu: ClockValuation, gamma: ClockCondition) -> bool:
    # no short circuit: every atom looks its clock up, so a missing one raises
    if isinstance(gamma, GTrue):
        return True
    if isinstance(gamma, GFalse):
        return False
    if isinstance(gamma, Cmp):
        return model.COMPARISONS[gamma.op](nu[gamma.clock], gamma.constant)
    if isinstance(gamma, GAnd):
        return _guard_eval(nu, gamma.left) & _guard_eval(nu, gamma.right)
    return _guard_eval(nu, gamma.left) | _guard_eval(nu, gamma.right)


def gand(*gammas: ClockCondition) -> ClockCondition:
    acc: Optional[ClockCondition] = None
    for g in gammas:
        if isinstance(g, GTrue):
            continue
        acc = g if acc is None else GAnd(acc, g)
    return acc if acc is not None else GTrue()


def interval_atoms(clock: str, iv: Interval) -> list[Cmp]:
    """The atoms saying that ``clock`` lies in ``iv``; none for ``[0, inf)``."""
    low, high, low_closed, high_closed = iv
    if high is not None and low == high:
        return [Cmp(clock, "=", low)]
    atoms = []
    if low > 0 or not low_closed:
        atoms.append(Cmp(clock, ">=" if low_closed else ">", low))
    if high is not None:
        atoms.append(Cmp(clock, "<=" if high_closed else "<", high))
    return atoms


# --- guard satisfiability over some full-domain valuation ------------------

FULL_INTERVAL = Interval(Fraction(0), None)

Box = dict  # clock -> model.Interval of its values


def _guard_dnf(gamma: ClockCondition) -> list[list[Cmp]]:
    if isinstance(gamma, GTrue):
        return [[]]
    if isinstance(gamma, GFalse):
        return []
    if isinstance(gamma, Cmp):
        return [[gamma]]
    if isinstance(gamma, GAnd):
        return [a + b for a in _guard_dnf(gamma.left) for b in _guard_dnf(gamma.right)]
    return _guard_dnf(gamma.left) + _guard_dnf(gamma.right)


def _conj_box(conj: Iterable[Cmp]) -> Optional[Box]:
    """Per-clock interval of a conjunction; None if it is empty."""
    box: Box = {}
    for atom in conj:
        iv = Interval.of(atom.op, atom.constant)
        if iv is not None and atom.clock in box:
            iv = iv.meet(box[atom.clock])
        if iv is None:
            return None
        box[atom.clock] = iv
    return box


def guard_boxes(gamma: ClockCondition) -> list[Box]:
    """DNF of a condition as interval boxes (empty conjuncts dropped).

    A box keeps an entry for every clock it mentions, even when the interval
    is the trivial [0, ∞): a guard mentioning a clock fails while the clock
    is uninitialized, so mention is part of the meaning.
    """
    boxes = (_conj_box(conj) for conj in _guard_dnf(gamma))
    return [box for box in boxes if box is not None]


def guard_satisfiable(gamma: ClockCondition) -> bool:
    """Is there a valuation (initializing all mentioned clocks) satisfying γ?"""
    return bool(guard_boxes(gamma))


# ---------------------------------------------------------------------------
# Transitions and automata
# ---------------------------------------------------------------------------

State = Union[int, str, tuple]


class Transition(Value):
    __slots__ = ("source", "pred", "guard", "label", "resets", "target")

    def __init__(
        self, source: State, pred: Predicate, guard: ClockCondition,
        label: frozenset[str], resets: frozenset[str], target: State,
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "label", frozenset(label))
        object.__setattr__(self, "resets", frozenset(resets))
        object.__setattr__(self, "target", target)

    def __str__(self) -> str:
        lab = "{" + ",".join(sorted(self.label)) + "}"
        rst = "{" + ",".join(sorted(self.resets)) + "}"
        return f"{self.source} --{self.pred}, {self.guard} / {lab}, {rst}--> {self.target}"


class TimedCea(Value):
    __slots__ = ("states", "vars", "clocks", "delta", "initial", "finals", "_out", "_dispatch")

    def __init__(
        self, states: frozenset[State], vars: frozenset[str], clocks: frozenset[str],
        delta: tuple[Transition, ...], initial: State, finals: frozenset[State],
    ):
        object.__setattr__(self, "states", frozenset(states))
        object.__setattr__(self, "vars", frozenset(vars))
        object.__setattr__(self, "clocks", frozenset(clocks))
        object.__setattr__(self, "delta", tuple(delta))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "finals", frozenset(finals))
        out: dict[State, list[Transition]] = {}
        for tr in self.delta:
            if tr.source not in self.states or tr.target not in self.states:
                raise ValueError(f"transition over unknown state: {tr}")
            out.setdefault(tr.source, []).append(tr)
        object.__setattr__(self, "_out", out)
        # what every streaming engine over the automaton shares, built by the
        # first one (``engine._Dispatch``)
        object.__setattr__(self, "_dispatch", None)
        if initial not in self.states:
            raise ValueError("initial state unknown")
        if not self.finals <= self.states:
            raise ValueError("final state unknown")

    def out(self, state: State) -> tuple[Transition, ...]:
        return tuple(self._out.get(state, ()))

    def size(self) -> int:
        total = len(self.states)
        for tr in self.delta:
            total += guard_size(tr.guard) + _pred_size(tr.pred) + len(tr.label) + len(tr.resets)
        return total

    def no_transition_into_initial(self) -> bool:
        return all(tr.target != self.initial for tr in self.delta)

    def resets_before_checks(self) -> bool:
        """Every clock is reset before it is first checked, on every path."""
        return not exposed_clocks(self.delta).get(self.initial)


def exposed_clocks(delta: Sequence[Transition]) -> dict[State, set[str]]:
    """Per source state, the clocks that some path from it checks before
    resetting them (a state with none may be missing)."""
    exposed: dict[State, set[str]] = {}
    changed = True
    while changed:
        changed = False
        for tr in delta:
            want = guard_clocks(tr.guard) | (exposed.get(tr.target, set()) - tr.resets)
            have = exposed.setdefault(tr.source, set())
            if not want <= have:
                have |= want
                changed = True
    return exposed


def reachable(initial: State, delta: Iterable[Transition]) -> set[State]:
    """The states that some path of transitions leads to from ``initial``."""
    out: dict[State, list[State]] = {}
    for tr in delta:
        out.setdefault(tr.source, []).append(tr.target)
    seen = {initial}
    frontier = [initial]
    while frontier:
        for q in out.get(frontier.pop(), ()):
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def _pred_size(pred: Predicate) -> int:
    if isinstance(pred, model.And):
        return _pred_size(pred.left) + _pred_size(pred.right)
    if isinstance(pred, model.Not):
        return _pred_size(pred.body)
    return 1


# ---------------------------------------------------------------------------
# Single-step semantics and the run oracle
# ---------------------------------------------------------------------------


def advance(nu: ClockValuation, dt: Fraction) -> dict[str, Fraction]:
    return {z: v + dt for z, v in nu.items()}


def reset(nu: ClockValuation, clocks: Iterable[str]) -> dict[str, Fraction]:
    out = dict(nu)
    for z in clocks:
        out[z] = Fraction(0)
    return out


def step(
    config: tuple[State, ClockValuation],
    timed_event: tuple[Event, Fraction],
    dt: Fraction,
    cea: TimedCea,
) -> set[tuple[State, tuple[tuple[str, Fraction], ...], frozenset[str]]]:
    """All successor configurations for one event; valuations are returned as
    sorted item tuples so results are hashable."""
    state, nu = config
    event, _ = timed_event
    advanced = advance(nu, dt)
    successors = set()
    for tr in cea.out(state):
        if not model.sat(event, tr.pred):
            continue
        if not guard_sat(advanced, tr.guard):
            continue
        nxt = reset(advanced, tr.resets)
        successors.add((tr.target, tuple(sorted(nxt.items())), tr.label))
    return successors


DEFAULT_CEA_CAP = 14


class CeaCapExceeded(Exception):
    pass


def eval_cea_oracle(
    cea: TimedCea, stream: TimedStream, cap: int = DEFAULT_CEA_CAP
) -> frozenset[ComplexEvent]:
    """All outputs of accepting runs from every start position, by exhaustive
    depth-first enumeration."""
    if len(stream) > cap:
        raise CeaCapExceeded(f"stream length {len(stream)} exceeds cap {cap}")
    results: set[ComplexEvent] = set()
    n = len(stream)
    for start in range(1, n + 1):
        stack: list[tuple[int, State, tuple[tuple[str, Fraction], ...], tuple]] = [
            (start, cea.initial, (), ())
        ]
        while stack:
            pos, state, nu_items, labels = stack.pop()
            if pos > n:
                continue
            event, t = stream[pos]
            dt = stream.delta(pos)
            for nxt_state, nxt_nu, label in step(
                (state, dict(nu_items)), (event, t), dt, cea
            ):
                nxt_labels = labels + ((pos, label),)
                if nxt_state in cea.finals:
                    results.add(_run_output(start, pos, nxt_labels))
                stack.append((pos + 1, nxt_state, nxt_nu, nxt_labels))
    return frozenset(results)


def _run_output(start: int, end: int, labels: tuple) -> ComplexEvent:
    binding: dict[str, set[int]] = {}
    for pos, label in labels:
        for var in label:
            binding.setdefault(var, set()).add(pos)
    return ComplexEvent.make(start, end, binding)


# ---------------------------------------------------------------------------
# Structural classifiers
# ---------------------------------------------------------------------------


def compatible_pairs(
    trs: Sequence[Transition], pairs: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The index pairs among ``pairs`` of same-labeled transitions whose
    predicates one event satisfies together, decided on ``model.event_cells``."""
    same = [(i, j) for i, j in pairs if trs[i].label == trs[j].label]
    meet: set[tuple[int, int]] = set()
    if same:
        for cell in model.event_cells([tr.pred for tr in trs]):
            held = [i for i, b in enumerate(cell) if b]
            meet.update((i, j) for i in held for j in held)
    return [pair for pair in same if pair in meet]


def deterministic_violations(cea: TimedCea) -> list[tuple[Transition, Transition]]:
    """Pairs of simultaneously fireable same-label transitions."""
    violations = []
    for state in cea.states:
        out = cea.out(state)
        for i, j in compatible_pairs(out, itertools.combinations(range(len(out)), 2)):
            if guard_satisfiable(gand(out[i].guard, out[j].guard)):
                violations.append((out[i], out[j]))
    return violations


def is_deterministic(cea: TimedCea) -> bool:
    return not deterministic_violations(cea)


def _conj_atoms(gamma: ClockCondition) -> Optional[list[Cmp]]:
    """Atoms of a pure conjunction, or None if the guard is not one."""
    if isinstance(gamma, GTrue):
        return []
    if isinstance(gamma, Cmp):
        return [gamma]
    if isinstance(gamma, GAnd):
        left = _conj_atoms(gamma.left)
        right = _conj_atoms(gamma.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def is_monotonic(cea: TimedCea) -> str:
    """'le' if every guard is a conjunction of z ≤ c atoms, 'ge' dually,
    'no' otherwise.  All-true guards report 'le' by convention."""
    ops: set[str] = set()
    for tr in cea.delta:
        atoms = _conj_atoms(tr.guard)
        if atoms is None:
            return "no"
        for atom in atoms:
            ops.add(atom.op)
    if ops <= {"<="}:
        return "le"
    if ops <= {">="}:
        return "ge"
    return "no"


# ---------------------------------------------------------------------------
# Serialization (JSON-friendly dicts)
# ---------------------------------------------------------------------------


def _state_key(state: State) -> str:
    if isinstance(state, (int, str)):
        return str(state)
    return repr(state)


def pred_to_json(pred: Predicate):
    if isinstance(pred, model.TrueP):
        return {"kind": "true"}
    if isinstance(pred, model.TypeIs):
        return {"kind": "type", "etype": pred.etype}
    if isinstance(pred, model.Basic):
        value = pred.value
        if isinstance(value, Fraction):
            value = {"rat": f"{value.numerator}/{value.denominator}"}
        return {"kind": "basic", "attr": pred.attr, "op": pred.op, "value": value}
    if isinstance(pred, model.And):
        return {"kind": "and", "left": pred_to_json(pred.left), "right": pred_to_json(pred.right)}
    if isinstance(pred, model.Not):
        return {"kind": "not", "body": pred_to_json(pred.body)}
    raise TypeError(f"not a predicate: {pred!r}")


def pred_from_json(doc, where: str, depth: int = 0) -> Predicate:
    if depth > MAX_QUERY_DEPTH:
        raise AutomatonFormatError(f"{where}: nested deeper than {MAX_QUERY_DEPTH}")
    kind = _field(doc, "kind", str, where)
    if kind == "true":
        return model.TrueP()
    if kind == "type":
        return model.TypeIs(_field(doc, "etype", str, where))
    if kind == "basic":
        value = _field(doc, "value", (str, int, dict), where)
        if isinstance(value, dict):
            value = model.rat(_field(value, "rat", str, f"{where}.value"))
        return model.Basic(_field(doc, "attr", str, where), _field(doc, "op", str, where), value)
    if kind == "and":
        return model.And(
            pred_from_json(doc.get("left"), where, depth + 1),
            pred_from_json(doc.get("right"), where, depth + 1),
        )
    if kind == "not":
        return model.Not(pred_from_json(doc.get("body"), where, depth + 1))
    raise AutomatonFormatError(f"{where}: unknown predicate kind {kind!r}")


def guard_to_json(gamma: ClockCondition):
    if isinstance(gamma, GTrue):
        return {"kind": "true"}
    if isinstance(gamma, GFalse):
        return {"kind": "false"}
    if isinstance(gamma, Cmp):
        return {
            "kind": "cmp",
            "clock": gamma.clock,
            "op": gamma.op,
            "constant": f"{gamma.constant.numerator}/{gamma.constant.denominator}",
        }
    tag = "and" if isinstance(gamma, GAnd) else "or"
    return {"kind": tag, "left": guard_to_json(gamma.left), "right": guard_to_json(gamma.right)}


def guard_from_json(doc, where: str, depth: int = 0) -> ClockCondition:
    if depth > MAX_QUERY_DEPTH:
        raise AutomatonFormatError(f"{where}: nested deeper than {MAX_QUERY_DEPTH}")
    kind = _field(doc, "kind", str, where)
    if kind == "true":
        return GTrue()
    if kind == "false":
        return GFalse()
    if kind == "cmp":
        constant = model.rat(_field(doc, "constant", str, where))
        return Cmp(_field(doc, "clock", str, where), _field(doc, "op", str, where), constant)
    if kind in ("and", "or"):
        ctor = GAnd if kind == "and" else GOr
        return ctor(
            guard_from_json(doc.get("left"), where, depth + 1),
            guard_from_json(doc.get("right"), where, depth + 1),
        )
    raise AutomatonFormatError(f"{where}: unknown guard kind {kind!r}")


def cea_to_json(cea: TimedCea) -> dict:
    states = sorted(cea.states, key=_state_key)
    index = {q: i for i, q in enumerate(states)}
    return {
        "states": [_state_key(q) for q in states],
        "vars": sorted(cea.vars),
        "clocks": sorted(cea.clocks),
        "initial": index[cea.initial],
        "finals": sorted(index[q] for q in cea.finals),
        "transitions": [
            {
                "source": index[tr.source],
                "pred": pred_to_json(tr.pred),
                "guard": guard_to_json(tr.guard),
                "label": sorted(tr.label),
                "resets": sorted(tr.resets),
                "target": index[tr.target],
            }
            for tr in cea.delta
        ],
    }


class AutomatonFormatError(Exception):
    """A document that does not describe a ``TimedCea``; names the field."""


def _field(doc, key: str, kinds, where: str):
    """``doc[key]``, refused unless it is one of ``kinds`` and not a bool."""
    if not isinstance(doc, dict):
        raise AutomatonFormatError(f"{where}: expected an object")
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise AutomatonFormatError(f"{where}.{key}: missing or of the wrong type")
    return value


def _items(doc, key: str, kind, where: str) -> list:
    items = _field(doc, key, list, where)
    if any(isinstance(x, bool) or not isinstance(x, kind) for x in items):
        raise AutomatonFormatError(f"{where}.{key}: expected a list of {kind.__name__}")
    return items


def cea_from_json(doc) -> TimedCea:
    """The automaton ``cea_to_json`` wrote; raises ``AutomatonFormatError``,
    naming the field, for a document that does not describe one."""
    n = len(_items(doc, "states", str, "automaton"))
    var_names = frozenset(_items(doc, "vars", str, "automaton"))
    clocks = frozenset(_items(doc, "clocks", str, "automaton"))
    delta = []
    for i, tr in enumerate(_items(doc, "transitions", dict, "automaton")):
        where = f"transitions[{i}]"
        try:
            transition = Transition(
                _field(tr, "source", int, where),
                pred_from_json(tr.get("pred"), f"{where}.pred"),
                guard_from_json(tr.get("guard"), f"{where}.guard"),
                frozenset(_items(tr, "label", str, where)),
                frozenset(_items(tr, "resets", str, where)),
                _field(tr, "target", int, where),
            )
        except ValueError as exc:
            raise AutomatonFormatError(f"{where}: {exc}") from exc
        if not transition.label <= var_names:
            raise AutomatonFormatError(f"{where}.label: unknown variable")
        if not transition.resets | guard_clocks(transition.guard) <= clocks:
            raise AutomatonFormatError(f"{where}: unknown clock")
        delta.append(transition)
    try:
        return TimedCea(
            states=frozenset(range(n)),
            vars=var_names,
            clocks=clocks,
            delta=tuple(delta),
            initial=_field(doc, "initial", int, "automaton"),
            finals=frozenset(_items(doc, "finals", int, "automaton")),
        )
    except ValueError as exc:
        raise AutomatonFormatError(f"automaton: {exc}") from exc
