"""Clocked automata over event streams: guards, valuations, transitions, a
brute-force run-enumeration oracle, and structural classifiers.

A guard is a box: a tuple of ``(clock, model.Interval)`` pairs, one per
clock it checks, in the order the clocks were first checked.  The empty box
is true.  A clock that a box checks fails it while uninitialized, so a box
keeps a ``[0, inf)`` entry for a clock it checks but does not bound.  A
disjunction of guards is several transitions, made disjoint one way by
``determinize`` and the automaton loader alike: ``guard_cuts`` cuts each
clock's values into numbered pieces, a cell is one piece number per clock,
``guard_types`` groups the cells by the guards that cover them, and
``join_cells`` joins the kept cells back into boxes along runs of
consecutive pieces.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .model import (
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
# Guards
# ---------------------------------------------------------------------------

Guard = tuple  # ((clock, model.Interval), ...), at most one pair per clock

TRUE: Guard = ()

FULL_INTERVAL = Interval(Fraction(0), None)

ClockValuation = Mapping[str, Fraction]

def clock_guard(clock: str, op: str, constant) -> Optional[Guard]:
    """The box of ``clock op constant``; None when no clock value passes."""
    if op not in ("=", "<", "<=", ">=", ">"):
        raise ValueError(f"unknown clock comparator {op!r}")
    iv = Interval.of(op, model.rat(constant))
    return None if iv is None else ((clock, iv),)


def guard_meet(g: Guard, h: Guard) -> Optional[Guard]:
    """The box of both guards, with ``g``'s clocks first; None when empty."""
    if not g or not h:
        return g or h
    box = dict(g)
    for z, iv in h:
        if z in box:
            iv = box[z].meet(iv)
            if iv is None:
                return None
        box[z] = iv
    return tuple(box.items())


def guard_clocks(g: Guard) -> frozenset[str]:
    return frozenset([z for z, _ in g])


def guard_sat(nu: ClockValuation, g: Guard) -> bool:
    """A valuation passes a guard only if it initializes every clock the
    guard checks."""
    for z, iv in g:
        v = nu.get(z)
        if v is None or not iv.contains(v):
            return False
    return True


def _comparisons(iv: Interval) -> list[tuple[str, Fraction]]:
    """The comparisons saying that a clock lies in ``iv``: ``>= 0`` for
    ``[0, inf)``, which a box keeps to check that the clock is set."""
    low, high, low_closed, high_closed = iv
    if high is not None and low == high:
        return [("=", low)]
    out = []
    if low > 0 or not low_closed:
        out.append((">=" if low_closed else ">", low))
    if high is not None:
        out.append(("<=" if high_closed else "<", high))
    return out or [(">=", low)]


def guard_size(g: Guard) -> int:
    """Number of comparisons the guard is written with (true counts 1)."""
    return sum(len(_comparisons(iv)) for _, iv in g) or 1


def format_guard(g: Guard) -> str:
    if not g:
        return "true"
    return " and ".join(
        f"{z} {op} {format_rat(c)}" for z, iv in g for op, c in _comparisons(iv)
    )


def constant_scale(cea: TimedCea) -> int:
    """The lcm of the clock constants' denominators: the least positive
    int that turns every clock constant into an int when multiplied by it."""
    return math.lcm(
        1,
        *(iv.low.denominator for tr in cea.delta for _, iv in tr.guard),
        *(iv.high.denominator for tr in cea.delta for _, iv in tr.guard if iv.high is not None),
    )


# --- guard cells: the partition determinization splits valuations by ------


def guard_cuts(guards: Sequence[Guard]) -> list[tuple[str, list[tuple[Interval, int]]]]:
    """For each clock the guards check, in clock order, the clock and
    ``[0, inf)`` cut at every end of their intervals on it into numbered
    pieces ``(interval, mask)``, in order, the mask holding the guards that
    cover the piece (bit ``i`` for ``guards[i]``, set on every piece of a
    clock it does not check), and neighbouring pieces with one mask joined
    again.  A cell, one piece number per clock, lies inside or outside each
    guard, and the cells partition the valuations.  Before the join, an
    interval is a run of points ``ends[n]`` and the gaps after them, so its
    bit flips at the run's ends."""
    by_clock: dict[str, list[tuple[Interval, int]]] = {}
    for i, g in enumerate(guards):
        for z, iv in g:
            by_clock.setdefault(z, []).append((iv, 1 << i))
    cuts = []
    for z, ivs in sorted(by_clock.items()):
        ends = sorted({Fraction(0)} | {e for iv, _ in ivs for e in (iv.low, iv.high)} - {None})
        at = {e: 2 * n for n, e in enumerate(ends)}
        flips = [0] * (2 * len(ends) + 1)
        mask = (1 << len(guards)) - 1
        for iv, bit in ivs:
            mask ^= bit
            flips[at[iv.low] + (not iv.low_closed)] ^= bit
            flips[-1 if iv.high is None else at[iv.high] + iv.high_closed] ^= bit
        pieces: list[tuple[Interval, int]] = []
        for n, (a, b) in enumerate(zip(ends, ends[1:] + [None])):
            for j, ends_of_piece in enumerate([(a, a, True, True), (a, b, False, False)]):
                mask ^= flips[2 * n + j]
                piece = Interval._make(ends_of_piece)
                if pieces and pieces[-1][1] == mask:
                    piece = _span(pieces.pop()[0], piece)
                pieces.append((piece, mask))
        cuts.append((z, pieces))
    return cuts


def _span(first: Interval, last: Interval) -> Interval:
    """The union of the pieces of one cut from ``first`` to ``last``."""
    return Interval._make((first.low, last.high, first.low_closed, last.high_closed))


def guard_types(cuts: list, k: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """The cells of ``cuts``, the ``guard_cuts`` of ``k`` guards, grouped by
    the guards that cover them, each group with its mask (the meet of its
    pieces' masks), in the order of ``(True, False)^k`` over the guards: by
    the mask's bits from the first guard's on, set first.  A group's cells
    come in product order."""
    groups: dict[int, list[tuple[int, ...]]] = {}
    numbered = [list(enumerate(m for _, m in pieces)) for _, pieces in cuts]
    for cell in itertools.product(*numbered):
        mask = functools.reduce(int.__and__, [m for _, m in cell], (1 << k) - 1)
        groups.setdefault(mask, []).append(tuple([n for n, _ in cell]))
    return sorted(groups.items(), key=lambda group: f"{group[0]:0{k}b}"[::-1], reverse=True)


def join_cells(cuts: list, cells: Iterable[tuple[int, ...]]) -> list[Guard]:
    """The union of cells of ``cuts`` (``guard_cuts``) as disjoint boxes.
    One sweep per clock, in clock order, keys each box by its spans of piece
    numbers on the other clocks and joins its spans on that clock wherever
    they are consecutive: the pieces of a clock are disjoint and in order,
    so those are the spans whose union is one interval.  A later sweep
    cannot enable a join along an earlier clock, so no two boxes left join
    into one.  Each span becomes an interval once, at the end."""
    boxes = [tuple([(n, n) for n in cell]) for cell in cells]
    for j in range(len(cuts)):
        runs: dict[tuple, list[tuple[int, int]]] = {}
        for b in boxes:
            runs.setdefault(b[:j] + b[j + 1:], []).append(b[j])
        boxes = []
        for others, spans in runs.items():
            spans.sort()
            joined = spans[:1]
            for low, high in spans[1:]:
                if low == joined[-1][1] + 1:
                    joined[-1] = (joined[-1][0], high)
                else:
                    joined.append((low, high))
            boxes.extend(others[:j] + (span,) + others[j:] for span in joined)
    return [
        tuple([(z, _span(ps[low][0], ps[high][0])) for (z, ps), (low, high) in zip(cuts, box)])
        for box in boxes
    ]


# ---------------------------------------------------------------------------
# Transitions and automata
# ---------------------------------------------------------------------------

State = Union[int, str, tuple]


class Transition(Value):
    __slots__ = ("source", "pred", "guard", "label", "resets", "target")

    def __init__(
        self, source: State, pred: Predicate, guard: Guard,
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
        guard = format_guard(self.guard)
        return f"{self.source} --{self.pred}, {guard} / {lab}, {rst}--> {self.target}"


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
    trs: Sequence[Transition], pairs: Iterable[tuple[int, int]], memo: dict
) -> list[tuple[int, int]]:
    """The index pairs among ``pairs`` of same-labeled transitions whose
    predicates one event satisfies together.  Each pair of predicates is
    decided on its own ``model.event_cells`` once per ``memo``, a dict that
    numbers each predicate it has seen and keeps each pair of numbers'
    answer, so that a predicate is hashed once per call, not once per pair."""
    number = [memo.setdefault(tr.pred, len(memo)) for tr in trs]
    out = []
    for i, j in pairs:
        if trs[i].label == trs[j].label:
            key = number[i], number[j]
            both = memo.get(key)
            if both is None:
                both = memo[key] = (True, True) in model.event_cells((trs[i].pred, trs[j].pred))
            if both:
                out.append((i, j))
    return out


def deterministic_violations(cea: TimedCea) -> list[tuple[Transition, Transition]]:
    """Pairs of simultaneously fireable same-label transitions."""
    violations, memo = [], {}
    for state in cea.states:
        out = cea.out(state)
        for i, j in compatible_pairs(out, itertools.combinations(range(len(out)), 2), memo):
            if guard_meet(out[i].guard, out[j].guard) is not None:
                violations.append((out[i], out[j]))
    return violations


def is_deterministic(cea: TimedCea) -> bool:
    return not deterministic_violations(cea)


def is_monotonic(cea: TimedCea) -> str:
    """'ge' if every interval of every guard is ``[c, inf)``, else 'le' if
    every one is ``[0, c]`` or ``[0, inf)``, else 'no'.  All-true guards
    report 'le' by convention."""
    ivs = [iv for tr in cea.delta for _, iv in tr.guard]
    if ivs and all(iv.high is None and iv.low_closed for iv in ivs):
        return "ge"
    if all(iv.low == 0 and iv.low_closed and (iv.high is None or iv.high_closed) for iv in ivs):
        return "le"
    return "no"


# ---------------------------------------------------------------------------
# Serialization (JSON-friendly dicts)
# ---------------------------------------------------------------------------


def _state_key(state: State) -> str:
    if isinstance(state, (int, str)):
        return str(state)
    return repr(state)


def _state_order(state: State) -> tuple:
    """Tuple states first, then ints by value, then strings."""
    if isinstance(state, int):
        return 1, state
    return (2, state) if isinstance(state, str) else (0, repr(state))


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


def _and_json(left, right):
    return right if left is None else {"kind": "and", "left": left, "right": right}


def guard_to_json(g: Guard):
    """The box as a tree of ``cmp`` and ``and`` nodes: each clock's
    comparisons joined in order, and the clocks' trees joined in order."""
    tree = None
    for z, iv in g:
        sub = None
        for op, c in _comparisons(iv):
            constant = f"{c.numerator}/{c.denominator}"
            sub = _and_json(sub, {"kind": "cmp", "clock": z, "op": op, "constant": constant})
        tree = _and_json(tree, sub)
    return tree or {"kind": "true"}


# The boxes one guard of an automaton file may load as, and the entries the
# cells of a guard that is not a conjunction may hold: a piece per clock and
# a bit per atom of ``guard_types``
MAX_GUARD_BOXES = 16
MAX_GUARD_ENTRIES = 2**20


def guard_from_json(doc, where: str) -> tuple[list[Guard], frozenset[str]]:
    """The boxes of a ``true``/``false``/``cmp``/``and``/``or`` tree, one
    transition each, and the clocks it mentions: the meet of its comparisons
    for a conjunction (at most one box), else the tree decided once per type
    of cell (``guard_types``) of its comparisons and of ``[0, inf)`` on each
    mentioned clock, and the cells where it holds joined (``join_cells``).
    So the boxes are disjoint, and each checks every mentioned clock, in
    order of first mention: an unset clock fails the guard, even under
    ``or``."""
    leaves: dict[Guard, int] = {}
    clocks: dict[str, int] = {}
    tree = _guard_tree(doc, where, 0, leaves, clocks)
    for z in clocks:
        leaves.setdefault(((z, FULL_INTERVAL),), len(leaves))
    if _is_conjunction(tree):
        # it holds where all its comparisons do, unless it has a ``false``
        boxes = [TRUE] if _holds(tree, [1] * len(leaves), 1) else []
        for leaf in leaves:
            boxes = [m for b in boxes if (m := guard_meet(b, leaf)) is not None]
    else:
        cuts = guard_cuts(list(leaves))
        if math.prod(len(ps) for _, ps in cuts) * (len(clocks) + len(leaves)) > MAX_GUARD_ENTRIES:
            raise AutomatonFormatError(f"{where}: more than {MAX_GUARD_ENTRIES} cell entries")
        types = guard_types(cuts, len(leaves))
        # each comparison's set of types, bit ``t`` for ``types[t]``: the
        # columns of the types' masks written in binary, last type first,
        # under a leading 1 that keeps every row one wide
        rows = [f"{mask | 1 << len(leaves):b}" for mask, _ in reversed(types)]
        covers = [int("".join(column), 2) for column in list(zip(*rows))[:0:-1]]
        holds = f"{_holds(tree, covers, (1 << len(types)) - 1):0{len(types)}b}"[::-1]
        boxes = join_cells(cuts, [c for (_, cs), bit in zip(types, holds) if bit == "1" for c in cs])
        if len(boxes) > MAX_GUARD_BOXES:
            raise AutomatonFormatError(f"{where}: more than {MAX_GUARD_BOXES} boxes")
    return [tuple(sorted(b, key=lambda pair: clocks[pair[0]])) for b in boxes], frozenset(clocks)


def _guard_tree(doc, where: str, depth: int, leaves: dict, clocks: dict):
    """A checked guard tree: ``(kind, left, right)`` for ``and``/``or``, a
    bool for ``true``/``false``, and ``i`` for a comparison whose box is the
    ``i``-th of ``leaves`` (False when no value passes it); ``clocks``
    numbers the clocks the tree mentions in order of first mention."""
    if depth > MAX_QUERY_DEPTH:
        raise AutomatonFormatError(f"{where}: nested deeper than {MAX_QUERY_DEPTH}")
    kind = _field(doc, "kind", str, where)
    if kind in ("true", "false"):
        return kind == "true"
    if kind == "cmp":
        clock = _field(doc, "clock", str, where)
        constant = model.rat(_field(doc, "constant", str, where))
        g = clock_guard(clock, _field(doc, "op", str, where), constant)
        clocks.setdefault(clock, len(clocks))
        return False if g is None else leaves.setdefault(g, len(leaves))
    if kind not in ("and", "or"):
        raise AutomatonFormatError(f"{where}: unknown guard kind {kind!r}")
    left = _guard_tree(doc.get("left"), where, depth + 1, leaves, clocks)
    return kind, left, _guard_tree(doc.get("right"), where, depth + 1, leaves, clocks)


def _is_conjunction(tree) -> bool:
    return not isinstance(tree, tuple) or (
        tree[0] == "and" and _is_conjunction(tree[1]) and _is_conjunction(tree[2])
    )


def _holds(tree, covers: list[int], every: int) -> int:
    """The set of cells, as bits, where the tree holds, in one walk: given
    the set ``covers[i]`` of the ``i``-th comparison and the set ``every`` of
    all cells, ``and`` is ``&`` and ``or`` is ``|``."""
    if isinstance(tree, bool):
        return every if tree else 0
    if isinstance(tree, int):
        return covers[tree]
    kind, left, right = tree
    left, right = _holds(left, covers, every), _holds(right, covers, every)
    return left & right if kind == "and" else left | right


def cea_to_json(cea: TimedCea) -> dict:
    states = sorted(cea.states, key=_state_order)
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
    """The automaton ``cea_to_json`` wrote, or one whose guards use ``or``
    and ``false``, each guard split into one transition per box
    (``guard_from_json``); raises ``AutomatonFormatError``, naming the field,
    for a document that does not describe one."""
    n = len(_items(doc, "states", str, "automaton"))
    var_names = frozenset(_items(doc, "vars", str, "automaton"))
    clocks = frozenset(_items(doc, "clocks", str, "automaton"))
    delta = []
    for i, tr in enumerate(_items(doc, "transitions", dict, "automaton")):
        where = f"transitions[{i}]"
        try:
            source = _field(tr, "source", int, where)
            pred = pred_from_json(tr.get("pred"), f"{where}.pred")
            guards, checked = guard_from_json(tr.get("guard"), f"{where}.guard")
            label = frozenset(_items(tr, "label", str, where))
            resets = frozenset(_items(tr, "resets", str, where))
            target = _field(tr, "target", int, where)
        except ValueError as exc:
            raise AutomatonFormatError(f"{where}: {exc}") from exc
        if not label <= var_names:
            raise AutomatonFormatError(f"{where}.label: unknown variable")
        if not resets | checked <= clocks:
            raise AutomatonFormatError(f"{where}: unknown clock")
        delta.extend(Transition(source, pred, g, label, resets, target) for g in guards)
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
