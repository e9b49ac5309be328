"""Deciding whether an automaton has synchronous resets, over zones.

Two same-labeled runs can only disagree on resets if, at a reachable pair of
control states and some clock valuation, one event can take two transitions
with different reset sets.  Until such a pair fires, the two runs have reset
the same clocks at the same times, so they share one valuation.  A
breadth-first search therefore explores configurations ``(p1, p2,
initialized clocks, zone)``, where the zone holds the valuations the two
runs can share at ``p1`` and ``p2``.

A zone is a difference-bound matrix (DBM, Bengtsson and Yi 2004) over the
reference clock 0, a delay clock 1 that every transition resets, and the
clocks that some guard checks.  A bound on ``x_i - x_j`` is the int
``2c + (1 if non-strict else 0)``, in units of ``1/scale``, which make every
guard constant an int.  Timestamps strictly increase, so time elapse is
``up`` followed by ``delay > 0``.  A clock that no reset has initialized
fails every guard that checks it, so it is kept free.

After each step the zone is widened by the classical ``Extra_M``, with ``M``
each clock's largest constant (0 for the delay clock).  Every guard is a
box, comparing one clock with constants up to ``M``, so it cannot tell
apart valuations that agree up to ``M``; the widening adds no sequence of
transitions (Behrmann, Bouyer, Larsen and Pelánek 2006).  So the search stays
exact, and the number of zones does not grow with the constants.

A zone is kept as a tuple, closed and canonical, and elapse, guard meet and
step are pure functions of it; so each is computed once per distinct zone in
one search, in memos that live for that search.  Which same-labeled
transitions one event can take together is decided once per pair of
predicates in one search, on ``model.event_cells`` over just the two
(``cea.compatible_pairs``).
"""

from __future__ import annotations

from collections import deque
from itertools import product

from .cea import TimedCea, Transition, compatible_pairs, constant_scale
from .model import to_units

DEFAULT_SYNC_CAP = 1_000_000

_INF = 1 << 62  # no bound; never added to another bound, and above every finite one
_LE0 = 1  # the bound (0, <=); a diagonal entry below it means an empty zone


def _add(a: int, b: int) -> int:
    """The sum of two finite bounds: strict unless both are non-strict."""
    return a + b - ((a | b) & 1)


def _box(guard, index: dict[str, int], scale: int):
    """A guard box as the bit mask of the clocks it checks and its DBM
    bounds ``(i, j, b)``, each ``x_i - x_j`` within ``b``."""
    mask, bounds = 0, []
    for z, (low, high, low_closed, high_closed) in guard:
        k = index[z]
        mask |= 1 << k
        low = to_units(low, scale)
        if low or not low_closed:
            bounds.append((0, k, -2 * low + low_closed))
        if high is not None:
            bounds.append((k, 0, 2 * to_units(high, scale) + high_closed))
    return mask, tuple(bounds)


def _close(zone: list[int], n: int, pivots) -> None:
    """Floyd-Warshall over the pivot clocks, in place: all of them for any
    zone, or the two ends of the one bound that changed in a closed one."""
    for k in pivots:
        row = zone[k * n : k * n + n]
        for p in range(0, n * n, n):
            pk = zone[p + k]
            if pk < _INF:
                for q, kq in enumerate(row):
                    if kq < _INF and (s := _add(pk, kq)) < zone[p + q]:
                        zone[p + q] = s


def _guarded(zone, n: int, bounds) -> tuple[int, ...] | None:
    """The closed zone met with a guard's bounds, as a closed copy, or None
    when no valuation is left."""
    zone = list(zone)
    for i, j, b in bounds:
        if b < zone[i * n + j]:
            if _add(zone[j * n + i], b) < _LE0:  # an infinite bound stays above 0
                return None
            zone[i * n + j] = b
            _close(zone, n, (i, j))
    return tuple(zone)


def _elapse(zone, n: int) -> tuple[int, ...]:
    """The valuations a strictly positive delay reaches from the zone: ``up``,
    then ``delay > 0``."""
    zone = list(zone)
    zone[n : n * n : n] = [_INF] * (n - 1)
    return _guarded(zone, n, [(0, 1, 0)])


def _limits(ceilings: list[int]) -> tuple[list[int], list[int]]:
    """Per DBM entry ``(i, j)``, the loosest bound ``Extra_M`` keeps,
    ``(M_i, <=)``, and the tightest, ``(-M_j, <)``, for ceilings ``M``."""
    return [2 * m + 1 for m in ceilings for _ in ceilings], [-2 * m for _ in ceilings for m in ceilings]


def _step(zone, n: int, resets: int, limits, init: int) -> tuple[int, ...]:
    """Reset the clocks in the bit mask ``resets``, free those outside the
    mask ``init``, and widen by ``Extra_M`` within ``limits``."""
    zone = list(zone)
    for k in range(1, n):
        if resets >> k & 1 or not init >> k & 1:
            zone[k * n : k * n + n] = zone[:n] if resets >> k & 1 else [_INF] * n
            zone[k::n] = zone[::n]
            zone[k * n + k] = _LE0
    widened = [_INF if b > hi else lo if b < lo else b for b, hi, lo in zip(zone, *limits)]
    if widened != zone:  # widening keeps the zone non-empty, but not closed
        _close(widened, n, range(n))
    return tuple(widened)


class _Memo(dict):
    """The results of a pure function, keyed by its argument tuple, each
    computed on first lookup."""

    def __init__(self, function):
        super().__init__()
        self.function = function

    def __missing__(self, args):
        self[args] = result = self.function(*args)
        return result


class SyncResult:
    def __init__(self, verdict: str, witness=None, explored: int = 0):
        self.verdict = verdict  # "yes" | "no" | "unknown"
        self.witness = witness  # on "no": two same-labeled runs, lists of transitions
        self.explored = explored


def check_sync(cea: TimedCea, cap: int = DEFAULT_SYNC_CAP) -> SyncResult:
    """Decide synchronous resets by searching paired same-labeled runs.

    Returns ``yes``, ``no`` with a witness pair of transition sequences, or
    ``unknown`` once more than ``cap`` zones would be explored, or at once
    when a scaled constant is so large that a bound could reach ``_INF``.
    """
    scale = constant_scale(cea)
    checked = sorted({z for tr in cea.delta for z, _ in tr.guard})
    index = {z: k for k, z in enumerate(checked, 2)}
    n = len(checked) + 2
    ceilings = [0] * n  # each clock's largest constant: the high end, else the low
    for tr in cea.delta:
        for z, iv in tr.guard:
            c = to_units(iv.low if iv.high is None else iv.high, scale)
            ceilings[index[z]] = max(ceilings[index[z]], c)
    if 4 * n * (max(ceilings) + 1) >= _INF:  # a finite bound could reach _INF
        return SyncResult("unknown")
    limits = _limits(ceilings)
    # each zone operation is pure, so it is computed once per distinct input
    elapse = _Memo(lambda zone: _elapse(zone, n))
    meet = _Memo(lambda zone, bounds: _guarded(zone, n, bounds))
    step = _Memo(lambda zone, resets, init: _step(zone, n, resets, limits, init))
    # the delay clock (bit 1) is always set, and reset by every transition
    start = _step([_LE0] * (n * n), n, 0, limits, 2)
    nodes = [(cea.initial, cea.initial, 2, start, None)]  # and each one's parent
    passed = {nodes[0][:3]: [start]}
    # per state pair, the transitions out of both (each once), the index pairs
    # (first out of p1, second out of p2) one event can take with the same
    # label, and each transition's clocks checked, bounds and clocks reset
    joint: dict[tuple, tuple[tuple[Transition, ...], list[tuple[int, int]], list]] = {}
    boxes: dict[int, tuple] = {}  # the last three, per transition
    compatible: dict = {}  # per predicate pair, whether one event satisfies both
    queue, explored = deque([0]), 0
    while queue:
        k = queue.popleft()
        explored += 1
        if explored > cap:
            return SyncResult("unknown", explored=explored)
        p1, p2, init, zone, _ = nodes[k]
        if (p1, p2) not in joint:
            out1 = cea.out(p1)
            trs = out1 if p1 == p2 else out1 + cea.out(p2)
            first = 0 if p1 == p2 else len(out1)
            pairs = compatible_pairs(trs, product(range(len(out1)), range(first, len(trs))), compatible)
            for tr in trs:
                if pairs and id(tr) not in boxes:
                    resets = sum(1 << index[z] for z in tr.resets if z in index)
                    boxes[id(tr)] = (*_box(tr.guard, index, scale), resets | 2)
            joint[p1, p2] = trs, pairs, [boxes.get(id(tr)) for tr in trs]
        trs, pairs, info = joint[p1, p2]
        if not pairs:
            continue
        elapsed = elapse[(zone,)]
        tight: dict[int, tuple[int, ...] | None] = {}  # each transition's guard, met once
        for i, j in pairs:
            for t in (i, j):
                if t not in tight:
                    mask, bounds, _ = info[t]
                    tight[t] = meet[elapsed, bounds] if mask & ~init == 0 else None
            if tight[i] is None or tight[j] is None:
                continue
            t1, t2 = trs[i], trs[j]
            _, bounds, resets = info[j]
            both = meet[tight[i], bounds]
            if both is None:
                continue
            if t1.resets != t2.resets:  # the witness: both runs, back to the start
                steps = [(t1, t2)]
                while nodes[k][4] is not None:
                    k, u1, u2 = nodes[k][4]
                    steps.append((u1, u2))
                run1, run2 = zip(*reversed(steps))
                return SyncResult("no", witness=(list(run1), list(run2)), explored=explored)
            reached = init | resets
            nxt = step[both, resets, reached]
            key = (t1.target, t2.target, reached)
            seen = passed.setdefault(key, [])
            if any(all(map(int.__le__, nxt, old)) for old in seen):
                continue  # subsumed by a zone already found
            seen.append(nxt)
            nodes.append((*key, nxt, (k, t1, t2)))
            queue.append(len(nodes) - 1)
    return SyncResult("yes", explored=explored)
