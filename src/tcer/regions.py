"""Deciding whether an automaton has synchronous resets, via clock regions.

Two same-labeled runs can only disagree on resets if a reachable pair of
control states admits, in some common clock region, a pair of transitions
that the same event can take but whose reset sets differ.  We therefore
explore configurations (p, p', R) by breadth-first search, where R is the
region both runs share: as long as no violation has occurred, the two runs
have performed identical resets at identical times, so their valuations
coincide.  Constants are rescaled to integers first so the standard
region construction applies.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .cea import Cmp, ClockCondition, GAnd, GFalse, GTrue, TimedCea, Transition, guard_clocks, guard_constants
from .model import preds_intersect

DEFAULT_SYNC_CAP = 1_000_000

_TOP = -1  # marker: clock value exceeds its largest constant


@dataclass(frozen=True)
class Region:
    """A clock region over the initialized clocks.

    ``ints`` maps each initialized clock to its integer part, or ``_TOP``
    once it exceeds the clock's largest constant.  ``zero`` and ``groups``
    order the bounded clocks by fractional part: ``zero`` holds those with
    fraction exactly 0, ``groups`` the rest in increasing fraction order.
    """

    ints: tuple[tuple[str, int], ...]
    zero: frozenset[str]
    groups: tuple[frozenset[str], ...]

    def int_of(self, clock: str) -> Optional[int]:
        for z, k in self.ints:
            if z == clock:
                return k
        return None


def _mk_region(ints: dict[str, int], zero: set[str], groups: list[frozenset[str]]) -> Region:
    return Region(
        ints=tuple(sorted(ints.items())),
        zero=frozenset(zero),
        groups=tuple(g for g in groups if g),
    )


EMPTY_REGION = _mk_region({}, set(), [])


def region_successor(region: Region, ceilings: dict[str, int]) -> Region:
    """The immediate time successor, or the region itself if time-invariant."""
    ints = dict(region.ints)
    bounded = [z for z, k in ints.items() if k != _TOP]
    if not bounded:
        return region
    if region.zero:
        # clocks at an integer value start a positive fraction (or go above
        # their ceiling if they were exactly on it)
        moved, topped = set(), set()
        for z in region.zero:
            if ints[z] == ceilings[z]:
                topped.add(z)
            else:
                moved.add(z)
        for z in topped:
            ints[z] = _TOP
        groups = [frozenset(moved)] + list(region.groups)
        return _mk_region(ints, set(), groups)
    # the largest-fraction group reaches the next integer
    last = region.groups[-1]
    for z in last:
        ints[z] = ints[z] + 1
    return _mk_region(ints, set(last), list(region.groups[:-1]))


def time_successors(region: Region, ceilings: dict[str, int]) -> list[Region]:
    """All regions reachable by letting a strictly positive delay elapse."""
    out: list[Region] = []
    seen: set[Region] = set()
    cur = region
    if not region.zero:
        out.append(region)
        seen.add(region)
    while True:
        nxt = region_successor(cur, ceilings)
        if nxt in seen or nxt == cur:
            if nxt not in seen:
                out.append(nxt)
            return out
        out.append(nxt)
        seen.add(nxt)
        cur = nxt


def reset_region(region: Region, clocks: frozenset[str]) -> Region:
    if not clocks:
        return region
    ints = dict(region.ints)
    for z in clocks:
        ints[z] = 0
    zero = set(region.zero) | set(clocks)
    groups = [g - clocks for g in region.groups]
    return _mk_region(ints, zero, groups)


def _atom_holds(region: Region, clock: str, op: str, c: int) -> bool:
    k = region.int_of(clock)
    if k is None:
        return False  # uninitialized clock satisfies no comparison
    if k == _TOP:
        return op in (">", ">=")
    frac_zero = clock in region.zero
    if op == "=":
        return k == c and frac_zero
    if op == "<":
        return k < c
    if op == "<=":
        return k < c or (k == c and frac_zero)
    if op == ">":
        return k > c or (k == c and not frac_zero)
    if op == ">=":
        return k >= c
    raise ValueError(op)


def guard_holds(region: Region, gamma: ClockCondition, scale: int) -> bool:
    """Whether every valuation in the region satisfies the (rescaled) guard.

    Regions refine guard atoms, so this is also "some valuation satisfies".
    All clocks the guard mentions must be initialized in the region.
    """
    if not all(region.int_of(z) is not None for z in guard_clocks(gamma)):
        return False
    return _holds(region, gamma, scale)


def _holds(region: Region, gamma: ClockCondition, scale: int) -> bool:
    if isinstance(gamma, GTrue):
        return True
    if isinstance(gamma, GFalse):
        return False
    if isinstance(gamma, Cmp):
        c = gamma.constant * scale
        assert c.denominator == 1
        return _atom_holds(region, gamma.clock, gamma.op, int(c))
    if isinstance(gamma, GAnd):
        return _holds(region, gamma.left, scale) and _holds(region, gamma.right, scale)
    return _holds(region, gamma.left, scale) or _holds(region, gamma.right, scale)


def _scale_and_ceilings(cea: TimedCea) -> tuple[int, dict[str, int]]:
    constants = [
        (z, c)
        for tr in cea.delta
        for z, cs in guard_constants(tr.guard).items()
        for c in cs
    ]
    scale = math.lcm(1, *(c.denominator for _, c in constants))
    ceilings = {z: 0 for z in cea.clocks}
    for z, c in constants:
        ceilings[z] = max(ceilings.get(z, 0), int(c * scale))
    return scale, ceilings


@dataclass
class SyncResult:
    verdict: str  # "yes" | "no" | "unknown"
    witness: Optional[tuple[list[Transition], list[Transition]]] = None
    explored: int = 0

    @property
    def is_sync(self) -> bool:
        return self.verdict == "yes"


def check_sync(cea: TimedCea, cap: int = DEFAULT_SYNC_CAP) -> SyncResult:
    """Decide synchronous resets by searching paired same-labeled runs.

    Returns ``yes``, ``no`` with a witness pair of transition sequences, or
    ``unknown`` if more than ``cap`` configurations would be explored.
    """
    scale, ceilings = _scale_and_ceilings(cea)
    start = (cea.initial, cea.initial, EMPTY_REGION)
    seen = {start}
    parents: dict[tuple, tuple[tuple, Transition, Transition]] = {}
    queue = deque([start])
    explored = 0
    while queue:
        config = queue.popleft()
        explored += 1
        if explored > cap:
            return SyncResult("unknown", explored=explored)
        p1, p2, region = config
        out1 = cea.out(p1)
        out2 = cea.out(p2)
        if not out1 or not out2:
            continue
        for succ in time_successors(region, ceilings):
            for t1 in out1:
                if not guard_holds(succ, t1.guard, scale):
                    continue
                for t2 in out2:
                    if t1.label != t2.label:
                        continue
                    if not preds_intersect(t1.pred, t2.pred):
                        continue
                    if not guard_holds(succ, t2.guard, scale):
                        continue
                    if t1.resets != t2.resets:
                        return SyncResult(
                            "no", witness=_witness(parents, config, t1, t2), explored=explored
                        )
                    nxt = (t1.target, t2.target, reset_region(succ, t1.resets))
                    if nxt not in seen:
                        seen.add(nxt)
                        parents[nxt] = (config, t1, t2)
                        queue.append(nxt)
    return SyncResult("yes", explored=explored)


def _witness(parents, config, t1: Transition, t2: Transition):
    run1 = [t1]
    run2 = [t2]
    while config in parents:
        config, u1, u2 = parents[config]
        run1.append(u1)
        run2.append(u2)
    run1.reverse()
    run2.reverse()
    return run1, run2
