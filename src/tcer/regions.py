"""Deciding whether an automaton has synchronous resets, via clock regions.

Two same-labeled runs can only disagree on resets if a reachable pair of
control states admits, in some common clock region, a pair of transitions
that the same event can take but whose reset sets differ.  We therefore
explore configurations (p, p', R) by breadth-first search, where R is the
region both runs share: as long as no violation has occurred, the two runs
have performed identical resets at identical times, so their valuations
coincide.  Regions count clock values in units of ``1/scale``, where
``scale`` makes every guard constant an integer, so the standard region
construction applies.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from typing import Iterator, NamedTuple

from .cea import (
    TimedCea,
    Transition,
    compatible_pairs,
    constant_scale,
    guard_constants,
    guard_sat,
)

DEFAULT_SYNC_CAP = 1_000_000

_TOP = -1  # marker: clock value exceeds its largest constant


class Region(NamedTuple):
    """A clock region over the initialized clocks.

    ``ints`` maps each initialized clock to its integer part, or ``_TOP``
    once it exceeds the clock's largest constant.  ``zero`` and ``groups``
    order the bounded clocks by fractional part: ``zero`` holds those with
    fraction exactly 0, ``groups`` the rest in increasing fraction order.
    A tuple, because the search hashes and compares a region at every step.
    """

    ints: tuple[tuple[str, int], ...]
    zero: frozenset[str]
    groups: tuple[frozenset[str], ...]


def _mk_region(ints: dict[str, int], zero: set[str], groups: list[frozenset[str]]) -> Region:
    return Region(tuple(sorted(ints.items())), frozenset(zero), tuple(g for g in groups if g))


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


def time_successors(region: Region, ceilings: dict[str, int]) -> Iterator[Region]:
    """The regions reachable by letting a strictly positive delay elapse, in
    the order time reaches them; generated one at a time."""
    if not region.zero:
        yield region
    while True:
        nxt = region_successor(region, ceilings)
        if nxt == region:
            return
        yield nxt
        region = nxt


def reset_region(region: Region, clocks: frozenset[str]) -> Region:
    if not clocks:
        return region
    ints = dict(region.ints)
    for z in clocks:
        ints[z] = 0
    zero = set(region.zero) | set(clocks)
    groups = [g - clocks for g in region.groups]
    return _mk_region(ints, zero, groups)


def _sample(region: Region, scale: int) -> dict[str, Fraction | float]:
    """One valuation in the region, in the automaton's own units: each clock's
    integer part plus ``i/(m+1)`` for the i-th of ``m`` fraction groups,
    divided by ``scale``; infinity for a clock above its ceiling."""
    frac = {z: Fraction(0) for z in region.zero}
    for i, group in enumerate(region.groups, 1):
        for z in group:
            frac[z] = Fraction(i, len(region.groups) + 1)
    return {z: math.inf if k == _TOP else (k + frac[z]) / scale for z, k in region.ints}


def _scale_and_ceilings(cea: TimedCea) -> tuple[int, dict[str, int]]:
    constants = [
        (z, c)
        for tr in cea.delta
        for z, cs in guard_constants(tr.guard).items()
        for c in cs
    ]
    scale = constant_scale(cea)
    ceilings = {z: 0 for z in cea.clocks}
    for z, c in constants:
        ceilings[z] = max(ceilings.get(z, 0), int(c * scale))
    return scale, ceilings


class SyncResult:
    def __init__(self, verdict: str, witness=None, explored: int = 0):
        self.verdict = verdict  # "yes" | "no" | "unknown"
        self.witness = witness  # on "no": two same-labeled runs, lists of transitions
        self.explored = explored


def check_sync(cea: TimedCea, cap: int = DEFAULT_SYNC_CAP) -> SyncResult:
    """Decide synchronous resets by searching paired same-labeled runs.

    Returns ``yes``, ``no`` with a witness pair of transition sequences, or
    ``unknown`` once more than ``cap`` configurations would be explored or
    more than ``cap`` region steps taken.
    """
    scale, ceilings = _scale_and_ceilings(cea)
    start = (cea.initial, cea.initial, EMPTY_REGION)
    seen = {start}
    parents: dict[tuple, tuple[tuple, Transition, Transition]] = {}
    queue = deque([start])
    # per state pair, the transitions out of both (each once) and the index
    # pairs, first out of p1 and second out of p2, that one event can take
    # together with the same label
    joint: dict[tuple, tuple[tuple[Transition, ...], list[tuple[int, int]]]] = {}
    explored = steps = 0
    while queue:
        config = queue.popleft()
        explored += 1
        if explored > cap:
            return SyncResult("unknown", explored=explored)
        p1, p2, region = config
        if (p1, p2) not in joint:
            out1 = cea.out(p1)
            trs = out1 if p1 == p2 else out1 + cea.out(p2)
            first = 0 if p1 == p2 else len(out1)
            candidates = itertools.product(range(len(out1)), range(first, len(trs)))
            joint[p1, p2] = trs, compatible_pairs(trs, candidates)
        trs, pairs = joint[p1, p2]
        if not pairs:
            continue
        for succ in time_successors(region, ceilings):
            steps += 1
            if steps > cap:
                return SyncResult("unknown", explored=explored)
            nu = _sample(succ, scale)
            holds = [guard_sat(nu, tr.guard) for tr in trs]
            for i, j in pairs:
                if not (holds[i] and holds[j]):
                    continue
                t1, t2 = trs[i], trs[j]
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
