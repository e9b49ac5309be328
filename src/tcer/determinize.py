"""Subset-construction determinization for synchronous-reset automata.

Each source-state subset is split along two partitions: predicate cells
(which subset of the outgoing predicates the event satisfies, among those
``model.event_cells`` finds some event to give) and guard types (which
subset of the outgoing guards the valuation satisfies).  The
cell then has a unique set of matching transitions, so a unique target
subset and — thanks to synchronous resets — a unique reset set.

Cell guards are re-merged afterwards: cells equal in everything but the
guard are combined and their guard union simplified back to interval form,
so determinizing a monotonic automaton yields a monotonic automaton.  The
simplifier works on boxes (``cea.guard_boxes``), the disjuncts of a guard,
each mapping a clock to the ``model.Interval`` of its values: a box that
another covers is dropped, and two boxes that differ on one clock whose
intervals join into one are merged.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from .cea import (
    Box,
    Cmp,
    ClockCondition,
    FULL_INTERVAL,
    GAnd,
    GFalse,
    GOr,
    GTrue,
    TimedCea,
    Transition,
    gand,
    guard_boxes,
    guard_clocks,
    interval_atoms,
    reachable,
)
from .model import Not, event_cells, pred_and


class SyncResetViolation(Exception):
    """Raised when a determinization cell matches transitions with different
    reset sets; carries the offending pair as a witness."""

    def __init__(self, subset, pred, guard, label, t1: Transition, t2: Transition):
        self.subset = subset
        self.pred = pred
        self.guard = guard
        self.label = label
        self.pair = (t1, t2)
        super().__init__(
            f"conflicting resets {sorted(t1.resets)} vs {sorted(t2.resets)} "
            f"in cell at subset {subset}"
        )


def negate_guard(gamma: ClockCondition) -> ClockCondition:
    """Syntactic dual: complement over valuations covering the same clocks."""
    if isinstance(gamma, GTrue):
        return GFalse()
    if isinstance(gamma, GFalse):
        return GTrue()
    if isinstance(gamma, Cmp):
        if gamma.op == "=":
            return GOr(
                Cmp(gamma.clock, ">", gamma.constant), Cmp(gamma.clock, "<", gamma.constant)
            )
        flipped = {"<": ">=", "<=": ">", ">=": "<", ">": "<="}[gamma.op]
        return Cmp(gamma.clock, flipped, gamma.constant)
    if isinstance(gamma, GAnd):
        return GOr(negate_guard(gamma.left), negate_guard(gamma.right))
    return GAnd(negate_guard(gamma.left), negate_guard(gamma.right))


# ---------------------------------------------------------------------------
# Guard boxes (``cea.guard_boxes``): clock -> ``model.Interval``, used to
# simplify unions of cell guards
# ---------------------------------------------------------------------------


def _box_subsumes(outer: Box, inner: Box) -> bool:
    if not set(outer) <= set(inner):
        return False  # the outer box mentions a clock the inner does not
    return all(outer[z].covers(inner[z]) for z in outer)


def _try_merge_boxes(b1: Box, b2: Box) -> Optional[Box]:
    if set(b1) != set(b2):
        return None  # different mentioned clocks, different meaning
    differing = [z for z in b1 if b1[z] != b2[z]]
    if not differing:
        return dict(b1)
    if len(differing) > 1:
        return None
    z = differing[0]
    joined = b1[z].join(b2[z])
    if joined is None:
        return None
    merged = dict(b1)
    merged[z] = joined
    return merged


def simplify_boxes(boxes: list[Box]) -> list[Box]:
    work = [dict(b) for b in boxes]
    changed = True
    while changed:
        changed = False
        # drop subsumed boxes
        kept: list[Box] = []
        for b in work:
            if any(_box_subsumes(other, b) for other in kept):
                changed = True
                continue
            kept = [o for o in kept if not _box_subsumes(b, o)] + [b]
        work = kept
        for i in range(len(work)):
            merged = None
            for j in range(i + 1, len(work)):
                merged = _try_merge_boxes(work[i], work[j])
                if merged is not None:
                    work = [b for k, b in enumerate(work) if k not in (i, j)] + [merged]
                    changed = True
                    break
            if merged is not None:
                break
    return work


def boxes_to_guard(boxes: list[Box]) -> ClockCondition:
    if not boxes:
        return GFalse()
    disjuncts = []
    for box in boxes:
        atoms = []
        for z in sorted(box):
            # a padded box keeps mentioning its clock
            atoms.extend(interval_atoms(z, box[z]) or [Cmp(z, ">=", 0)])
        disjuncts.append(gand(*atoms))
    if any(isinstance(d, GTrue) for d in disjuncts):
        return GTrue()
    out = disjuncts[0]
    for d in disjuncts[1:]:
        out = GOr(out, d)
    return out


# ---------------------------------------------------------------------------
# Determinization
# ---------------------------------------------------------------------------


def split_disjunctions(cea: TimedCea) -> TimedCea:
    """One transition per disjunct of each guard (guards become conjunctive).

    Each disjunct is padded with trivial intervals for every clock the
    original guard mentions, so the whole-guard failure on an uninitialized
    clock is preserved across the split.
    """
    delta = []
    for tr in cea.delta:
        if isinstance(tr.guard, GTrue):
            delta.append(tr)
            continue
        mentioned = guard_clocks(tr.guard)
        boxes = []
        for box in guard_boxes(tr.guard):
            padded = dict(box)
            for z in mentioned:
                padded.setdefault(z, FULL_INTERVAL)
            boxes.append(padded)
        for box in simplify_boxes(boxes):
            guard = boxes_to_guard([box])
            delta.append(Transition(tr.source, tr.pred, guard, tr.label, tr.resets, tr.target))
    return TimedCea(cea.states, cea.vars, cea.clocks, tuple(delta), cea.initial, cea.finals)


def _prune_dead_transitions(delta: list[Transition], finals: frozenset) -> list[Transition]:
    """Drop guard disjuncts (and whole transitions) that can never accept.

    A clock only grows between resets, so a run entering a state with the
    clock already above every bound that some accepting continuation will
    check is dead.  ``bound[q, z]`` is the largest entry value of ``z`` at
    ``q`` that still admits acceptance: the least fixpoint of a max/min
    recursion over outgoing transitions, where final states and resets
    contribute infinity.  Complement cells from the subset construction
    produce such dead disjuncts (e.g. ``z > c`` loops past a hard deadline);
    removing them keeps guards monotonic without changing the semantics.
    """
    clocks = sorted(
        {z for tr in delta for z in set(tr.resets) | guard_clocks(tr.guard)}
    )
    if not clocks:
        return delta
    states = {tr.source for tr in delta} | {tr.target for tr in delta} | set(finals)
    out: dict[object, list[Transition]] = {}
    for tr in delta:
        out.setdefault(tr.source, []).append(tr)
    boxes_of = {id(tr): guard_boxes(tr.guard) for tr in delta}
    bound = {
        (q, z): (math.inf if q in finals else -math.inf) for q in states for z in clocks
    }
    changed = True
    while changed:
        changed = False
        for q in states:
            if q in finals:
                continue
            for z in clocks:
                best = -math.inf
                for tr in out.get(q, ()):
                    ub = -math.inf
                    for box in boxes_of[id(tr)]:
                        hi = box.get(z, FULL_INTERVAL).high
                        ub = math.inf if hi is None else max(ub, hi)
                        if ub == math.inf:
                            break
                    if z not in tr.resets:
                        ub = min(ub, bound[(tr.target, z)])
                    best = max(best, ub)
                if best > bound[(q, z)]:
                    bound[(q, z)] = best
                    changed = True
    pruned: list[Transition] = []
    for tr in delta:
        kept = []
        for box in boxes_of[id(tr)]:
            dead = False
            for z in clocks:
                iv = box.get(z, FULL_INTERVAL)
                limit = math.inf if z in tr.resets else bound[(tr.target, z)]
                if iv.low > limit or (iv.low == limit and not iv.low_closed):
                    dead = True
                    break
            if not dead:
                kept.append(box)
        if not kept:
            continue
        if len(kept) != len(boxes_of[id(tr)]):
            tr = Transition(
                tr.source, tr.pred, boxes_to_guard(kept), tr.label, tr.resets, tr.target
            )
        pruned.append(tr)
    return pruned


def determinize(cea: TimedCea) -> TimedCea:
    """Subset construction; requires synchronous resets (violations raise).

    Because resets are synchronous, the set of initialized clocks is a
    function of the path, so it is carried alongside the state subset.
    Transitions whose guard mentions an uninitialized clock can never fire
    and are dropped up front; the remaining guards then only see initialized
    clocks and can be complemented classically.
    """
    cea = split_disjunctions(cea)
    start = (frozenset((cea.initial,)), frozenset())
    seen = {start}
    worklist = [start]
    # cells that differ only in their guard are merged: their boxes are
    # collected per (source, predicate, label, resets, target)
    grouped: dict[tuple, list[Box]] = {}
    while worklist:
        source_key = worklist.pop()
        subset, dom = source_key
        out = [
            tr
            for q in subset
            for tr in cea.out(q)
            if guard_clocks(tr.guard) <= dom
        ]
        if not out:
            continue
        preds = _dedup([tr.pred for tr in out])
        guards = _dedup([tr.guard for tr in out if not isinstance(tr.guard, GTrue)])
        pred_index = {id(tr): preds.index(tr.pred) for tr in out}
        guard_index = {
            id(tr): (None if isinstance(tr.guard, GTrue) else guards.index(tr.guard))
            for tr in out
        }
        labels = _dedup([tr.label for tr in out])
        # the guard cells with a satisfiable guard, the same for every
        # predicate cell
        guard_cells = []
        for g_bits in itertools.product((True, False), repeat=len(guards)):
            alpha = gand(*(g if b else negate_guard(g) for g, b in zip(guards, g_bits)))
            boxes = guard_boxes(alpha)
            if boxes:
                guard_cells.append((g_bits, alpha, boxes))
        # the events' cells, in the order of the product (True, False)^k
        for s_bits in sorted(event_cells(preds), key=lambda b: [not x for x in b]):
            chosen = [p for p, b in zip(preds, s_bits) if b]
            if not chosen:
                continue  # no transition can match the all-complements cell
            p_s = pred_and(
                *chosen, *(Not(p) for p, b in zip(preds, s_bits) if not b)
            )
            for g_bits, alpha, boxes in guard_cells:
                for label in labels:
                    matching = [
                        tr
                        for tr in out
                        if tr.label == label
                        and s_bits[pred_index[id(tr)]]
                        and (guard_index[id(tr)] is None or g_bits[guard_index[id(tr)]])
                    ]
                    if not matching:
                        continue
                    resets = matching[0].resets
                    for tr in matching[1:]:
                        if tr.resets != resets:
                            raise SyncResetViolation(
                                subset, p_s, alpha, label, matching[0], tr
                            )
                    target_key = (
                        frozenset(tr.target for tr in matching),
                        dom | resets,
                    )
                    key = (source_key, p_s, label, resets, target_key)
                    grouped.setdefault(key, []).extend(boxes)
                    if target_key not in seen:
                        seen.add(target_key)
                        worklist.append(target_key)

    state_name = _name_states(seen)
    delta = []
    for key, boxes in grouped.items():
        source_key, p_s, label, resets, target_key = key
        # every mentioned clock is initialized here, so trivial intervals
        # can be dropped without changing the meaning; drop them again after
        # the last simplify, whose joins can rebuild [0, inf)
        boxes = simplify_boxes(_drop_trivial(simplify_boxes(boxes)))
        guard = boxes_to_guard(_drop_trivial(boxes))
        if isinstance(guard, GFalse):
            continue
        delta.append(
            Transition(
                state_name[source_key], p_s, guard, label, resets, state_name[target_key]
            )
        )
    finals = frozenset(state_name[s] for s in seen if s[0] & cea.finals)
    delta = _prune_dead_transitions(delta, finals)
    initial = state_name[start]
    live = reachable(initial, delta)
    delta = [tr for tr in delta if tr.source in live]
    clocks = frozenset(
        z for tr in delta for z in set(tr.resets) | guard_clocks(tr.guard)
    )
    return TimedCea(
        states=frozenset(live),
        vars=cea.vars,
        clocks=clocks or cea.clocks,
        delta=tuple(delta),
        initial=initial,
        finals=finals & live,
    )


def _drop_trivial(boxes: list[Box]) -> list[Box]:
    return [{z: iv for z, iv in box.items() if iv != FULL_INTERVAL} for box in boxes]


def _name_states(keys) -> dict[tuple, tuple]:
    """Readable state names: the sorted subset, with the initialized-clock
    set appended only when two keys share the same subset."""
    by_base: dict[tuple, list[tuple]] = {}
    for key in keys:
        base = tuple(sorted(key[0], key=repr))
        by_base.setdefault(base, []).append(key)
    names: dict[tuple, tuple] = {}
    for base, group in by_base.items():
        if len(group) == 1:
            names[group[0]] = base
        else:
            for key in group:
                names[key] = base + (tuple(sorted(key[1])),)
    return names


def _dedup(items: list) -> list:
    out = []
    for item in items:
        if item not in out:
            out.append(item)
    return out
