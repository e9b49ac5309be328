"""Subset-construction determinization for synchronous-reset automata.

Determinism is only required among same-labeled transitions
(``cea.deterministic_violations``), so each source-state subset's
transitions with one label are split along two partitions of their own:
predicate cells (which of the label's predicates the event satisfies,
among those ``model.event_cells`` finds some event to give) and guard
cells.  A guard cell is one numbered piece of ``[0, inf)`` per clock that
the label's guards check, cut at every end of their intervals on it
(``cea.guard_cuts``), so it lies inside or outside each guard and the
number of pieces per clock is linear in the guards.  ``cea.guard_types``
groups the cells by the guards that cover them.  A cell then has a unique
set of matching transitions, so a unique target subset and — thanks to
synchronous resets — a unique reset set.

The cells equal in everything but the guard are joined again by
``cea.join_cells`` on the label's cuts, one sweep per clock along runs of
consecutive pieces, and each box it leaves is one transition, so
determinizing a monotonic automaton yields a monotonic automaton.
"""

from __future__ import annotations

import math

from .cea import (
    FULL_INTERVAL,
    Guard,
    TimedCea,
    Transition,
    format_names,
    guard_clocks,
    guard_cuts,
    guard_types,
    join_cells,
    state_order,
    trim,
)
from .model import Not, Predicate, event_cells, pred_and


class SyncResetViolation(Exception):
    """Raised when a determinization cell matches transitions with different
    reset sets; carries the offending pair as a witness."""

    def __init__(self, subset, t1: Transition, t2: Transition):
        self.subset = subset
        self.pair = (t1, t2)
        super().__init__(
            f"conflicting resets {format_names(t1.resets)} vs {format_names(t2.resets)} on label "
            f"{format_names(t1.label)} at states {sorted(subset, key=state_order)}"
        )


# ---------------------------------------------------------------------------
# Determinization
# ---------------------------------------------------------------------------


def _prune_dead_transitions(delta: list[Transition], finals: frozenset) -> list[Transition]:
    """Drop the transitions that can never lead to acceptance.

    A clock only grows between resets, so a run entering a state with the
    clock already above every bound that some accepting continuation will
    check is dead.  ``bound[q, z]`` is the largest entry value of ``z`` at
    ``q`` that still admits acceptance: the least fixpoint of a max/min
    recursion over outgoing transitions, where final states and resets
    contribute infinity.  Complement cells from the subset construction
    produce such dead transitions (e.g. ``z > c`` loops past a hard
    deadline); removing them keeps guards monotonic without changing the
    semantics.
    """
    clocks = sorted({z for tr in delta for z in set(tr.resets) | guard_clocks(tr.guard)})
    states = {tr.source for tr in delta} | {tr.target for tr in delta} | set(finals)
    out: dict[object, list[Transition]] = {}
    for tr in delta:
        out.setdefault(tr.source, []).append(tr)
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
                    hi = dict(tr.guard).get(z, FULL_INTERVAL).high
                    ub = math.inf if hi is None else hi
                    if z not in tr.resets:
                        ub = min(ub, bound[(tr.target, z)])
                    best = max(best, ub)
                if best > bound[(q, z)]:
                    bound[(q, z)] = best
                    changed = True

    def dead(tr: Transition) -> bool:
        box = dict(tr.guard)
        for z in clocks:
            iv = box.get(z, FULL_INTERVAL)
            limit = math.inf if z in tr.resets else bound[(tr.target, z)]
            if iv.low > limit or (iv.low == limit and not iv.low_closed):
                return True
        return False

    return [tr for tr in delta if not dead(tr)]


def determinize(cea: TimedCea) -> TimedCea:
    """Subset construction; requires synchronous resets (violations raise).

    Because resets are synchronous, the set of initialized clocks is a
    function of the path, so it is carried alongside the state subset.
    Transitions whose guard checks an uninitialized clock can never fire
    and are dropped up front; the remaining guards then only see initialized
    clocks, so the guard cells need not tell set clocks from unset ones.
    """
    start = (frozenset((cea.initial,)), frozenset())
    seen = {start}
    worklist = [start]
    # cells that differ only in their guard are joined: they are collected
    # per (source, label, predicate cell, resets, target), with the cell's
    # predicate and the label's guard cuts
    grouped: dict[tuple, tuple[Predicate, list, list[tuple[int, ...]]]] = {}
    while worklist:
        source_key = worklist.pop()
        subset, dom = source_key
        by_label: dict[frozenset, list[Transition]] = {}
        for q in subset:
            for tr in cea.out(q):
                if guard_clocks(tr.guard) <= dom:
                    by_label.setdefault(tr.label, []).append(tr)
        for label, trs in by_label.items():
            preds = list(dict.fromkeys([tr.pred for tr in trs]))
            guards = list(dict.fromkeys([tr.guard for tr in trs]))
            pred_at = {p: i for i, p in enumerate(preds)}
            guard_bit = {g: 1 << i for i, g in enumerate(guards)}
            # the guard cells, by the guards that hold on them, in the order
            # of the product (True, False)^k; the same for every predicate cell
            cuts = guard_cuts(guards)
            groups = guard_types(cuts, len(guards))
            # the events' cells, in the order of the product (True, False)^k
            for s_bits in sorted(event_cells(preds), key=lambda b: [not x for x in b]):
                candidates = [(tr, guard_bit[tr.guard]) for tr in trs if s_bits[pred_at[tr.pred]]]
                if not candidates:
                    continue  # the all-complements cell
                p_s = pred_and(
                    *(p for p, b in zip(preds, s_bits) if b),
                    *(Not(p) for p, b in zip(preds, s_bits) if not b),
                )
                for mask, cells in groups:
                    matching = [tr for tr, bit in candidates if mask & bit]
                    if not matching:
                        continue
                    resets = matching[0].resets
                    for tr in matching[1:]:
                        if tr.resets != resets:
                            raise SyncResetViolation(subset, matching[0], tr)
                    target_key = (
                        frozenset(tr.target for tr in matching),
                        dom | resets,
                    )
                    # ``p_s`` is a function of the source, label and
                    # ``s_bits``, which are cheaper to hash
                    key = (source_key, label, s_bits, resets, target_key)
                    grouped.setdefault(key, (p_s, cuts, []))[2].extend(cells)
                    if target_key not in seen:
                        seen.add(target_key)
                        worklist.append(target_key)

    state_name = _name_states(seen)
    delta = []
    for (source_key, label, _, resets, target_key), (p_s, cuts, cells) in grouped.items():
        # every checked clock is initialized here, so trivial intervals can
        # be dropped without changing the meaning
        source, target = state_name[source_key], state_name[target_key]
        delta += [
            Transition(source, p_s, box, label, resets, target)
            for box in _drop_trivial(join_cells(cuts, cells))
        ]
    finals = frozenset(state_name[s] for s in seen if s[0] & cea.finals)
    initial = state_name[start]
    states, delta = trim(initial, _prune_dead_transitions(delta, finals), finals)
    clocks = {z for tr in delta for z in tr.resets | guard_clocks(tr.guard)}
    return TimedCea(states, cea.vars, clocks or cea.clocks, delta, initial, finals & states)


def _drop_trivial(boxes: list[Guard]) -> list[Guard]:
    return [tuple(pair for pair in box if pair[1] != FULL_INTERVAL) for box in boxes]


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
