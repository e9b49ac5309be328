"""Seeded random generators for differential testing.

Formulas, streams, and automata are drawn small enough for the brute-force
reference evaluators; automata generators target specific classes
(synchronous resets by construction, deterministic monotonic single-clock).
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import cel
from .cea import Cmp, GTrue, TimedCea, Transition
from .model import Basic, Event, Interval, TimedStream, TrueP, TypeIs

TYPES = ("A", "B", "C")
ATTR = "x"


def random_interval(rng: random.Random) -> Interval:
    low = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
    if rng.random() < 0.25:
        return Interval(low=low, high=None, low_closed=rng.random() < 0.8)
    high = low + rng.choice([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
    if high == low:
        return Interval(low=low, high=high)
    return Interval(
        low=low, high=high, low_closed=rng.random() < 0.8, high_closed=rng.random() < 0.8
    )


def random_pred(rng: random.Random):
    if rng.random() < 0.3:
        return TrueP()
    return Basic(ATTR, rng.choice(["<", "<=", ">", ">=", "==", "!="]), rng.randint(0, 4))


def random_formula(rng: random.Random, depth: int) -> cel.CelFormula:
    if depth <= 0:
        return cel.EventType(rng.choice(TYPES))
    ops = [
        "event", "as", "filter", "or", "and", "seq", "cseq", "plus", "cplus",
        "project", "within", "tseq", "tcseq", "titer", "tciter",
    ]
    op = rng.choice(ops)
    if op == "event":
        return cel.EventType(rng.choice(TYPES))
    if op == "as":
        return cel.As(random_formula(rng, depth - 1), rng.choice(("U", "V")))
    if op == "filter":
        body = random_formula(rng, depth - 1)
        vars_ = sorted(cel.formula_vars(body))
        if not vars_:
            return body
        return cel.Filter(body, rng.choice(vars_), random_pred(rng))
    if op == "or":
        return cel.Or(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if op == "and":
        return cel.And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if op == "seq":
        return cel.Seq(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if op == "cseq":
        return cel.ContigSeq(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if op == "plus":
        return cel.Plus(random_formula(rng, depth - 1))
    if op == "cplus":
        return cel.ContigPlus(random_formula(rng, depth - 1))
    if op == "project":
        body = random_formula(rng, depth - 1)
        vars_ = sorted(cel.formula_vars(body))
        keep = frozenset(v for v in vars_ if rng.random() < 0.6)
        return cel.Project(keep, body)
    if op == "within":
        return cel.Within(random_formula(rng, depth - 1), random_interval(rng))
    if op == "tseq":
        return cel.TimedSeq(
            random_formula(rng, depth - 1), random_interval(rng), random_formula(rng, depth - 1)
        )
    if op == "tcseq":
        return cel.TimedContigSeq(
            random_formula(rng, depth - 1), random_interval(rng), random_formula(rng, depth - 1)
        )
    if op == "titer":
        return cel.TimedIter(random_formula(rng, depth - 1), random_interval(rng))
    return cel.TimedContigIter(random_formula(rng, depth - 1), random_interval(rng))


def random_stream(rng: random.Random, n: int) -> TimedStream:
    events = []
    t = Fraction(0)
    for _ in range(n):
        t += Fraction(rng.randint(1, 8), 4)
        events.append(
            (Event(rng.choice(TYPES), {ATTR: rng.randint(0, 4)}), t)
        )
    return TimedStream(events)


def random_sync_cea(rng: random.Random, n_states: int = 4, n_clocks: int = 2) -> TimedCea:
    """Synchronous resets hold by construction: the reset set is a function
    of the transition label."""
    states = frozenset(range(n_states))
    clocks = tuple(f"z{i}" for i in range(n_clocks))
    labels = [frozenset(), frozenset({"X"}), frozenset({"X", "Y"})]
    label_resets = {
        lab: frozenset(z for z in clocks if rng.random() < 0.5) for lab in labels
    }
    guards = [GTrue()] + [
        Cmp(z, rng.choice(["<=", "<", ">=", ">"]), Fraction(rng.randint(0, 3)))
        for z in clocks
    ]
    delta = []
    for _ in range(rng.randint(3, 7)):
        lab = rng.choice(labels)
        delta.append(
            Transition(
                source=rng.randrange(n_states),
                pred=rng.choice([TypeIs(t) for t in TYPES] + [TrueP()]),
                guard=rng.choice(guards),
                label=lab,
                resets=label_resets[lab],
                target=rng.randrange(n_states),
            )
        )
    finals = frozenset(rng.sample(range(n_states), rng.randint(1, n_states)))
    return TimedCea(
        states=states,
        vars=frozenset({"X", "Y"}) | frozenset(TYPES),
        clocks=frozenset(clocks),
        delta=tuple(delta),
        initial=0,
        finals=finals,
    )


def random_streamable_cea(rng: random.Random, n_states: int = 4) -> TimedCea:
    """Deterministic (disjoint event types per state), monotonic, one clock,
    clock initialized on every run's first step, no way back to the start."""
    direction = rng.choice(["le", "ge"])
    op = "<=" if direction == "le" else ">="
    z = "z"
    labels = [frozenset(), frozenset({"X"}), frozenset({"Y"}), frozenset({"X", "Y"})]
    delta = []
    for source in range(n_states):
        out_types = rng.sample(TYPES, rng.randint(1, len(TYPES)))
        for etype in out_types:
            if rng.random() < 0.25:
                continue
            target = rng.randrange(1, n_states)
            guard = GTrue()
            if source != 0 and rng.random() < 0.6:
                guard = Cmp(z, op, Fraction(rng.randint(0, 6), 2))
            resets = frozenset({z}) if source == 0 or rng.random() < 0.3 else frozenset()
            delta.append(
                Transition(source, TypeIs(etype), guard, rng.choice(labels), resets, target)
            )
    finals = frozenset(rng.sample(range(1, n_states), rng.randint(1, n_states - 1)))
    return TimedCea(
        states=frozenset(range(n_states)),
        vars=frozenset({"X", "Y"}) | frozenset(TYPES),
        clocks=frozenset({z}),
        delta=tuple(delta),
        initial=0,
        finals=finals,
    )
