"""Seeded random generators for differential testing.

Formulas and streams are drawn small enough for the brute-force reference
evaluators.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import cel
from .model import Basic, Event, Interval, TimedStream, TrueP

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


# What ``random_formula`` draws, in order: four operators by name, and those
# over subformulas and an interval as ``(class, subformulas, timed)``.
OPERATORS = (
    "event", "as", "filter",
    (cel.Or, 2, False), (cel.And, 2, False), (cel.Seq, 2, False), (cel.ContigSeq, 2, False),
    (cel.Plus, 1, False), (cel.ContigPlus, 1, False),
    "project",
    (cel.Within, 1, True), (cel.TimedSeq, 2, True), (cel.TimedContigSeq, 2, True),
    (cel.TimedIter, 1, True), (cel.TimedContigIter, 1, True),
)


def random_formula(rng: random.Random, depth: int) -> cel.CelFormula:
    if depth <= 0:
        return cel.EventType(rng.choice(TYPES))
    op = rng.choice(OPERATORS)
    if op == "event":
        return cel.EventType(rng.choice(TYPES))
    if op == "as":
        return cel.As(random_formula(rng, depth - 1), rng.choice(("U", "V")))
    if op == "filter":
        body = random_formula(rng, depth - 1)
        return cel.Filter(body, rng.choice(sorted(cel.formula_vars(body))), random_pred(rng))
    if op == "project":
        body = random_formula(rng, depth - 1)
        vars_ = sorted(cel.formula_vars(body))
        keep = frozenset(v for v in vars_ if rng.random() < 0.6)
        return cel.Project(keep, body)
    cls, subformulas, timed = op
    args = [random_formula(rng, depth - 1)]
    if timed:
        args.append(random_interval(rng))
    if subformulas == 2:
        args.append(random_formula(rng, depth - 1))
    return cls(*args)


def random_stream(rng: random.Random, n: int) -> TimedStream:
    events = []
    t = Fraction(0)
    for _ in range(n):
        t += Fraction(rng.randint(1, 8), 4)
        events.append(
            (Event(rng.choice(TYPES), {ATTR: rng.randint(0, 4)}), t)
        )
    return TimedStream(events)
