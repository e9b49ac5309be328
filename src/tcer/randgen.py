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
