"""Shared fixtures: the nine-event reference stream, two reference queries,
the hand-built single-clock automaton used across the suite, the
``temp > 40`` to ``temp >= 40`` rewrite that makes PHI1P match on s0, a
seeded stream generator for longer runs of a query, and two seeded automaton
generators: one with synchronous resets by construction, one streamable
(deterministic, monotonic, single-clock)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from tcer import cel
from tcer.cea import DEFAULT_CEA_CAP, TRUE, TimedCea, Transition, clock_guard, eval_cea_oracle
from tcer.model import Basic, Event, TimedStream, TrueP, TypeIs
from tcer.randgen import TYPES

# ``--hypothesis-profile=ci`` runs the property tests longer than tier-1 does.
settings.register_profile("ci", max_examples=2000)

# A heat-then-dry scenario: humidity (H) and temperature (T) readings.
S0_ROWS = [
    ("H", "hum", 25, "1.2"),
    ("T", "temp", 45, "1.33"),
    ("H", "hum", 20, "2.5"),
    ("H", "hum", 25, "3.7"),
    ("T", "temp", 40, "4.5"),
    ("T", "temp", 42, "5.3"),
    ("T", "temp", 25, "5.9"),
    ("H", "hum", 70, "6.1"),
    ("H", "hum", 18, "7.2"),
]

PHI2_TEXT = (
    "pi {X, Y, T} ((H as X :[0,1] (T (+)[0,1]) :[0,1] H as Y)"
    " filter (X[hum < 30] and Y[hum > 30]))"
)

PHI1P_TEXT = (
    "pi {X, Y} (((T as X ;[0,1] T ; H as Y) within [0,5])"
    " filter (T[temp > 40] and H[hum < 25]))"
)


def make_s0() -> TimedStream:
    return TimedStream(
        (Event(etype, {attr: Fraction(value)}), ts)
        for etype, attr, value, ts in S0_ROWS
    )


def rewrite_ge40(phi):
    """Turn strict temp > 40 filters into temp >= 40 (the narrative fixture)."""
    def fix_pred(p):
        if isinstance(p, Basic) and p.attr == "temp" and p.op == ">" and p.value == 40:
            return Basic("temp", ">=", p.value)
        return p

    if isinstance(phi, cel.Filter):
        return cel.Filter(rewrite_ge40(phi.body), phi.var, fix_pred(phi.pred))
    kids = cel.children(phi)
    if not kids:
        return phi
    if len(kids) == 2:
        left, right = (rewrite_ge40(k) for k in kids)
        if isinstance(phi, (cel.TimedSeq, cel.TimedContigSeq)):
            return type(phi)(left, phi.interval, right)
        return type(phi)(left, right)
    body = rewrite_ge40(kids[0])
    if isinstance(phi, cel.As):
        return cel.As(body, phi.var)
    if isinstance(phi, cel.Project):
        return cel.Project(phi.vars, body)
    if isinstance(phi, (cel.Within, cel.TimedIter, cel.TimedContigIter)):
        return type(phi)(body, phi.interval)
    return type(phi)(body)


def eval_cea_at(cea: TimedCea, stream: TimedStream, j: int, cap: int = DEFAULT_CEA_CAP):
    """The run oracle's outputs that end at position ``j``."""
    return frozenset(c for c in eval_cea_oracle(cea, stream, cap=cap) if c.end == j)


def make_t1(temp_op: str = ">=") -> TimedCea:
    """Hot reading marks X, a confirming hot reading within 1s, then a dry
    reading within 5s of X marks Y."""
    hot = Basic("temp", temp_op, Fraction(40))
    dry = Basic("hum", "<", Fraction(25))
    return TimedCea(
        states=frozenset({0, 1, 2, 3}),
        vars=frozenset({"X", "Y"}),
        clocks=frozenset({"z"}),
        delta=(
            Transition(0, hot, TRUE, frozenset({"X"}), frozenset({"z"}), 1),
            Transition(1, TrueP(), TRUE, frozenset(), frozenset(), 1),
            Transition(1, hot, clock_guard("z", "<=", 1), frozenset(), frozenset(), 2),
            Transition(2, TrueP(), TRUE, frozenset(), frozenset(), 2),
            Transition(2, dry, clock_guard("z", "<=", 5), frozenset({"Y"}), frozenset(), 3),
        ),
        initial=0,
        finals=frozenset({3}),
    )


def bench_stream(phi, n: int, rng: random.Random):
    """``n`` seeded events of the query's types, each carrying every
    attribute the query filters on, near the filter's constant."""
    types = sorted(
        {sub.etype for sub in cel.subformulas(phi) if isinstance(sub, cel.EventType)}
    ) or ["A"]
    attrs = sorted(
        {
            (sub.pred.attr, sub.pred.value)
            for sub in cel.subformulas(phi)
            if isinstance(sub, cel.Filter) and isinstance(sub.pred, Basic)
        }
    )
    t = Fraction(0)
    for _ in range(n):
        t += Fraction(rng.randint(5, 40), 100)
        values = {
            attr: base + Fraction(rng.randint(-500, 500), 100) for attr, base in attrs
        }
        yield Event(rng.choice(types), values), t


@pytest.fixture
def s0() -> TimedStream:
    return make_s0()


@pytest.fixture
def t1() -> TimedCea:
    return make_t1()


def random_sync_cea(rng: random.Random, n_states: int = 4, n_clocks: int = 2) -> TimedCea:
    """Synchronous resets hold by construction: the reset set is a function
    of the transition label."""
    states = frozenset(range(n_states))
    clocks = tuple(f"z{i}" for i in range(n_clocks))
    labels = [frozenset(), frozenset({"X"}), frozenset({"X", "Y"})]
    label_resets = {
        lab: frozenset(z for z in clocks if rng.random() < 0.5) for lab in labels
    }
    # ``z < 0`` passes no value: a transition drawing it is left out
    guards = [TRUE] + [
        clock_guard(z, rng.choice(["<=", "<", ">=", ">"]), rng.randint(0, 3)) for z in clocks
    ]
    delta = []
    for _ in range(rng.randint(3, 7)):
        lab = rng.choice(labels)
        source = rng.randrange(n_states)
        pred = rng.choice([TypeIs(t) for t in TYPES] + [TrueP()])
        guard = rng.choice(guards)
        target = rng.randrange(n_states)
        if guard is not None:
            delta.append(Transition(source, pred, guard, lab, label_resets[lab], target))
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
            guard = TRUE
            if source != 0 and rng.random() < 0.6:
                guard = clock_guard(z, op, Fraction(rng.randint(0, 6), 2))
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
