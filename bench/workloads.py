"""Seeded inputs for the four benchmark workloads, and their reference outputs.

Everything here is the benchmark's own: the streams, the ladder of query
texts and the expected matches come from this file and a seed, never from
the product's random generators, so a change to the product cannot silently
change a workload.  The product only ever sees the files written by
``write_workload``.

Times are kept as integer hundredths of a second and attribute values as
integer hundredths, so the closed-form references below compare exact
integers and share no arithmetic with the engine.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

PHI2_TEXT = (
    "pi {X, Y, T} ((H as X :[0,1] (T (+)[0,1]) :[0,1] H as Y)"
    " filter (X[hum < 30] and Y[hum > 30]))"
)
PHI1P_TEXT = (
    "pi {X, Y} (((T as X ;[0,1] T ; H as Y) within [0,5])"
    " filter (T[temp > 40] and H[hum < 25]))"
)
FANOUT_WINDOW = 30


def fanout_text(window: int) -> str:
    return f"pi {{X, Y}} ((A as X ; B as Y) within [0, {window}])"


# An event is (etype, attrs, t) with attrs {name: hundredths} and t in
# hundredths of a second.


def _hundredths(value: int) -> str:
    sign = "-" if value < 0 else ""
    value = abs(value)
    return f"{sign}{value // 100}.{value % 100:02d}"


def event_line(etype: str, attrs: dict, t: int) -> str:
    """One JSONL stream line; numbers are written as exact decimals."""
    body = ", ".join(f'"{k}": {_hundredths(v)}' for k, v in sorted(attrs.items()))
    return f'{{"type": "{etype}", "attrs": {{{body}}}, "ts": "{_hundredths(t)}"}}'


def match_line(start: int, end: int, bindings: dict, pos: int) -> str:
    """A match in the CLI's output format, rendered without the product."""
    doc = {
        "start": start,
        "end": end,
        "bindings": {var: sorted(ps) for var, ps in sorted(bindings.items())},
        "pos": pos,
    }
    return json.dumps(doc, sort_keys=True)


def _match_key(match):
    start, end, bindings = match
    return (start, end, [(var, sorted(ps)) for var, ps in sorted(bindings.items())])


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


def sensor_stream(rng: random.Random, n: int) -> list:
    """H/T readings with gaps of 0.05-0.40 s, as in the 100k acceptance test."""
    events, t = [], 0
    for _ in range(n):
        t += rng.randint(5, 40)
        attrs = {"hum": rng.randint(0, 6000), "temp": rng.randint(2000, 6000)}
        events.append((rng.choice("HT"), attrs, t))
    return events


def fanout_stream(rng: random.Random, n: int) -> list:
    """A/B events, 70% B, with gaps of 0.5-1.5 s: about 30 events, 9 of them
    A, per 30 s window.  With most events closing matches, the median event
    is one that enumerates."""
    events, t = [], 0
    for _ in range(n):
        t += rng.randint(50, 150)
        events.append(("B" if rng.random() < 0.7 else "A", {}, t))
    return events


SPELL_LEVELS = [2**i for i in range(12)]  # 1 .. 2048 T readings


def heat_spells(rng: random.Random, per_level: int) -> list:
    """Spells of a dry H, k T readings at most 1 s apart, then a wet H.

    k sweeps a geometric grid up to 2048 so that every seed covers the same
    range of match lengths; spell order is shuffled.  Each spell is one
    match of k + 2 bound positions.  The spells of a level are jittered in
    pairs, by +j and -j with j up to 10% of the level, so a level's readings
    (and the whole stream's length) are the same for every seed.
    """
    lengths = []
    for level in SPELL_LEVELS:
        for i in range(per_level):
            if i % 2 == 0:
                j = rng.randint(0, level // 10) if i + 1 < per_level else 0
                lengths.append(level + j)
            else:
                lengths.append(level - j)
    rng.shuffle(lengths)
    spells, t = [], 0
    for k in lengths:
        t += rng.randint(100, 500)
        spell = [("H", {"hum": rng.randint(0, 2999)}, t)]
        for _ in range(k):
            t += rng.randint(5, 100)
            spell.append(("T", {"temp": rng.randint(3000, 6000)}, t))
        t += rng.randint(5, 100)
        spell.append(("H", {"hum": rng.randint(3001, 6000)}, t))
        spells.append(spell)
    return spells


def rebase(events: list) -> list:
    """Shift a stream so that its first timestamp is 1 s."""
    shift = events[0][2] - 100
    return [(e, a, t - shift) for e, a, t in events]


# ---------------------------------------------------------------------------
# Closed-form references
# ---------------------------------------------------------------------------


def phi2_matches(events: list) -> dict:
    """PHI2: a dry H, then >= 1 contiguous T with gaps <= 1 s, then a wet H."""
    out: dict = {}
    for j in range(1, len(events) + 1):
        etype, attrs, _ = events[j - 1]
        if etype != "H" or attrs["hum"] <= 3000:
            continue
        i = j - 1
        while i >= 1 and events[i - 1][0] == "T":
            i -= 1
        if i < 1 or i == j - 1:
            continue
        if events[i - 1][0] != "H" or events[i - 1][1]["hum"] >= 3000:
            continue
        if all(events[p][2] - events[p - 1][2] <= 100 for p in range(i, j)):
            out[j] = [(i, j, {"X": {i}, "T": set(range(i + 1, j)), "Y": {j}})]
    return out


def fanout_matches(events: list, window: int) -> dict:
    """Every A at most ``window`` seconds before each B."""
    out: dict = {}
    a_positions: list = []
    first = 0
    for j, (etype, _, t) in enumerate(events, start=1):
        if etype == "A":
            a_positions.append(j)
        elif etype == "B":
            while first < len(a_positions) and t - events[a_positions[first] - 1][2] > window * 100:
                first += 1
            if first < len(a_positions):
                out[j] = [(i, j, {"X": {i}, "Y": {j}}) for i in a_positions[first:]]
    return out


def oracle_matches(phi, events: list) -> dict:
    """Matches by the brute-force reference semantics (short streams only)."""
    from tcer.cel import eval_cel_oracle
    from tcer.model import Event, TimedStream

    stream = TimedStream(
        (Event(etype, {k: Fraction(v, 100) for k, v in attrs.items()}), Fraction(t, 100))
        for etype, attrs, t in events
    )
    out: dict = {}
    for ce in eval_cel_oracle(phi, stream, cap=len(events)):
        out.setdefault(ce.end, []).append((ce.start, ce.end, {var: set(ps) for var, ps in ce.binding}))
    return out


def output_units(matches: dict) -> dict:
    """Per position: one unit per match plus one per bound position."""
    return {
        pos: sum(1 + sum(len(ps) for ps in b.values()) for _, _, b in ms)
        for pos, ms in matches.items()
    }


# ---------------------------------------------------------------------------
# The query ladder
# ---------------------------------------------------------------------------

LADDER_TYPES = ("A", "B", "C")
LADDER_MIX = "AAABBBCC"


def _interval(rng: random.Random):
    """(text, Interval) over {0, 1/2, 1} lower bounds, like the paper's tests."""
    from tcer.model import Interval

    low = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
    if rng.random() < 0.25:
        closed = rng.random() < 0.8
        return f"{'[' if closed else '('}{_dec(low)},inf)", Interval(low, None, closed)
    high = low + rng.choice([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
    if high == low:
        return f"[{_dec(low)},{_dec(high)}]", Interval(low, high)
    lc, hc = rng.random() < 0.8, rng.random() < 0.8
    text = f"{'[' if lc else '('}{_dec(low)},{_dec(high)}{']' if hc else ')'}"
    return text, Interval(low, high, lc, hc)


def _dec(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(float(value))


def random_query(rng: random.Random, depth: int):
    """A random query as (text, AST); the AST is built directly, not parsed."""
    from tcer import cel
    from tcer.model import Basic, TrueP

    if depth <= 0:
        etype = rng.choice(LADDER_TYPES)
        return etype, cel.EventType(etype)
    op = rng.choice(
        ["event", "as", "filter", "or", "and", "seq", "cseq", "plus", "cplus",
         "project", "within", "tseq", "tcseq", "titer", "tciter"]
    )
    if op == "event":
        return random_query(rng, 0)
    if op in ("or", "and", "seq", "cseq"):
        (lt, la), (rt, ra) = random_query(rng, depth - 1), random_query(rng, depth - 1)
        sym, cls = {"or": ("or", cel.Or), "and": ("and", cel.And),
                    "seq": (";", cel.Seq), "cseq": (":", cel.ContigSeq)}[op]
        return f"({lt} {sym} {rt})", cls(la, ra)
    if op in ("tseq", "tcseq"):
        (lt, la), (rt, ra) = random_query(rng, depth - 1), random_query(rng, depth - 1)
        it, iv = _interval(rng)
        if op == "tseq":
            return f"({lt} ;{it} {rt})", cel.TimedSeq(la, iv, ra)
        return f"({lt} :{it} {rt})", cel.TimedContigSeq(la, iv, ra)
    bt, ba = random_query(rng, depth - 1)
    if op == "as":
        var = rng.choice(("U", "V"))
        return f"({bt} as {var})", cel.As(ba, var)
    if op == "filter":
        names = sorted(cel.formula_vars(ba))
        if not names:
            return bt, ba
        var = rng.choice(names)
        if rng.random() < 0.3:
            return f"({bt} filter {var}[true])", cel.Filter(ba, var, TrueP())
        cmp_op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        value = rng.randint(0, 4)
        return f"({bt} filter {var}[x {cmp_op} {value}])", cel.Filter(ba, var, Basic("x", cmp_op, value))
    if op == "plus":
        return f"({bt} +)", cel.Plus(ba)
    if op == "cplus":
        return f"({bt} (+))", cel.ContigPlus(ba)
    if op == "project":
        keep = sorted(v for v in cel.formula_vars(ba) if rng.random() < 0.6)
        return f"pi {{{', '.join(keep)}}} ({bt})", cel.Project(frozenset(keep), ba)
    it, iv = _interval(rng)
    if op == "within":
        return f"({bt} within {it})", cel.Within(ba, iv)
    if op == "titer":
        return f"({bt} +{it})", cel.TimedIter(ba, iv)
    return f"({bt} (+){it})", cel.TimedContigIter(ba, iv)


def ladder_stream(rng: random.Random) -> list:
    """A short stream of 3 A, 3 B and 2 C in random order, with an x attribute
    and gaps in quarter seconds.

    The type mix is fixed because some ladder queries output every subset of
    the A events: with the mix drawn too, one seed's streams could hold
    several times the output of another's.
    """
    types = rng.sample(LADDER_MIX, len(LADDER_MIX))
    events, t = [], 0
    for etype in types:
        t += 25 * rng.randint(1, 8)
        events.append((etype, {"x": 100 * rng.randint(0, 4)}, t))
    return events


def scaled_family() -> list:
    """Queries that grow in window constant and in chain length."""
    texts = [fanout_text(w) for w in (1, 2, 5, 10, 20, 30)]
    for n in range(2, 7):
        names = "ABCDEFG"[:n]
        body = " ;[0,2] ".join(f"{c} as X{i}" for i, c in enumerate(names))
        texts.append(f"({body}) within [0, {2 * n}]")
    return texts


# ---------------------------------------------------------------------------
# Workload files
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """One query over one stream file, with its expected output."""

    name: str
    query: str  # the query text
    query_file: str
    stream: str
    events: int
    lines: list = field(default_factory=list)  # (position, expected line)
    units: dict = field(default_factory=dict)  # position -> output units
    lengths: dict = field(default_factory=dict)  # position -> bound positions


WORKLOADS = ("sensor_phi2", "fanout_enum", "heat_spells", "query_ladder")
LADDER_STREAMS_PER_QUERY = 20
LADDER_RANDOM_QUERIES = 40


def _write_case(out_dir: Path, name: str, text: str, events: list, matches: dict) -> Case:
    query_file = out_dir / f"{name}.tcel"
    stream = out_dir / f"{name}.jsonl"
    query_file.write_text(text + "\n", encoding="utf-8")
    stream.write_text("".join(event_line(*e) + "\n" for e in events), encoding="utf-8")
    lines = []
    for pos in sorted(matches):
        for start, end, bindings in sorted(matches[pos], key=_match_key):
            lines.append((pos, match_line(start, end, bindings, pos)))
    return Case(
        name=name,
        query=text,
        query_file=str(query_file),
        stream=str(stream),
        events=len(events),
        lines=lines,
        units=output_units(matches),
        lengths={
            pos: max(sum(len(ps) for ps in b.values()) for _, _, b in ms)
            for pos, ms in matches.items()
        },
    )


def _normal(matches: dict) -> dict:
    return {pos: sorted(ms, key=_match_key) for pos, ms in matches.items()}


def _check_windows(phi, text: str, events: list, closed_form, width: int = 12) -> None:
    """The closed form must agree with the brute-force oracle on short windows:
    the stream's head and the windows that open at its first few matches."""
    starts = [0] + [m[0][0] - 1 for _, m in sorted(closed_form(events).items())][:3]
    for s in starts:
        window = events[s : s + width]
        if _normal(closed_form(window)) != _normal(oracle_matches(phi, window)):
            raise AssertionError(f"closed-form reference disagrees with the oracle for {text}")


def ladder_queries() -> list:
    """The ladder's fixed catalogue of (text, AST) pairs.

    The catalogue does not depend on the run's seed: the offline costs of
    random formulas are heavy-tailed (one formula can take longer to check
    than all the others together), so a per-seed draw would make setup and
    check_sync figures incomparable between runs.  The seed picks the streams.
    """
    from tcer.parser import parse_query

    fixed = [PHI2_TEXT, PHI1P_TEXT] + scaled_family()
    queries = [(text, parse_query(text)) for text in fixed]
    rng = random.Random("query_ladder:catalogue")
    queries += [random_query(rng, rng.randint(1, 5)) for _ in range(LADDER_RANDOM_QUERIES)]
    return queries


def write_workload(name: str, seed: int, out_dir: Path, scale: float = 1.0) -> dict:
    """Generate one workload's inputs under ``out_dir``.

    Returns ``{"library": [Case], "cli": [Case] | None}``: the cases the
    library path runs and the ones the CLI runs (``None``: the accepted
    library cases, one per query).  ``scale`` shrinks the sensor and fan-out
    streams and halves the spells, for the benchmark's own smoke tests.
    """
    from tcer.parser import parse_query  # the fixed queries' ASTs for the oracle

    rng = random.Random(f"{name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)

    def size(n: int) -> int:
        return max(1, int(n * scale))

    if name == "sensor_phi2":
        events = sensor_stream(rng, size(20_000))
        _check_windows(parse_query(PHI2_TEXT), PHI2_TEXT, events, phi2_matches)
        case = _write_case(out_dir, "sensor", PHI2_TEXT, events, phi2_matches(events))
        return {"library": [case], "cli": [case]}
    if name == "fanout_enum":
        text = fanout_text(FANOUT_WINDOW)

        def reference(ev):
            return fanout_matches(ev, FANOUT_WINDOW)

        events = fanout_stream(rng, size(6_000))
        _check_windows(parse_query(text), text, events, reference)
        case = _write_case(out_dir, "fanout", text, events, reference(events))
        return {"library": [case], "cli": [case]}
    if name == "heat_spells":
        spells = heat_spells(rng, per_level=2 if scale >= 1 else 1)
        phi2 = parse_query(PHI2_TEXT)
        for spell in spells:
            if len(spell) <= 12:
                _check_windows(phi2, PHI2_TEXT, rebase(spell), phi2_matches)
        events = [e for spell in spells for e in spell]
        whole = _write_case(out_dir, "spells", PHI2_TEXT, events, phi2_matches(events))
        per_spell = [
            _write_case(out_dir, f"spell{i:02d}", PHI2_TEXT, rebase(s), phi2_matches(rebase(s)))
            for i, s in enumerate(spells)
        ]
        return {"library": [whole], "cli": per_spell}
    if name == "query_ladder":
        cases = []
        for i, (text, phi) in enumerate(ladder_queries()):
            for k in range(LADDER_STREAMS_PER_QUERY):
                events = ladder_stream(rng)
                cases.append(_write_case(out_dir, f"q{i:02d}s{k}", text, events, oracle_matches(phi, events)))
        return {"library": cases, "cli": None}
    raise ValueError(f"unknown workload {name!r}")
