"""Command-line interface: stream ingestion, compilation, and evaluation.

Streams are JSON Lines, one event per line:
``{"type": "H", "attrs": {"temp": 45}, "ts": "2.5"}``.
One parser reads every line (``read_stream``), each number from its digits:
as an exact rational for the library and the oracle engines, or, for a
streaming run, the timestamp and only the attributes the query's predicates
read, in the engine's int units; the other attributes are only checked.

``run`` prints each match as a JSON line, in ``(end, start, bindings)``
order, with ``pos`` the match's end, so the two engines print the same
bytes.  Each position's lines go out in one write once the position has
been evaluated: under ``python -u`` or ``PYTHONUNBUFFERED=1`` each ``print``
was two unbuffered writes, the line and its newline.  A match stores its
variables in name order and each variable's positions sorted
(``ComplexEvent.make``), and ``match_json`` prints them as stored, the bytes
``json.dumps`` with sorted keys would give:
``{"bindings": {"X": [4]}, "end": 8, "pos": 8, "start": 4}``.
The streaming engine reads one line at a time.  Its store of open runs can
still grow with the stream, because a windowed query's runs past the window
are not cut.  The oracle engine loads the whole stream first, then writes
once per ``end`` position.
A bad line after some matches ends the run with those matches printed.

Exit codes: 0 ok, or stdout closed by its reader; 1 mismatch, violation, or
a query the streaming engine refuses; 2 usage error or a path that cannot be
opened; 3 bad stream, query text or automaton file, input that is not UTF-8,
or a number longer than ``model.MAX_DIGITS``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import stat
import sys
from collections import Counter
from fractions import Fraction
from itertools import groupby
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from typing import Iterable, Optional

from .cea import AutomatonFormatError, TimedCea, cea_from_json, cea_to_json, eval_cea_oracle
from .cel import classify, eval_cel_oracle
from .compiler import NotWindowed, compile_cel, compile_windowed
from .determinize import SyncResetViolation, determinize
from .engine import NotStreamable, StreamingEngine
from .model import (
    ComplexEvent, DecimalText, Event, TimedStream, format_rat, number_text, to_units
)
from .parser import ParseError, parse_query, pretty


class StreamFormatError(Exception):
    pass


# the one decoder (``json.loads`` with a hook would build one per call)
_decode = json.JSONDecoder(parse_float=number_text, parse_int=number_text).raw_decode
_KINDS = (str, DecimalText, Fraction)


def _parse(line: str, lineno: int, reads: Optional[dict], scale: int):
    """A stripped stream line's ``(etype, values, time)``, the time in units
    of ``1/scale``.  Every attribute is checked.  With an engine's ``reads``,
    ``values`` holds only those it names, a number in the units it gives;
    without, every attribute, a number exact.  Only the latter keeps nulls
    and booleans."""
    try:
        obj, end = _decode(line)
    except (ValueError, RecursionError) as exc:
        raise StreamFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
    if end != len(line):  # the error ``json.loads`` raises
        exc = json.JSONDecodeError("Extra data", line, WHITESPACE.match(line, end).end())
        raise StreamFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
    if obj.__class__ is not dict:
        raise StreamFormatError(f"line {lineno}: bad event object: not a JSON object")
    try:
        etype = obj["type"]
        attrs = obj.get("attrs", {})
        time = to_units(obj["ts"], scale)
    except (KeyError, TypeError, ValueError) as exc:
        raise StreamFormatError(f"line {lineno}: bad event object: {exc}") from exc
    if etype.__class__ is not str or attrs.__class__ is not dict:
        raise StreamFormatError(f"line {lineno}: bad event object")
    # without an engine the converted numbers replace their text in place
    values = attrs if reads is None else {}
    for name, value in attrs.items():
        kind = value.__class__
        if kind in _KINDS:
            units = 1 if reads is None else reads.get(name)
            if units is not None:
                values[name] = value if kind is str else to_units(value, units)
        elif value is not None and kind is not bool:
            raise StreamFormatError(
                f"line {lineno}: attribute {name!r} is not a number, string, boolean or null"
            )
    return etype, values, time


def parse_stream_line(line: str, lineno: int) -> tuple[Event, int | Fraction]:
    """The line's event and timestamp, each number exact: an int when it is
    whole, else a ``Fraction``."""
    etype, attrs, ts = _parse(line.strip(), lineno, None, 1)
    return Event(etype, attrs), ts


def stream_line(event: Event, ts: Fraction) -> str:
    """The stream line that ``parse_stream_line`` reads back as the same
    event and timestamp.  Numbers are written as JSON numbers through
    ``format_rat``, so they must be decimal, as every stream's are."""
    attrs = ", ".join(
        f"{_json_str(name)}: {_json_value(value)}" for name, value in sorted(event.attrs.items())
    )
    return f'{{"attrs": {{{attrs}}}, "ts": {format_rat(ts)}, "type": {_json_str(event.etype)}}}'


def _json_value(value) -> str:
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, Fraction):
        return format_rat(value)
    return json.dumps(value)  # an int, a bool or None


def read_stream(fh, engine: Optional[StreamingEngine] = None):
    """Yield (event, timestamp) pairs, enforcing positive, strictly
    increasing time.  Given a streaming engine, yield its ``step``'s
    ``(etype, values, ticks)`` instead, ``values`` holding only what it
    reads (``engine.reads``).  Both go through ``_parse``, so a bad line
    raises the same error with or without an engine."""
    reads, scale = (None, 1) if engine is None else (engine.reads, engine.scale)
    last = 0
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        etype, values, time = _parse(line, lineno, reads, scale)
        if time <= last:
            raise StreamFormatError(
                f"line {lineno}: timestamp {format_rat(Fraction(time, scale))} is not above "
                f"{format_rat(Fraction(last, scale))}; timestamps must be positive and increase"
            )
        last = time
        yield (Event(etype, values), time) if engine is None else (etype, values, time)


def ce_sort_key(ce: ComplexEvent):
    return (ce.end, ce.start, ce.binding)


def match_json(ce: ComplexEvent, pos: int) -> str:
    """The match's output line: the bytes ``json.dumps`` gives with
    ``sort_keys=True``, written directly from the binding as stored, since
    the ``repr`` of a list of ints is its JSON."""
    bindings = ", ".join([f"{_json_str(var)}: {list(ps)!r}" for var, ps in ce.binding])
    return f'{{"bindings": {{{bindings}}}, "end": {ce.end}, "pos": {pos}, "start": {ce.start}}}'


def load_query(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_query(fh.read())


def load_automaton(path: str) -> TimedCea:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise AutomatonFormatError(f"invalid JSON: {exc}") from exc
    return cea_from_json(doc)


def save_automaton(cea: TimedCea, path: str) -> None:
    """Write the automaton as ``load_automaton`` reads it."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cea_to_json(cea), fh, indent=2, sort_keys=True)
        fh.write("\n")


REFUSALS = (NotWindowed, SyncResetViolation, NotStreamable)


def streaming_engine(phi, debug: bool = False) -> StreamingEngine:
    """The query's streaming engine; raises one of ``REFUSALS`` when the
    query is outside the class the engine evaluates."""
    return StreamingEngine(determinize(compile_windowed(phi)), debug=debug)


def run_matches(engine: str, phi, fh) -> Iterable[Iterable[ComplexEvent]]:
    """The query's matches over a stream's lines, in groups in stream
    order, each group the matches that end at one position, sorted by
    ``ce_sort_key``.  The streaming engine takes one line at a time, read
    for its ``step``, and gives one group per event; the oracle engine
    needs random access, so it loads every event and gives one group per
    position that has matches."""
    if engine == "streaming":
        streaming = streaming_engine(phi)
        step = streaming.step
        return (
            sorted(step(etype, values, ticks), key=ce_sort_key)
            for etype, values, ticks in read_stream(fh, streaming)
        )
    stream = TimedStream(read_stream(fh))
    found = eval_cel_oracle(phi, stream, cap=max(len(stream), 1))
    return [list(group) for _, group in groupby(sorted(found, key=ce_sort_key), key=attrgetter("end"))]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    phi = load_query(args.query)
    out = sys.stdout
    try:  # a pipe or a terminal gets each position's matches once they are found
        live = not stat.S_ISREG(os.fstat(out.fileno()).st_mode)
    except (AttributeError, OSError, ValueError):  # no file descriptor
        live = False
    with open(args.stream, encoding="utf-8") as fh:
        for found in run_matches(args.engine, phi, fh):
            if found:  # one write per position: ``print`` is two when unbuffered
                out.write("".join([match_json(ce, ce.end) + "\n" for ce in found]))
                if live:
                    out.flush()
    return 0


def cmd_compile(args) -> int:
    phi = load_query(args.query)
    try:
        cea = compile_windowed(phi) if args.windowed else compile_cel(phi)
    except NotWindowed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    save_automaton(cea, args.output)
    return 0


def cmd_determinize(args) -> int:
    cea = load_automaton(args.automaton)
    try:
        det = determinize(cea)
    except SyncResetViolation as exc:
        print(f"resets are not synchronous: {exc}", file=sys.stderr)
        return 1
    save_automaton(det, args.output)
    return 0


def cmd_check_sync(args) -> int:
    from .regions import check_sync  # only this command needs the zone search

    cea = load_automaton(args.automaton)
    result = check_sync(cea, cap=args.cap)
    report = {"verdict": result.verdict, "explored": result.explored}
    if result.witness is not None:
        run1, run2 = result.witness
        report["witness"] = [
            [_trans_brief(tr) for tr in run1],
            [_trans_brief(tr) for tr in run2],
        ]
    print(json.dumps(report, sort_keys=True))
    return 0 if result.verdict == "yes" else 1


def _trans_brief(tr) -> dict:
    return {
        "source": repr(tr.source),
        "target": repr(tr.target),
        "label": sorted(tr.label),
        "resets": sorted(tr.resets),
    }


def cmd_diff_test(args) -> int:
    from .randgen import random_formula, random_stream

    rng = random.Random(args.seed)
    by_fragment: dict[str, Counter[str]] = {}
    code = 0
    for case in range(args.cases):
        phi = random_formula(rng, rng.randint(1, args.max_depth))
        stream = random_stream(rng, rng.randint(0, args.max_stream))
        mismatch, outcome = _diff_one(phi, stream)
        by_fragment.setdefault(classify(phi)[0], Counter())[outcome] += 1
        if mismatch is not None:
            stream = _shrink(phi, stream)
            lines = ", ".join(stream_line(e, t) for e, t in stream.pairs_et())
            print(
                f'{{"case": {case}, "query": {_json_str(mismatch)}, '
                f'"seed": {args.seed}, "stream": [{lines}]}}',
                file=sys.stderr,
            )
            code = 1
            break
    summary = _outcome_counts(sum(by_fragment.values(), Counter()))
    summary["by_fragment"] = {
        label: _outcome_counts(outcomes) for label, outcomes in sorted(by_fragment.items())
    }
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return code


def _outcome_counts(outcomes: Counter[str]) -> dict:
    """The cases run, the cases streamed and the refusals per kind."""
    return {
        "cases": sum(outcomes.values()),
        "streamed": outcomes["streamed"],
        "skipped_refused": {kind.__name__: outcomes[kind.__name__] for kind in REFUSALS},
    }


def _diff_one(phi, stream) -> tuple[str | None, str]:
    """A description of the first disagreement, or None, and how far the
    case got: ``compiled``, the name of the streaming engine's refusal, or
    ``streamed``.  The oracles' cap is above the stream's length, so they
    never refuse the case.  A streamed case runs twice: event by event
    through ``feed``, and line by line through ``read_stream`` with the
    engine, as ``tcer run`` runs it."""
    expected = eval_cel_oracle(phi, stream, cap=len(stream) + 1)
    via_cea = eval_cea_oracle(compile_cel(phi), stream, cap=len(stream) + 1)
    if expected != via_cea:
        return f"compiled automaton disagrees for: {pretty(phi)}", "compiled"
    try:
        engine = streaming_engine(phi, debug=True)
    except REFUSALS as exc:
        return None, type(exc).__name__
    got = set()
    for event, ts in stream.pairs_et():
        got.update(engine.feed(event, ts))
    if got != expected:
        return f"streaming engine disagrees for: {pretty(phi)}", "streamed"
    engine = StreamingEngine(engine.cea, debug=True)
    got = set()
    lines = [stream_line(event, ts) for event, ts in stream.pairs_et()]
    for etype, values, ticks in read_stream(lines, engine):
        got.update(engine.step(etype, values, ticks))
    if got != expected:
        return f"streaming engine disagrees on stream lines for: {pretty(phi)}", "streamed"
    return None, "streamed"


def _shrink(phi, stream):
    changed = True
    while changed and len(stream) > 1:
        changed = False
        for i in range(len(stream)):
            pairs = [p for k, p in enumerate(stream.pairs_et()) if k != i]
            candidate = TimedStream(pairs)
            if _diff_one(phi, candidate)[0] is not None:
                stream = candidate
                changed = True
                break
    return stream


def _count(low: int, high: Optional[int] = None):
    """An argparse type: an integer that is at least ``low`` and, when
    ``high`` is given, at most ``high``."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="evaluate a query over a stream")
    p.add_argument("--query", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--engine", choices=["oracle", "streaming"], required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compile", help="compile a query to an automaton file")
    p.add_argument("--query", required=True)
    p.add_argument("--windowed", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("determinize", help="determinize an automaton file")
    p.add_argument("--automaton", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_determinize)

    p = sub.add_parser("check-sync", help="decide whether resets are synchronous")
    p.add_argument("--automaton", required=True)
    p.add_argument(
        "--cap", type=_count(1), default=1_000_000,
        help="answer unknown after this many zones explored",
    )
    p.set_defaults(func=cmd_check_sync)

    p = sub.add_parser("diff-test", help="randomized differential testing")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_count(0), default=100)
    # a random formula deeper than 12 can take minutes to compile, and one
    # thousands deep overflows the recursion of random_formula itself
    p.add_argument("--max-depth", type=_count(1, 12), default=4)
    # the oracles are exponential in the stream's length (at depth 5, 200
    # cases take seconds with streams of up to 30 events and minutes with
    # up to 40), and each stream is built whole
    p.add_argument("--max-stream", type=_count(0, 32), default=10)
    p.set_defaults(func=cmd_diff_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except REFUSALS as exc:
        print(f"streaming engine rejected the query: {exc}", file=sys.stderr)
        return 1
    except (ParseError, StreamFormatError, AutomatonFormatError) as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        print(f"input is not UTF-8 text: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout (``tcer run ... | head -1``) and chose to
        # stop.  Point stdout at the null device so the flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
