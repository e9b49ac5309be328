"""Span tracing for the benchmark's traced run.

The tracer wraps the product's public functions from outside, by replacing
the module and class attributes the product and the benchmark call through
(``tcer.engine.sat`` and ``tcer.engine.enumerate_node`` as the engine binds
them, the ``Caecs`` methods, ``cli.read_stream`` and so on).  Nothing in
``src/`` changes.  Each span records a name, start, end, parent span, the id
of the event or query it belongs to, a work count and whether it raised.
Spans stay in memory, in flat arrays, until ``dump`` writes them out.

A function that the product no longer defines, or that a run never called,
is reported as absent (``None``), never as zero.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter_ns

# (module, attribute owner within the module or None, attribute, span name, kind)
# kind: "call" times one call; "steps" times each item a generator yields.
TARGETS = [
    ("tcer.cli", None, "read_stream", "cli.read_stream", "steps"),
    ("tcer.cli", None, "parse_stream_line", "cli.parse_stream_line", "call"),
    ("tcer.cli", None, "match_json", "cli.match_json", "call"),
    ("tcer.parser", None, "parse_query", "parser.parse_query", "call"),
    ("tcer.cel", None, "classify", "cel.classify", "call"),
    ("tcer.compiler", None, "compile_windowed", "compiler.compile_windowed", "call"),
    ("tcer.determinize", None, "determinize", "determinize.determinize", "call"),
    ("tcer.regions", None, "check_sync", "regions.check_sync", "call"),
    ("tcer.engine", "StreamingEngine", "__init__", "engine.init", "call"),
    ("tcer.engine", "StreamingEngine", "feed", "engine.feed", "call"),
    ("tcer.engine", None, "sat", "model.sat", "call"),
    ("tcer.engine", None, "enumerate_node", "caecs.enumerate_node", "steps"),
] + [
    ("tcer.caecs", "Caecs", method, f"caecs.{method}", "call")
    for method in (
        "new_bottom", "extend", "add_clock_check", "add_reset", "union",
        "new_union_list", "ul_insert", "ul_merge", "ul_clock_check", "ul_reset",
    )
]


def _units(item) -> int:
    """Output units of a yielded match: one, plus one per bound position."""
    binding = getattr(item, "binding", None)
    if binding is None:
        return 1
    return 1 + sum(len(ps) for _, ps in binding)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.units = array("l")
        self.error = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.absent: list[str] = []
        self.max_union_list_len = 0
        self.max_odepth = 0
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.units.append(0)
        self.error.append(0)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int, units: int = 0, error: bool = False) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()
        self.units[idx] = units
        self.error[idx] = error

    def _nid(self, name: str) -> int:
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
        return self.name_of[name]

    def _call(self, name, fn):
        nid = self._nid(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, error=True)
                raise
            tracer._close(idx)
            return result

        return wrapper

    def _steps(self, name, fn, new_op: bool):
        nid = self._nid(name)
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                if new_op:
                    tracer.op_id += 1
                idx = tracer._open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(idx)
                    return
                except BaseException:
                    tracer._close(idx, error=True)
                    raise
                tracer._close(idx, units=_units(item))
                yield item

        return wrapper

    def _watch_feed(self, fn):
        """After each feed, read the union-list lengths and output depths."""
        tracer = self

        def feed(engine, *args, **kwargs):
            try:
                return fn(engine, *args, **kwargs)
            finally:
                for ul in engine.table.values():
                    tracer.max_union_list_len = max(tracer.max_union_list_len, len(ul))
                    for node in ul:
                        tracer.max_odepth = max(tracer.max_odepth, node.odepth)

        return feed

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for module_name, owner_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if kind == "steps":
                wrapped = self._steps(name, original, new_op=name == "cli.read_stream")
            else:
                wrapped = self._call(name, original)
            if name == "engine.feed":
                wrapped = self._watch_feed(wrapped)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading -------------------------------------------------------------

    def mark(self) -> int:
        return len(self.start)

    def spans(self, name: str, lo: int = 0, hi: int | None = None) -> list[int]:
        nid = self.name_of.get(name)
        if nid is None:
            return []
        hi = len(self.start) if hi is None else hi
        names = self.name
        return [i for i in range(lo, hi) if names[i] == nid]

    def duration(self, idx: int) -> int:
        return self.end[idx] - self.start[idx]

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tunits\terror\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.op[i]}\t{self.units[i]}\t{self.error[i]}\n"
                )


# ---------------------------------------------------------------------------
# Per-layer figures
# ---------------------------------------------------------------------------

# Bound-position buckets for the enumeration cost per position.
LENGTH_BUCKETS = (1, 4, 16, 64, 256, 1024)


def _sum(values) -> int | None:
    values = list(values)
    return sum(values) if values else None


def _ratio(num, den, scale: float = 1.0):
    if num is None or not den:
        return None
    return num / den * scale


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def per_layer(tracer: Tracer, marks: dict, session) -> dict:
    """Per-layer figures from the spans of one traced run.

    ``marks`` holds the span index at the end of the setup and sync phases;
    the stream phase runs from the second mark to the end.  Setup figures
    are per setup of all the workload's queries; the run sets them up three
    times and checks each once.
    """
    setup_reps = max((len(s) for s in session.result["setup_s"]), default=0)
    sync_reps = max((len(s) for s in session.result["sync_s"]), default=0)
    end_setup, end_sync = marks["setup"], marks["sync"]
    dur = tracer.duration

    def total(name, lo, hi=None):
        return _sum(dur(i) for i in tracer.spans(name, lo, hi))

    reads = [i for i in tracer.spans("cli.read_stream", end_sync) if tracer.units[i]]
    events = len(reads)
    feeds = [dur(i) for i in tracer.spans("engine.feed", end_sync)]
    enums = tracer.spans("caecs.enumerate_node", end_sync)
    enum_ns = _sum(dur(i) for i in enums)  # all of it, failed walks included
    produced = [i for i in enums if not tracer.error[i]]
    produced_ns = _sum(dur(i) for i in produced)
    enum_units = sum(tracer.units[i] for i in produced)
    sats = tracer.spans("model.sat", end_sync)
    serial = tracer.spans("cli.match_json", end_sync)

    own = tracer.self_times()
    caecs_ids = {
        nid for name, nid in tracer.name_of.items()
        if name.startswith("caecs.") and name != "caecs.enumerate_node"
    }
    caecs_ns = _sum(own[i] for i in range(end_sync, len(own)) if tracer.name[i] in caecs_ids)

    buckets: dict = {}
    for i in produced:
        positions = tracer.units[i] - 1
        if positions <= 0:
            continue
        low = max(b for b in LENGTH_BUCKETS if b <= positions)
        acc = buckets.setdefault(low, [0, 0, 0])
        acc[0] += dur(i)
        acc[1] += positions
        acc[2] += 1
    by_length = {
        f"{low}+": {"us_per_bound_position": ns / pos / 1e3, "matches": n}
        for low, (ns, pos, n) in sorted(buckets.items())
    }

    decile = len(feeds) // 10
    last_over_first = (
        sum(feeds[-decile:]) / sum(feeds[:decile]) if decile and sum(feeds[:decile]) else None
    )
    sorted_feeds = sorted(feeds)
    queries = session.result["queries"]
    refused: dict = {}
    for q in queries:
        if q["verdict"] == "refused":
            reason = q["reason"].split(":")[0]
            refused[reason] = refused.get(reason, 0) + 1

    def per_setup(name):
        return _ratio(total(name, 0, end_setup), setup_reps, 1e-6)

    enum_failed = sum(tracer.error[i] for i in enums) if enums else None
    nodes = session.result["passes"][0]["nodes"]
    return {
        "metrics": {
            "cli.ingest_us_per_event": _ratio(total("cli.read_stream", end_sync), events, 1e-3),
            "cli.serialize_us_per_match": _ratio(_sum(dur(i) for i in serial), len(serial), 1e-3),
            "engine.feed_us_p50": percentile(sorted_feeds, 50) / 1e3 if feeds else None,
            "engine.feed_us_p99": percentile(sorted_feeds, 99) / 1e3 if feeds else None,
            "engine.update_us_per_event": _ratio(
                _sum(feeds) - (enum_ns or 0) if feeds else None, events, 1e-3
            ),
            "engine.feed_last_over_first": last_over_first,
            "engine.init_ms": per_setup("engine.init"),
            "model.sat_calls_per_event": _ratio(len(sats) if sats else None, events),
            "model.sat_us_per_event": _ratio(_sum(dur(i) for i in sats), events, 1e-3),
            "caecs.update_us_per_event": _ratio(caecs_ns, events, 1e-3),
            "caecs.nodes_per_event": _ratio(nodes, events),
            "caecs.max_union_list_len": tracer.max_union_list_len if feeds else None,
            "caecs.max_odepth": tracer.max_odepth if feeds else None,
            "caecs.enum_ns_per_output_unit": _ratio(produced_ns, enum_units),
            "caecs.enum_us_per_bound_position": _ratio(
                produced_ns, sum(tracer.units[i] - 1 for i in produced if tracer.units[i]), 1e-3
            ),
            "caecs.enum_failed": enum_failed,
            "parser.parse_ms": per_setup("parser.parse_query"),
            "cel.classify_ms": per_setup("cel.classify"),
            "compiler.compile_windowed_ms": per_setup("compiler.compile_windowed"),
            "compiler.states": sum(q["states"] for q in queries),
            "compiler.transitions": sum(q["transitions"] for q in queries),
            "determinize.determinize_ms": per_setup("determinize.determinize"),
            "determinize.states_out": sum(q["states_out"] for q in queries),
            "determinize.transitions_out": sum(q["transitions_out"] for q in queries),
            "regions.check_sync_ms": _ratio(total("regions.check_sync", end_setup, end_sync), sync_reps, 1e-6),
            "regions.explored": sum(session.result["explored"]) if sync_reps else None,
            "engine.refused": sum(refused.values()),
        },
        "detail": {
            "events": events,
            "spans": len(tracer.start),
            "absent_functions": tracer.absent,
            "never_called": [
                name for name in (t[3] for t in TARGETS)
                if name not in tracer.absent and not tracer.spans(name)
            ],
            "enum_by_match_length": by_length,
            "refused_by_reason": refused,
        },
    }
