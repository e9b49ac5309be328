"""The measured library path of one workload, run in a fresh process.

Usage: ``python3 bench/child.py SPEC.json RESULT.json`` with ``src`` on
``PYTHONPATH``.  The spec names the query texts, the stream files, the
time budget and each phase's share of it; the result holds the raw
samples, CPU probe readings, the failures and, in a traced run, the
per-layer figures.

Phases, interleaved until the budget is spent:

* ``setup``: query text to an engine ready for its first event
  (``parse_query``, ``classify``, ``compile_windowed``, ``determinize``,
  ``StreamingEngine``), one query per step;
* ``sync``: ``check_sync`` on one compiled automaton per step;
* ``stream``: every accepted query over its stream, composed as ``tcer run``
  composes it: ``cli.read_stream`` then ``StreamingEngine.feed`` then
  ``cli.match_json`` into a file, one block of events per step.

The interpreter's recursion limit, stack and garbage collector are left at
their defaults, and an exception in one event is counted, not avoided.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import probe  # noqa: E402

cel = importlib.import_module("tcer.cel")
cli = importlib.import_module("tcer.cli")
compiler = importlib.import_module("tcer.compiler")
determinize = importlib.import_module("tcer.determinize")
engine = importlib.import_module("tcer.engine")
parser = importlib.import_module("tcer.parser")
regions = importlib.import_module("tcer.regions")

REFUSALS = (engine.NotStreamable, determinize.SyncResetViolation)
BLOCK_EVENTS = 1000
PROBE_EVERY_S = 0.1


class Session:
    """One library-path session: the queries, their automata and the samples.

    Each phase is a generator that does one small unit of work per step and
    yields the seconds it measured, so that ``schedule`` can
    interleave the phases over the whole run: a burst of noise from the
    machine then touches a few samples of every metric, not every sample of
    one metric.
    """

    def __init__(self, spec: dict, tracer=None):
        self.spec = spec
        self.tracer = tracer
        self.queries = spec["queries"]
        self.compiled: dict[int, object] = {}  # query -> windowed automaton
        self.ready: dict[int, object] = {}  # query -> determinized automaton
        self.pass_open = False
        self.speed = probe()  # the latest probe reading
        self.pass_probes: list = []  # the readings taken during the open pass
        n = len(self.queries)
        self.result: dict = {
            "attempted": 0,
            "failed": 0,
            "failures": {},
            "queries": [None] * n,
            "setup_s": [[] for _ in range(n)],
            "sync_s": [[] for _ in range(n)],
            "explored": [0] * n,
            "passes": [],
            "probe_s": [self.speed],
        }

    def read_probe(self) -> None:
        self.speed = probe()
        self.result["probe_s"].append(self.speed)
        if self.pass_open:
            self.pass_probes.append(self.speed)

    def _fail(self, kind: str) -> None:
        self.result["failed"] += 1
        self.result["failures"][kind] = self.result["failures"].get(kind, 0) + 1

    # -- setup ---------------------------------------------------------------

    def setup_query(self, qid: int) -> float:
        """Query text to an engine ready for its first event, or to a refusal."""
        if self.tracer is not None:
            self.tracer.op_id = qid
        t0 = time.perf_counter()
        verdict, reason, label = "ok", None, None
        automaton = det = None
        try:
            phi = parser.parse_query(self.queries[qid])
            label, _ = cel.classify(phi)
            if label == "general":
                verdict = "general"
            else:
                automaton = compiler.compile_windowed(phi)
                det = determinize.determinize(automaton)
                engine.StreamingEngine(det, debug=False)
        except REFUSALS as exc:
            verdict, reason = "refused", f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # counted per query, never avoided
            verdict, reason = "failed", type(exc).__name__
            self._fail(reason)
        if verdict != "general":
            self.result["attempted"] += 1
        seconds = time.perf_counter() - t0
        self.result["setup_s"][qid].append([seconds, self.speed])
        if self.result["queries"][qid] is None:
            if automaton is not None:
                self.compiled[qid] = automaton
            if verdict == "ok":
                self.ready[qid] = det
            self.result["queries"][qid] = {
                "verdict": verdict,
                "reason": reason,
                "label": label,
                "states": len(automaton.states) if automaton else 0,
                "transitions": len(automaton.delta) if automaton else 0,
                "states_out": len(det.states) if det else 0,
                "transitions_out": len(det.delta) if det else 0,
            }
        return seconds

    def setup_steps(self):
        while True:
            for qid in range(len(self.queries)):
                yield self.setup_query(qid)

    # -- check_sync ----------------------------------------------------------

    def sync_query(self, qid: int) -> float:
        if self.tracer is not None:
            self.tracer.op_id = qid
        t0 = time.perf_counter()
        res = regions.check_sync(self.compiled[qid])
        seconds = time.perf_counter() - t0
        self.result["sync_s"][qid].append([seconds, self.speed])
        self.result["explored"][qid] = res.explored
        self.result["queries"][qid]["sync"] = res.verdict
        return seconds

    def sync_steps(self):
        while True:
            for qid in sorted(self.compiled):
                yield self.sync_query(qid)

    # -- stream --------------------------------------------------------------

    def stream_steps(self):
        """Passes over every accepted case, one block of events per step.

        A pass is cut into blocks of about ``BLOCK_EVENTS`` events (a whole
        pass when it is shorter).  Each pass records, event by event, the
        latency from reading the line to writing the event's last match
        (-1 for an event that raised), and the output units it wrote.
        """
        cases = [c for c in self.spec["cases"] if c["query"] in self.ready]
        total = sum(c["events"] for c in cases)
        n_blocks = max(1, total // BLOCK_EVENTS)
        clock = time.perf_counter_ns
        while True:
            self.pass_open = True
            latencies: list[int] = []
            processed, units, failed, nodes, digests = 0, 0, [], 0, {}
            boundary = 1
            busy = 0
            for case in cases:
                eng = engine.StreamingEngine(self.ready[case["query"]], debug=False)
                case_units = case["units"]
                with open(case["stream"], encoding="utf-8") as fh, open(
                    case["output"], "w", encoding="utf-8"
                ) as sink:
                    events = cli.read_stream(fh)
                    while True:
                        t0 = clock()
                        try:
                            event, ts = next(events)
                        except StopIteration:
                            break
                        try:
                            matches = eng.feed(event, ts)
                            pos = eng.position
                            for ce in sorted(matches, key=cli.ce_sort_key):
                                sink.write(cli.match_json(ce, pos))
                                sink.write("\n")
                        except Exception as exc:  # counted per event, never avoided
                            busy += clock() - t0
                            latencies.append(-1)
                            failed.append([case["name"], eng.position, type(exc).__name__])
                            self._fail(type(exc).__name__)
                        else:
                            took = clock() - t0
                            busy += took
                            latencies.append(took)
                            units += case_units[pos - 1]
                        processed += 1
                        self.result["attempted"] += 1
                        if processed * n_blocks >= boundary * total and processed < total:
                            boundary += 1
                            seconds, busy = busy / 1e9, 0
                            yield seconds
                nodes += eng.caecs.created
                with open(case["output"], "rb") as fh:
                    digests[case["name"]] = hashlib.sha256(fh.read()).hexdigest()
            self.pass_probes.append(self.speed)
            self.result["passes"].append({
                "failed": failed, "digests": digests, "nodes": nodes,
                "units": units, "latencies_ns": latencies,
                "probe_s": statistics.median(self.pass_probes),
            })
            self.pass_probes = []
            self.pass_open = False
            yield busy / 1e9  # the pass's last block, once the pass is complete


def schedule(session: Session, budget: float, shares: dict) -> None:
    """Interleave the phases until the budget is spent, each phase getting its
    share of the measured time; then finish the open pass."""
    steps = {"setup": session.setup_steps(), "stream": session.stream_steps()}
    for qid in range(len(session.queries)):
        session.setup_query(qid)
    if session.compiled:
        steps["sync"] = session.sync_steps()
    steps = {k: v for k, v in steps.items() if shares.get(k)}
    spent = dict.fromkeys(steps, 0.0)
    begin = time.perf_counter()
    last_probe = 0.0
    while True:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            session.read_probe()
            last_probe = time.perf_counter()
        over = time.perf_counter() - begin >= budget
        if over and not session.pass_open and session.result["passes"]:
            break
        phase = "stream" if over else min(steps, key=lambda k: spent[k] / shares[k])
        spent[phase] += next(steps[phase])
    if "sync" in steps:  # every compiled query is checked at least once
        for qid in sorted(session.compiled):
            if not session.result["sync_s"][qid]:
                session.sync_query(qid)


def traced(session: Session, tracer) -> dict:
    """Run each phase once in order (setup three times) and mark the spans."""
    for _ in range(3):
        for qid in range(len(session.queries)):
            session.setup_query(qid)
    marks = {"setup": tracer.mark()}
    for qid in sorted(session.compiled):
        session.sync_query(qid)
    marks["sync"] = tracer.mark()
    stream = session.stream_steps()
    next(stream)
    while session.pass_open:
        session.read_probe()
        next(stream)
    return marks


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if spec["trace"]:
        from spans import Tracer, per_layer

        tracer = Tracer()
        tracer.install()
        session = Session(spec, tracer)
        marks = traced(session, tracer)
        tracer.uninstall()
        session.result["layers"] = per_layer(tracer, marks, session)
        tracer.dump(Path(result_path).with_suffix(".spans.tsv"))
    else:
        session = Session(spec)
        schedule(session, spec["budget"], spec["shares"])
    Path(result_path).write_text(json.dumps(session.result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
