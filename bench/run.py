"""Layered benchmark for tcer: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the one with ``src/tcer``)::

    python3 bench/run.py --workload sensor_phi2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Load shape: a batch replay in a closed loop, one client, one measured
process at a time.  Inputs are generated from the seed and written under
``.bench_run/`` before anything is timed.  The library path then runs in
three fresh child processes (``bench/child.py``), and between them the real
``tcer run`` CLI runs as a subprocess over the same files.  Every output is
compared with a reference computed here, without the engine: a mismatch
exits with code 1.

The machine may be shared and its speed drifts, so every timing is scaled
by a stdlib-only CPU probe (``bench/probe.py``) read next to it: the probe
current when a setup or check_sync sample was taken, the probes during a
pass, the probes around a CLI run.  The unscaled figures are kept in the
result file.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the library path once untraced and once with every layer
wrapped in spans, and reports the per-layer metrics and the tracing
overhead.  Each run writes ``.bench_run/BENCH_<workload>[.trace].json``
stamped with the git commit, Python version, CPU count and seed.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
from spans import percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# The library path gets LIBRARY_SHARE of --seconds, split into SEGMENTS fresh
# child processes with CLI runs in between, so that a slow spell of the
# machine falls on a few samples of every metric.  Within a child, SHARES
# divides the measured time between the interleaved phases.
LIBRARY_SHARE = 0.6
SEGMENTS = 3
SHARES = {"setup": 0.2, "sync": 0.3, "stream": 0.5}
CHILD_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60


class Mismatch(Exception):
    """An output differs from its reference."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Starts every measured process through ``launch.py`` (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=_env(), text=True,
        )

    def run(self, argv: list, stdout, stderr, timeout: float) -> tuple[int, float, float]:
        """Run a process to completion; return (exit code, seconds, peak RSS in MB)."""
        request = {"argv": argv, "stdout": stdout and str(stdout), "stderr": str(stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process died")
        reply = json.loads(reply)
        return reply["exit"], reply["seconds"], reply["peak_rss_mb"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_child(launcher, work: Path, tag: str, queries: list, cases: list, trace: bool,
              budget: float, shares: dict) -> tuple[dict, float]:
    """Run the library path in a fresh process; return its result and peak RSS."""
    spec = {
        "queries": queries,
        "cases": [
            {"name": c.name, "query": queries.index(c.query), "stream": c.stream,
             "events": c.events, "units": [c.units.get(p, 0) for p in range(1, c.events + 1)],
             "output": str(work / f"{tag}.{c.name}.out")}
            for c in cases
        ],
        "trace": trace,
        "budget": budget,
        "shares": shares,
    }
    spec_path = work / f"{tag}.spec.json"
    result_path = work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, rss = launcher.run(
        [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path)],
        None, work / f"{tag}.stderr", CHILD_TIMEOUT_S,
    )
    if code != 0:
        sys.stderr.write((work / f"{tag}.stderr").read_text(encoding="utf-8", errors="replace"))
        raise RuntimeError(f"library-path child exited with code {code}")
    return json.loads(result_path.read_text(encoding="utf-8")), rss


# ---------------------------------------------------------------------------
# Checking outputs
# ---------------------------------------------------------------------------


def expected_text(case, skip: set) -> str:
    return "".join(line + "\n" for pos, line in case.lines if pos not in skip)


def check_library(work: Path, tag: str, cases: list, queries: list, result: dict) -> dict:
    """Compare every pass's output with the references; return failed positions.

    Positions whose event raised are left out of the reference: a failure is
    counted, not compared.  Every pass must fail on the same positions.
    """
    ok = {i for i, q in enumerate(result["queries"]) if q["verdict"] == "ok"}
    passes = result["passes"]
    failed = [tuple(f) for f in passes[0]["failed"]]
    if any([tuple(f) for f in p["failed"]] != failed for p in passes[1:]):
        raise Mismatch(f"{tag}: passes failed on different events")
    skip: dict = {}
    for name, pos, _ in failed:
        skip.setdefault(name, set()).add(pos)
    for case in cases:
        if queries.index(case.query) not in ok:
            continue
        want = expected_text(case, skip.get(case.name, set()))
        got = (work / f"{tag}.{case.name}.out").read_text(encoding="utf-8")
        if got != want:
            raise Mismatch(f"{tag}: library output for {case.name} differs from the reference")
        digest = hashlib.sha256(want.encode("utf-8")).hexdigest()
        if any(p["digests"][case.name] != digest for p in passes):
            raise Mismatch(f"{tag}: an earlier pass over {case.name} wrote other output")
    return skip


class CliRuns:
    """``tcer run --engine streaming`` over each case in rotation.

    Every stdout must equal the reference byte for byte.  A run that exits
    non-zero is recorded with the last line of its stderr, and that case is
    not run again.  Probes right before and right after each run measure
    the machine's speed, and the run's time is scaled by their median.
    """

    def __init__(self, launcher, work: Path, cases: list):
        self.launcher = launcher
        self.work = work
        self.cases = cases
        self.runs: list = []  # (case name, seconds, peak RSS in MB, probe seconds)
        self.failed: dict = {}
        self.turn = 0

    def _run(self, case) -> None:
        before = [probe.probe(), probe.probe()]
        out_path = self.work / f"cli.{case.name}.out"
        err_path = self.work / f"cli.{case.name}.stderr"
        code, took, peak = self.launcher.run(
            [sys.executable, "-m", "tcer.cli", "run", "--query", case.query_file,
             "--stream", case.stream, "--engine", "streaming"],
            out_path, err_path, CLI_TIMEOUT_S,
        )
        speed = statistics.median(before + [probe.probe(), probe.probe()])
        if code != 0:
            lines = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
            self.failed[case.name] = {"exit": code, "error": (lines or [""])[-1][:200]}
            return
        if out_path.read_bytes() != expected_text(case, set()).encode("utf-8"):
            raise Mismatch(f"tcer run output for {case.name} differs from the reference")
        self.runs.append((case.name, took, peak, speed))

    def run_for(self, budget: float) -> None:
        """Run cases in turn until the budget is spent (at least one run)."""
        begin = time.perf_counter()
        while True:
            live = [c for c in self.cases if c.name not in self.failed]
            if not live:
                return
            self._run(live[self.turn % len(live)])
            self.turn += 1
            if time.perf_counter() - begin >= budget:
                return

    def finish(self) -> None:
        ran = {name for name, *_ in self.runs}
        missing = [c for c in self.cases if c.name not in self.failed and c.name not in ran]
        for case in missing:
            self._run(case)

    def metrics(self, normalize: bool) -> tuple:
        """(events/s over each case's median run time, peak RSS in MB)."""
        seconds: dict = {}
        rss: dict = {}
        for name, took, peak, speed in self.runs:
            seconds.setdefault(name, []).append(took * (_scale([speed]) if normalize else 1.0))
            rss.setdefault(name, []).append(peak)
        if not seconds:
            return None, None
        events = sum(c.events for c in self.cases if c.name in seconds)
        total = sum(statistics.median(v) for v in seconds.values())
        return events / total, max(statistics.median(v) for v in rss.values())


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _scale(probes: list) -> float:
    """Multiplier that takes timings made while the probe read ``probes`` to
    the reference speed (see probe.py)."""
    return probe.REFERENCE_S / statistics.median(probes)


def tail(sorted_values: list) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(sorted_values)
    for p in (99.99, 99.9, 99.0, 90.0, 50.0):
        if n * (100 - p) / 100 >= 10:
            return {"percentile": p, "value": percentile(sorted_values, p), "samples": n}
    return {"percentile": None, "value": None, "samples": n}


def library_metrics(children: list, normalize: bool) -> dict:
    """End-to-end figures of the library path over a run's child processes.

    Every pass feeds the same events, so an event's latency is its median
    over all passes: that keeps the cost of the event and drops the pauses
    the machine put on one pass.  A pass's time is the sum of those
    latencies; the percentiles are taken over them.  Setup and check_sync
    are sums over the workload's queries of each query's median.
    """
    passes, setup, sync = [], {}, {}
    for result, _ in children:
        for p in result["passes"]:
            f = _scale([p["probe_s"]]) if normalize else 1.0
            passes.append([ns * f / 1e3 if ns >= 0 else None for ns in p["latencies_ns"]])
        for key, acc in (("setup_s", setup), ("sync_s", sync)):
            for qid, samples in enumerate(result[key]):
                acc.setdefault(qid, []).extend(
                    x * (_scale([speed]) if normalize else 1.0) for x, speed in samples
                )
    latencies = sorted(lat for lat in map(_median, zip(*passes)) if lat is not None)
    if not latencies:  # no event completed: nothing to report
        return dict.fromkeys(("events_per_s", "latency_us_p50", "latency_us_p99", "latency_us_tail",
                              "output_units_per_s", "setup_s", "check_sync_s"))
    pass_s = sum(latencies) / 1e6
    return {
        "events_per_s": len(latencies) / pass_s,
        "latency_us_p50": percentile(latencies, 50),
        "latency_us_p99": percentile(latencies, 99),
        "latency_us_tail": dict(tail(latencies), passes=len(passes)),
        "output_units_per_s": children[0][0]["passes"][0]["units"] / pass_s,
        "setup_s": sum(statistics.median(v) for v in setup.values() if v) if setup else None,
        "check_sync_s": sum(statistics.median(v) for v in sync.values() if v) if sync else None,
    }


def run_workload(launcher, name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    import workloads

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    generated = workloads.write_workload(name, seed, work / "inputs", scale)
    cases = generated["library"]
    queries = list(dict.fromkeys(c.query for c in cases))
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "queries": len(queries),
        "events_per_pass": sum(c.events for c in cases),
    }
    children = []
    if not trace:
        cli = None
        for k in range(SEGMENTS):
            result, rss = run_child(
                launcher, work, f"lib{k}", queries, cases, False,
                LIBRARY_SHARE * seconds / SEGMENTS, SHARES,
            )
            skip = check_library(work, f"lib{k}", cases, queries, result)
            children.append((result, rss))
            if cli is None:
                cli_cases = generated["cli"]
                if cli_cases is None:  # one CLI run per accepted query
                    first = {}
                    for c in cases:
                        first.setdefault(c.query, c)
                    cli_cases = [first[q] for i, q in enumerate(queries) if result["queries"][i]["verdict"] == "ok"]
                cli = CliRuns(launcher, work, cli_cases)
            cli.run_for((1 - LIBRARY_SHARE) * seconds / SEGMENTS)
        cli.finish()
        metrics = library_metrics(children, normalize=True)
        metrics["peak_rss_mb"] = _median(rss for _, rss in children)
        metrics["cli_events_per_s"], metrics["cli_peak_rss_mb"] = cli.metrics(normalize=True)
        raw = library_metrics(children, normalize=False)
        del raw["latency_us_tail"]
        raw["cli_events_per_s"], _ = cli.metrics(normalize=False)
        report.update({
            "segments": SEGMENTS,
            "latency_us_tail": metrics.pop("latency_us_tail"),
            "setup_samples_per_query": min(len(x) for r, _ in children for x in r["setup_s"]),
            "sync_samples_per_query": min((len(x) for r, _ in children for x in r["sync_s"] if x), default=0),
            "cli_runs": len(cli.runs),
            "cli_failed_runs": cli.failed,
            "probe_reference_s": probe.REFERENCE_S,
            "probe_s_per_segment": [statistics.median(r["probe_s"]) for r, _ in children],
            "probe_s_cli_median": statistics.median(speed for *_, speed in cli.runs) if cli.runs else None,
            "metrics_unscaled": raw,
        })
    else:
        plain, _ = run_child(launcher, work, "plain", queries, cases, False, 0.3 * seconds, {"stream": 1})
        check_library(work, "plain", cases, queries, plain)
        result, rss = run_child(launcher, work, "traced", queries, cases, True, 0, {})
        skip = check_library(work, "traced", cases, queries, result)
        children = [(plain, None), (result, rss)]
        plain_rate = library_metrics([(plain, None)], normalize=True)["events_per_s"]
        traced_rate = library_metrics([(result, rss)], normalize=True)["events_per_s"]
        metrics = dict(result["layers"]["metrics"])
        metrics["trace.events_per_s"] = traced_rate
        metrics["trace.overhead_ratio"] = plain_rate / traced_rate
        report["layers_detail"] = result["layers"]["detail"]
    first = children[0][0]
    verdicts = [q["verdict"] for q in first["queries"]]
    if any([q["verdict"] for q in r["queries"]] != verdicts
           or r["passes"][0]["failed"] != first["passes"][0]["failed"] for r, _ in children[1:]):
        raise Mismatch(f"{name}: child processes disagree on verdicts or failed events")
    # attempted and failed count each operation once, however many passes
    # and processes repeated it, so that they depend on the seed alone and
    # not on how much of it the run's time allowed.
    compiled = sum(v != "general" for v in verdicts)
    ok = {i for i, v in enumerate(verdicts) if v == "ok"}
    failures: dict = {}
    for _, _, kind in first["passes"][0]["failed"]:
        failures[kind] = failures.get(kind, 0) + 1
    for q in first["queries"]:
        if q["verdict"] == "failed":
            failures[q["reason"]] = failures.get(q["reason"], 0) + 1
    attempted = compiled + sum(c.events for c in cases if queries.index(c.query) in ok)
    failed = sum(failures.values())
    metrics["failed_ratio"] = failed / attempted
    metrics["refused_ratio"] = verdicts.count("refused") / compiled if compiled else 0.0
    failed_lengths = [c.lengths[pos] for c in cases for pos in skip.get(c.name, ()) if pos in c.lengths]
    report.update({
        "attempted": attempted,
        "failed": failed,
        "failures_by_type": failures,
        "operations_run": sum(r["attempted"] for r, _ in children),
        "operations_raised": sum(r["failed"] for r, _ in children),
        "failed_events_per_pass": sum(len(v) for v in skip.values()),
        "shortest_failed_match": min(failed_lengths) if failed_lengths else None,
        "query_verdicts": first["queries"],
        "metrics": metrics,
    })
    suffix = ".trace" if trace else ""
    (WORK / f"BENCH_{name}{suffix}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="shrink the inputs (smoke tests)")
    args = ap.parse_args(argv)

    if not (SRC / "tcer" / "__init__.py").is_file():
        print(f"no tcer sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    launcher = Launcher()  # first, while this process is still small
    try:
        return _run(args, declared, launcher)
    finally:
        launcher.close()


def _run(args, declared: list, launcher) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            report = run_workload(launcher, name, args.seed, args.seconds, bool(args.trace), args.scale)
        except Mismatch as exc:
            print(f"MISMATCH: {exc}", file=sys.stderr)
            out["correct"] = False
            break
        out["attempted"] += report["attempted"]
        out["failed"] += report["failed"]
        print(f"== {name} (seed {args.seed}, attempted {report['attempted']}, failed {report['failed']})")
        for m in declared:
            value = report["metrics"].get(m["name"])
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {m['name']:<34} {shown:>14} {m['unit']}")
            key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
            out["metrics"][key] = {"value": value, "unit": m["unit"]}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
