"""The command-line front end, driven through main(argv)."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import selectors
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tcer import cli
from tcer.cli import (
    main,
    match_json,
    parse_stream_line,
    read_stream,
    stream_line,
    StreamFormatError,
)
from tcer.cea import MAX_GUARD_BOXES, MAX_GUARD_ENTRIES
from tcer.cel import eval_cel_oracle
from tcer.model import MAX_DIGITS, Basic, ComplexEvent, Event, TimedStream, format_rat, rat
from tcer.parser import MAX_QUERY_DEPTH, parse_query, pretty
from tcer.randgen import random_stream

from conftest import PHI1P_TEXT, PHI2_TEXT, S0_ROWS, bench_stream, rewrite_ge40
from test_cli_fuzz import FUZZ, ODD_NUMBERS, QUERIES, stream_lines
from test_engine import FANOUT_TEXT


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "s0.jsonl"
    lines = [
        json.dumps({"type": etype, "attrs": {attr: value}, "ts": ts})
        for etype, attr, value, ts in S0_ROWS
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "q2.tcel"
    path.write_text(PHI2_TEXT + "\n", encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- stream parsing -----------------------------------------------------------


def test_parse_stream_line_exact_rationals():
    event, ts = parse_stream_line('{"type": "H", "attrs": {"hum": 20.5}, "ts": "1.2"}', 1)
    assert event.etype == "H"
    assert event.attrs["hum"] * 2 == 41  # exact, not a float
    assert ts * 5 == 6


def test_read_stream_rejects_nonincreasing_timestamps():
    repeated = ['{"type": "A", "ts": "2"}', '{"type": "A", "ts": "2"}']
    for rows in (repeated, ['{"type": "A", "ts": 0}'], ['{"type": "A", "ts": -1}']):
        with pytest.raises(StreamFormatError):
            list(read_stream(rows))


@pytest.mark.parametrize(
    "line", ["not json", "[1,2]", '{"attrs": {}, "ts": "1"}', '{"type": "A", "ts": "x"}']
)
def test_bad_stream_lines(line):
    with pytest.raises(StreamFormatError):
        parse_stream_line(line, 7)


@pytest.mark.parametrize(
    "lines, message",
    [
        pytest.param(
            ['{"type": "A", "ts": 1'],
            "line 1: invalid JSON: Expecting ',' delimiter: line 1 column 22 (char 21)",
            id="invalid-json",
        ),
        pytest.param(
            ['{"type": "A", "ts": 1}  x'],
            "line 1: invalid JSON: Extra data: line 1 column 25 (char 24)",
            id="extra-data",
        ),
        pytest.param(['{"ts": 1}'], "line 1: bad event object: 'type'", id="missing-type"),
        pytest.param(
            ['{"type": "A", "ts": "x"}'],
            "line 1: bad event object: Invalid literal for Fraction: 'x'",
            id="bad-ts",
        ),
        pytest.param(
            ['{"type": "A", "attrs": {"y": [1]}, "ts": 1}'],
            "line 1: attribute 'y' is not a number, string, boolean or null",
            id="list-attribute",
        ),
        pytest.param(
            ['{"type": "A", "attrs": {"y": 0.' + "1" * MAX_DIGITS + '}, "ts": 1}'],
            f"line 1: invalid JSON: number longer than {MAX_DIGITS} digits",
            id="long-unread-number",
        ),
        pytest.param(
            ['{"type": "A", "ts": 2}', '{"type": "A", "ts": "1.5"}'],
            "line 2: timestamp 1.5 is not above 2; timestamps must be positive and increase",
            id="time-not-increasing",
        ),
        pytest.param(["1.5"], "line 1: bad event object: not a JSON object", id="one-number"),
        pytest.param(["7"], "line 1: bad event object: not a JSON object", id="one-integer"),
        pytest.param(["[1]"], "line 1: bad event object: not a JSON object", id="one-list"),
        pytest.param(['"x"'], "line 1: bad event object: not a JSON object", id="one-string"),
        pytest.param(["null"], "line 1: bad event object: not a JSON object", id="null"),
        pytest.param(["true"], "line 1: bad event object: not a JSON object", id="true"),
    ],
)
def test_a_bad_line_raises_one_message_with_or_without_an_engine(lines, message):
    """The query reads ``x``; ``y`` is only checked."""
    engine = cli.streaming_engine(parse_query("A as X filter X[x < 2.5]"))
    for reader in (read_stream(lines), read_stream(lines, engine)):
        with pytest.raises(StreamFormatError) as caught:
            list(reader)
        assert str(caught.value) == message


# -- the engines agree on the reference query ---------------------------------


def test_engines_agree_on_reference_query(capsys, stream_file, query_file):
    outputs = []
    for engine in ("oracle", "streaming"):
        code, out, err = _run(
            capsys,
            ["run", "--query", query_file, "--stream", stream_file, "--engine", engine],
        )
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    match = json.loads(outputs[0].splitlines()[0])
    assert match["start"] == 4 and match["end"] == 8
    assert match["bindings"] == {"T": [5, 6, 7], "X": [4], "Y": [8]}


def test_fixture_flag_flips_the_borderline_reading(capsys, stream_file, tmp_path):
    query = tmp_path / "q1.tcel"
    query.write_text(PHI1P_TEXT + "\n", encoding="utf-8")
    code, out, _ = _run(
        capsys,
        ["run", "--query", str(query), "--stream", stream_file, "--engine", "oracle"],
    )
    assert code == 0 and out == ""  # strict > 40 finds nothing
    query.write_text(pretty(rewrite_ge40(parse_query(PHI1P_TEXT))) + "\n", encoding="utf-8")
    code, out, _ = _run(
        capsys,
        ["run", "--query", str(query), "--stream", stream_file, "--engine", "oracle"],
    )
    assert code == 0
    match = json.loads(out.splitlines()[0])
    assert (match["start"], match["end"]) == (5, 9)


def test_rewrite_only_touches_strict_temp_filters():
    phi = rewrite_ge40(parse_query(PHI2_TEXT))
    assert phi == parse_query(PHI2_TEXT)  # hum filters untouched
    phi = rewrite_ge40(parse_query("T as X filter X[temp > 40]"))
    preds = [getattr(sub, "pred", None) for sub in _walk(phi)]
    assert Basic("temp", ">=", 40) in preds


def _walk(phi):
    from tcer.cel import subformulas

    return subformulas(phi)


# -- compile / determinize / check-sync file chain ----------------------------


def test_compile_determinize_check_chain(capsys, tmp_path, query_file, stream_file):
    auto = tmp_path / "a.json"
    det = tmp_path / "d.json"
    code, _, err = _run(
        capsys, ["compile", "--query", query_file, "--windowed", "-o", str(auto)]
    )
    assert code == 0, err
    code, out, _ = _run(capsys, ["check-sync", "--automaton", str(auto)])
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"
    code, _, err = _run(
        capsys, ["determinize", "--automaton", str(auto), "-o", str(det)]
    )
    assert code == 0, err
    # and the determinized automaton is still synchronous
    code, out, _ = _run(capsys, ["check-sync", "--automaton", str(det)])
    assert code == 0


def test_check_sync_reports_conflict_with_witness(capsys, tmp_path):
    from tcer.cea import TRUE, TimedCea, Transition, cea_to_json
    from tcer.model import TrueP

    cea = TimedCea(
        states=frozenset({0, 1, 2}),
        vars=frozenset({"X"}),
        clocks=frozenset({"z"}),
        delta=(
            Transition(0, TrueP(), TRUE, frozenset({"X"}), frozenset({"z"}), 1),
            Transition(0, TrueP(), TRUE, frozenset({"X"}), frozenset(), 2),
        ),
        initial=0,
        finals=frozenset({1, 2}),
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cea_to_json(cea)), encoding="utf-8")
    code, out, _ = _run(capsys, ["check-sync", "--automaton", str(path)])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "no"
    run1, run2 = report["witness"]
    assert run1[-1]["resets"] != run2[-1]["resets"]


def test_check_sync_cap_gives_unknown(capsys, tmp_path, query_file):
    auto = tmp_path / "a.json"
    _run(capsys, ["compile", "--query", query_file, "--windowed", "-o", str(auto)])
    code, out, _ = _run(capsys, ["check-sync", "--automaton", str(auto), "--cap", "1"])
    assert code == 1
    assert json.loads(out)["verdict"] == "unknown"


def test_check_sync_answers_a_large_window_quickly(capsys, tmp_path):
    query = tmp_path / "wide.tcel"
    query.write_text("(A ;[0,60] B) within [0,3600]\n", encoding="utf-8")
    auto = tmp_path / "a.json"
    code, _, err = _run(
        capsys, ["compile", "--query", str(query), "--windowed", "-o", str(auto)]
    )
    assert code == 0, err
    start = time.perf_counter()
    code, out, _ = _run(capsys, ["check-sync", "--automaton", str(auto)])
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"
    assert time.perf_counter() - start < 1.0


# -- exit codes ---------------------------------------------------------------


def test_missing_file_exits_2(capsys, stream_file):
    code, _, err = _run(
        capsys,
        ["run", "--query", "/nonexistent.q", "--stream", stream_file, "--engine", "oracle"],
    )
    assert code == 2


def test_bad_query_exits_3(capsys, tmp_path, stream_file):
    bad = tmp_path / "bad.tcel"
    bad.write_text("A ;;; B", encoding="utf-8")
    code, _, err = _run(
        capsys,
        ["run", "--query", str(bad), "--stream", stream_file, "--engine", "oracle"],
    )
    assert code == 3
    assert err


def _nested(depth: int) -> str:
    return "(" * depth + "A" + ")" * depth


def _chain(length: int) -> str:
    return " ; ".join(["A"] * length)


@pytest.mark.parametrize("text", [_nested(300), _chain(2000)], ids=["nested", "chain"])
def test_too_deep_query_exits_3(capsys, tmp_path, stream_file, text):
    deep = tmp_path / "deep.tcel"
    deep.write_text(text, encoding="utf-8")
    code, _, err = _run(
        capsys,
        ["run", "--query", str(deep), "--stream", stream_file, "--engine", "streaming"],
    )
    assert code == 3
    assert f"than {MAX_QUERY_DEPTH}" in err


@pytest.mark.parametrize("engine", ["oracle", "streaming"])
@pytest.mark.parametrize(
    "text", [_nested(MAX_QUERY_DEPTH), _chain(MAX_QUERY_DEPTH)], ids=["nested", "chain"]
)
def test_deepest_accepted_query_runs(capsys, tmp_path, stream_file, text, engine):
    deep = tmp_path / "deep.tcel"
    deep.write_text(text, encoding="utf-8")
    code, _, err = _run(
        capsys,
        ["run", "--query", str(deep), "--stream", stream_file, "--engine", engine],
    )
    assert code == 0, err


@pytest.mark.parametrize(
    "text", [_nested(MAX_QUERY_DEPTH), _chain(MAX_QUERY_DEPTH)], ids=["nested", "chain"]
)
def test_deepest_accepted_query_compiles(capsys, tmp_path, text):
    """``compile_cel``, the compiler's reference, builds the deepest query."""
    deep = tmp_path / "deep.tcel"
    deep.write_text(text, encoding="utf-8")
    code, _, err = _run(capsys, ["compile", "--query", str(deep), "-o", str(tmp_path / "a.json")])
    assert code == 0, err


def test_automaton_is_not_an_engine(capsys, query_file, stream_file):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--query", query_file, "--stream", stream_file, "--engine", "automaton"])
    assert exc.value.code == 2
    assert "invalid choice: 'automaton'" in capsys.readouterr().err


def test_bad_stream_exits_3(capsys, tmp_path, query_file):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    code, _, _ = _run(
        capsys,
        ["run", "--query", query_file, "--stream", str(bad), "--engine", "oracle"],
    )
    assert code == 3


@pytest.mark.parametrize("engine", ["oracle", "streaming"])
@pytest.mark.parametrize("ts", ["-1", "0"])
def test_non_positive_timestamp_exits_3(capsys, tmp_path, query_file, engine, ts):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"type": "H", "attrs": {"hum": 20}, "ts": ts}) + "\n", encoding="utf-8")
    code, _, err = _run(
        capsys,
        ["run", "--query", query_file, "--stream", str(bad), "--engine", engine],
    )
    assert code == 3
    assert "line 1" in err


def test_general_query_rejected_by_streaming_engine(capsys, tmp_path, stream_file):
    query = tmp_path / "gen.tcel"
    query.write_text("(A within [0,1]) ;[0,2] B\n", encoding="utf-8")
    code, out, err = _run(
        capsys,
        ["run", "--query", str(query), "--stream", stream_file, "--engine", "streaming"],
    )
    assert code == 1 and out == ""
    assert err.startswith("streaming engine rejected the query: ")
    assert "windowed" in err


def test_conflicting_resets_are_named_by_label_and_sorted_states(capsys, tmp_path, stream_file):
    query = tmp_path / "q.tcel"
    query.write_text("pi {} ((A +[1,3]))\n", encoding="utf-8")
    code, out, err = _run(
        capsys,
        ["run", "--query", str(query), "--stream", stream_file, "--engine", "streaming"],
    )
    assert (code, out) == (1, "")
    assert err == (
        "streaming engine rejected the query: "
        "conflicting resets {zn} vs {zn,zx} on label {} at states [1]\n"
    )


def test_phi1p_is_refused_for_its_two_checked_clocks_named_as_a_set(capsys, tmp_path, stream_file):
    query = tmp_path / "q.tcel"
    query.write_text(PHI1P_TEXT + "\n", encoding="utf-8")
    code, out, err = _run(
        capsys,
        ["run", "--query", str(query), "--stream", stream_file, "--engine", "streaming"],
    )
    assert (code, out) == (1, "")
    assert err == "streaming engine rejected the query: more than one checked clock: {zn,zx}\n"


def test_query_outside_the_windowed_fragment_is_named_in_query_syntax(
    capsys, tmp_path, stream_file
):
    query = tmp_path / "q.tcel"
    query.write_text("(A within [0,1]) ; (B within [0,2])\n", encoding="utf-8")
    for argv in (
        ["compile", "--windowed", "--query", str(query), "-o", str(tmp_path / "a.json")],
        ["run", "--query", str(query), "--stream", stream_file, "--engine", "streaming"],
    ):
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert "outside the windowed fragment: ((A WITHIN [0,1]) ; (B WITHIN [0,2]))" in err
        assert "Interval(" not in err


# -- randomized differential smoke -------------------------------------------


def test_diff_test_passes(capsys):
    code, _, err = _run(
        capsys, ["diff-test", "--seed", "11", "--cases", "40", "--max-stream", "8"]
    )
    assert code == 0, err
    # the last stderr line says what ran and what was skipped
    summary = json.loads(err.splitlines()[-1])
    assert set(summary) == {"cases", "streamed", "skipped_refused", "by_fragment"}
    assert set(summary["skipped_refused"]) == {
        "NotWindowed",
        "SyncResetViolation",
        "NotStreamable",
    }
    assert summary["cases"] == 40
    assert summary["streamed"] > 0
    assert summary["streamed"] + sum(summary["skipped_refused"].values()) == 40
    # the same counts per fragment of the drawn queries
    fragments = summary["by_fragment"]
    assert set(fragments) <= {"swg", "simple", "windowed", "general"}
    for counts in fragments.values():
        assert set(counts) == {"cases", "streamed", "skipped_refused"}
        assert set(counts["skipped_refused"]) == set(summary["skipped_refused"])
        assert counts["streamed"] + sum(counts["skipped_refused"].values()) == counts["cases"]
    assert sum(counts["cases"] for counts in fragments.values()) == 40
    assert sum(counts["streamed"] for counts in fragments.values()) == summary["streamed"]


def test_diff_test_repro_replays_as_a_stream(capsys, monkeypatch):
    """A mismatch prints the shrunk stream, whose entries are stream lines:
    numbers stay numbers."""
    monkeypatch.setattr(cli, "_diff_one", lambda phi, stream: ("forced", "streamed"))
    code, _, err = _run(capsys, ["diff-test", "--seed", "2", "--cases", "1", "--max-stream", "8"])
    assert code == 1
    repro = json.loads(err.splitlines()[-2], parse_float=rat)
    assert repro["query"] == "forced"
    [entry] = repro["stream"]
    assert entry["attrs"] and all(type(v) is int for v in entry["attrs"].values())
    assert isinstance(entry["ts"], (int, Fraction))


def test_stream_line_is_read_back_as_the_same_event():
    pairs = list(random_stream(random.Random(3), 60).pairs_et()) + [
        (Event("A", {"v": 3}), Fraction(1)),
        (
            Event('q"\\\n\u00e9', {"d": Fraction("2.75"), "s": 'x"\\y\u2603', "b": True, "n": None}),
            Fraction("0.5"),
        ),
    ]
    for event, ts in pairs:
        assert parse_stream_line(stream_line(event, ts), 1) == (event, ts)


# -- match lines ----------------------------------------------------------------

_NAMES = st.text(alphabet=st.characters(codec="utf-8"), max_size=6)


@settings(deadline=None)
@given(
    start=st.integers(1, 50),
    binding=st.dictionaries(
        _NAMES, st.frozensets(st.integers(0, 3000), min_size=1, max_size=2000), max_size=3
    ),
    pos=st.integers(1, 10**6),
)
@example(start=1, binding={'"\\\x00\x1f\u00e9\U0001f600': frozenset(range(0, 4000, 2))}, pos=4001)
def test_match_json_is_json_dumps_with_sorted_keys(start, binding, pos):
    end = start + max((max(ps) for ps in binding.values()), default=0)
    ce = ComplexEvent.make(
        start, end, {var: {start + p for p in ps} for var, ps in binding.items()}
    )
    bindings = {var: sorted(ps) for var, ps in sorted(ce.binding)}
    reference = json.dumps(
        {"start": ce.start, "end": ce.end, "bindings": bindings, "pos": pos}, sort_keys=True
    )
    assert match_json(ce, pos) == reference


@pytest.mark.parametrize(
    "argv",
    [
        ["diff-test", "--max-depth", "0"],
        ["diff-test", "--max-stream", "-1"],
        ["diff-test", "--cases", "-1"],
        ["diff-test", "--cases", "ten"],
        ["diff-test", "--max-stream", "2.5"],
        ["check-sync", "--automaton", "a.json", "--cap", "0"],
        ["check-sync", "--automaton", "a.json", "--cap", "-3"],
        ["diff-test", "--max-depth", "13"],
        ["diff-test", "--max-depth", "3000"],
        ["diff-test", "--max-stream", "33"],
        ["diff-test", "--max-stream", str(10**9)],
    ],
)
def test_out_of_range_count_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


# -- output streams as it is produced -----------------------------------------


def _write_bench_stream(path, n: int) -> None:
    from tcer.model import format_rat

    with open(path, "w", encoding="utf-8") as fh:
        for event, ts in bench_stream(parse_query(PHI2_TEXT), n, random.Random(0)):
            attrs = ", ".join(f'"{k}": {format_rat(v)}' for k, v in event.attrs.items())
            fh.write(f'{{"type": "{event.etype}", "attrs": {{{attrs}}}, "ts": "{format_rat(ts)}"}}\n')


def test_engines_print_identical_bytes_on_a_longer_stream(capsys, tmp_path, query_file):
    stream = tmp_path / "bench.jsonl"
    _write_bench_stream(stream, 400)
    outputs = []
    for engine in ("oracle", "streaming"):
        code, out, err = _run(
            capsys, ["run", "--query", query_file, "--stream", str(stream), "--engine", engine]
        )
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    keys = [(m["end"], m["start"]) for m in map(json.loads, outputs[0].splitlines())]
    assert len(keys) > 5 and keys == sorted(keys)


class _CountingStdout:
    """A stdout that keeps each ``write`` apart."""

    def __init__(self):
        self.writes = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


# A and B events, the fan-out query matching each B with every A before it
_FANOUT_TYPES = "AABABBAABAB"


def _fanout_files(tmp_path, types: str = _FANOUT_TYPES) -> tuple[str, str]:
    query, stream = tmp_path / "fanout.tcel", tmp_path / "fanout.jsonl"
    query.write_text(FANOUT_TEXT + "\n", encoding="utf-8")
    stream.write_text(
        "".join(f'{{"type": "{t}", "ts": {i}}}\n' for i, t in enumerate(types, start=1)), encoding="utf-8"
    )
    return str(query), str(stream)


@pytest.mark.parametrize("engine", ["oracle", "streaming"])
def test_run_writes_each_position_once(monkeypatch, tmp_path, engine):
    query, stream = _fanout_files(tmp_path)
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["run", "--query", query, "--stream", stream, "--engine", engine]) == 0
    with open(stream, encoding="utf-8") as fh:
        found = eval_cel_oracle(parse_query(FANOUT_TEXT), TimedStream(read_stream(fh)))
    expected = sorted(found, key=cli.ce_sort_key)
    ends = sorted({ce.end for ce in expected})
    assert len(ends) == _FANOUT_TYPES.count("B") and len(expected) > 2 * len(ends)
    assert "".join(out.writes) == "".join(match_json(ce, ce.end) + "\n" for ce in expected)
    assert len(out.writes) == len(ends)
    assert [{json.loads(line)["end"] for line in w.splitlines()} for w in out.writes] == [{e} for e in ends]


@pytest.mark.parametrize("engine", ["oracle", "streaming"])
def test_bad_last_line_prints_earlier_matches_then_exits_3(capsys, tmp_path, query_file, stream_file, engine):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(Path(stream_file).read_text(encoding="utf-8") + "not json\n", encoding="utf-8")
    code, out, err = _run(
        capsys, ["run", "--query", query_file, "--stream", str(bad), "--engine", engine]
    )
    assert code == 3 and "line 10" in err
    if engine == "streaming":
        assert json.loads(out)["bindings"] == {"T": [5, 6, 7], "X": [4], "Y": [8]}
    else:  # the oracle engine loads the whole stream before it matches
        assert out == ""


def test_streaming_run_builds_no_timed_stream(capsys, monkeypatch, stream_file, query_file):
    import tcer.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the streaming engine loaded the whole stream")

    monkeypatch.setattr(tcer.cli, "TimedStream", refuse)
    code, out, err = _run(
        capsys, ["run", "--query", query_file, "--stream", stream_file, "--engine", "streaming"]
    )
    assert code == 0, err
    assert json.loads(out)["end"] == 8


def _cli_env(unbuffered: bool) -> dict:
    """The environment for a ``python -m tcer.cli`` child, with
    ``PYTHONUNBUFFERED`` set or unset."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_run_prints_the_same_bytes_unbuffered(tmp_path):
    rng = random.Random(3)
    query, stream = _fanout_files(tmp_path, "".join(rng.choice("AB") for _ in range(300)))
    argv = [sys.executable, "-m", "tcer.cli", "run", "--query", query, "--stream", stream, "--engine", "streaming"]
    outputs = [
        subprocess.run(argv, env=_cli_env(unbuffered), capture_output=True, check=True, timeout=60).stdout
        for unbuffered in (False, True)
    ]
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) > 300


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_quietly(tmp_path, unbuffered):
    query = tmp_path / "a.tcel"
    query.write_text("A\n", encoding="utf-8")
    stream = tmp_path / "many.jsonl"
    stream.write_text(
        "".join(f'{{"type": "A", "ts": {i}}}\n' for i in range(1, 3001)), encoding="utf-8"
    )
    argv = [sys.executable, "-m", "tcer.cli", "run", "--query", str(query), "--stream", str(stream)]
    env = _cli_env(unbuffered)
    proc = subprocess.Popen(
        argv + ["--engine", "streaming"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert json.loads(proc.stdout.readline())["end"] == 1
    proc.stdout.close()  # more output than a pipe holds is still to come
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_a_match_reaches_a_pipe_before_the_input_ends(tmp_path):
    """On a live feed through pipes, a match is written out once its position
    is evaluated, not held in the output buffer until the input ends."""
    query = tmp_path / "ab.tcel"
    query.write_text("A as X ; B as Y\n", encoding="utf-8")
    argv = [sys.executable, "-m", "tcer.cli", "run", "--query", str(query), "--stream", "/dev/stdin"]
    proc = subprocess.Popen(
        argv + ["--engine", "streaming"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(False),
    )
    try:
        proc.stdin.write(b'{"type": "A", "ts": 1}\n{"type": "B", "ts": 2}\n')
        proc.stdin.flush()
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            assert selector.select(timeout=10), "no match before the input ended"
        line = proc.stdout.readline()
    finally:
        proc.stdin.close()
        code = proc.wait(timeout=60)
        proc.stdout.close()
        proc.stderr.close()
    assert json.loads(line)["bindings"] == {"A": [1], "B": [2], "X": [1], "Y": [2]}
    assert code == 0


# -- what a start costs --------------------------------------------------------


def test_the_cli_loads_neither_dataclasses_nor_the_region_search():
    """Each ``tcer run`` is a fresh interpreter that imports ``tcer.cli``:
    every module that import adds is paid for before the first event."""
    probe = (
        "import sys; before = set(sys.modules); import tcer.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    added = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "tcer.engine" in added
    assert not {"dataclasses", "inspect", "tcer.regions"} & set(added)


def test_no_source_module_imports_dataclasses():
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in (alias.name for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_only_the_value_constructors_write_a_field():
    """A value class declares its fields once, in ``__slots__``:
    ``Value.__init__`` sets them, and only ``Event.__init__``, on the stream
    reader's path, writes its own.  Other code may set a ``_`` cache."""
    for path in Path(cli.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and path.name == "model.py" and cls.name in (
                "Value", "Event"
            ):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                        exempt.update(map(id, ast.walk(node)))
        for call in ast.walk(tree):
            if (
                isinstance(call, ast.Call)
                and id(call) not in exempt
                and ast.unparse(call.func) == "object.__setattr__"
            ):
                name = call.args[1]
                assert isinstance(name, ast.Constant) and name.value.startswith("_"), (
                    f"{path.name}:{call.lineno} writes {ast.unparse(name)}"
                )


def test_the_package_exports_check_sync_on_first_use():
    import tcer
    from tcer import regions

    assert "check_sync" in tcer.__all__
    assert tcer.check_sync is regions.check_sync
    with pytest.raises(AttributeError):
        tcer.no_such_name


# -- every bad input ends in its exit code ------------------------------------


def _run_stream(capsys, tmp_path, data: bytes, query: str = "A filter A[x < 2]", engine="streaming"):
    qpath, spath = tmp_path / "q.tcel", tmp_path / "s.jsonl"
    qpath.write_text(query, encoding="utf-8")
    spath.write_bytes(data)
    return _run(capsys, ["run", "--query", str(qpath), "--stream", str(spath), "--engine", engine])


@pytest.mark.parametrize("engine", ["oracle", "streaming"])
@pytest.mark.parametrize(
    "line",
    [
        '{"type": "A", "attrs": {"x": [1]}, "ts": 1}',
        '{"type": "A", "attrs": {"x": {"y": 1}}, "ts": 1}',
        '{"type": "A", "attrs": {"x": NaN}, "ts": 1}',
        '{"type": "A", "attrs": {"x": ' + "9" * 4500 + '}, "ts": 1}',
        '{"type": "A", "ts": ' + "9" * 4500 + "}",
        "[" * 100_000,
        '{"type": "A", "ts": true}',
        '{"type": "A", "ts": "1e999999999"}',
        '{"type": "A", "ts": 1e999999999}',
        '{"type": "A", "attrs": {"x": 1e-999999999}, "ts": 1}',
        '{"type": "A", "ts": "1/0"}',
    ],
    ids=["list", "object", "nan", "huge-int-attr", "huge-int-ts", "deep", "bool-ts",
         "huge-exponent-string", "huge-exponent-number", "huge-negative-exponent",
         "zero-denominator-ts"],
)
def test_bad_stream_line_exits_3(capsys, tmp_path, line, engine):
    code, out, err = _run_stream(capsys, tmp_path, (line + "\n").encode(), engine=engine)
    assert code == 3 and err.startswith("line 1: ")
    assert out == ""


def test_non_utf8_stream_exits_3(capsys, tmp_path):
    code, _, err = _run_stream(capsys, tmp_path, b'{"type": "A", "ts": 1}\n\xff\xfe\n')
    assert code == 3 and "UTF-8" in err


@pytest.mark.parametrize("engine", ["oracle", "streaming"])
@pytest.mark.parametrize("value", ["null", "true", "false", '"b"', "1.5"])
def test_scalar_attribute_values_are_accepted(capsys, tmp_path, value, engine):
    """Only a string satisfies a string comparison; a boolean satisfies none."""
    line = '{"type": "A", "attrs": {"x": %s}, "ts": 1}\n' % value
    for query, hit in (("A as X filter X[x != 'a']", value == '"b"'), ("A as X filter X[x == 'a']", False)):
        code, out, err = _run_stream(capsys, tmp_path, line.encode(), query=query, engine=engine)
        assert code == 0, err
        assert bool(out) == hit


@pytest.mark.parametrize("engine", ["oracle", "streaming"])
def test_ordered_comparison_with_a_string_exits_3(capsys, tmp_path, engine):
    line = b'{"type": "A", "attrs": {"x": "b"}, "ts": 1}\n'
    query = "A as X filter X[x < 'c']"
    code, out, err = _run_stream(capsys, tmp_path, line, query=query, engine=engine)
    assert (code, out) == (3, "")
    assert "needs a number constant" in err and "column 21" in err


@pytest.mark.parametrize(
    "query", ["A ;[0," + "9" * 5000 + "] B", "A filter A[x < " + "9" * 5000 + "]"], ids=["interval", "filter"]
)
def test_oversized_query_number_exits_3(capsys, tmp_path, query):
    code, _, err = _run_stream(capsys, tmp_path, b'{"type": "A", "ts": 1}\n', query=query, engine="oracle")
    assert code == 3 and "digits" in err


def test_non_utf8_query_exits_3(capsys, tmp_path, stream_file):
    query = tmp_path / "q.tcel"
    query.write_bytes(b"A \xff")
    code, _, err = _run(capsys, ["run", "--query", str(query), "--stream", stream_file, "--engine", "oracle"])
    assert code == 3 and "UTF-8" in err


def _automaton(tmp_path, text: str) -> str:
    path = tmp_path / "a.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _compiled(tmp_path, capsys) -> dict:
    query = tmp_path / "q.tcel"
    query.write_text("(A as X ;[0,1] B) within [0,2]", encoding="utf-8")
    out = tmp_path / "c.json"
    assert _run(capsys, ["compile", "--windowed", "--query", str(query), "-o", str(out)])[0] == 0
    return json.loads(out.read_text(encoding="utf-8"))


def _with_deep_predicate(doc: dict, depth: int) -> str:
    """The document with its first predicate under ``depth`` negations."""
    pred = '{"kind": "not", "body": ' * depth + '{"kind": "true"}' + "}" * depth
    doc = json.loads(json.dumps(doc))
    doc["transitions"][0]["pred"] = "PRED"
    return json.dumps(doc).replace('"PRED"', pred)


def _with_guard_constant(doc: dict, constant: str) -> str:
    """The document with every clock constant replaced by ``constant``."""
    def walk(node):
        if isinstance(node, dict):
            return {k: constant if k == "constant" else walk(v) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    text = json.dumps(walk(doc))
    assert constant in text
    return text


@pytest.mark.parametrize("command", ["determinize", "check-sync"])
def test_bad_automaton_file_exits_3_naming_the_field(capsys, tmp_path, command):
    doc = _compiled(tmp_path, capsys)
    cases = [
        ('{"states": 1}', "states"),
        (json.dumps(dict(doc, initial=len(doc["states"]))), "initial"),
        (json.dumps(dict(doc, clocks=[])), "clock"),
        (_with_deep_predicate(doc, 3000), "JSON"),
        ("{", "JSON"),
        (_with_guard_constant(doc, "1/0"), "zero denominator"),
    ]
    for text, field in cases:
        argv = [command, "--automaton", _automaton(tmp_path, text)]
        if command == "determinize":
            argv += ["-o", str(tmp_path / "d.json")]
        code, _, err = _run(capsys, argv)
        assert code == 3 and field in err, (text[:40], err)


@pytest.mark.parametrize("command", ["determinize", "check-sync"])
def test_automaton_with_ordered_string_comparison_exits_3(capsys, tmp_path, command):
    doc = _compiled(tmp_path, capsys)
    doc["transitions"][1]["pred"] = {"kind": "basic", "attr": "x", "op": ">=", "value": "c"}
    argv = [command, "--automaton", _automaton(tmp_path, json.dumps(doc))]
    if command == "determinize":
        argv += ["-o", str(tmp_path / "d.json")]
    code, _, err = _run(capsys, argv)
    assert code == 3 and "transitions[1]" in err and "needs a number constant" in err


def test_automaton_with_a_string_constant_holding_both_quotes_exits_3(capsys, tmp_path):
    doc = _compiled(tmp_path, capsys)
    doc["transitions"][1]["pred"] = {"kind": "basic", "attr": "x", "op": "==", "value": "a'b\"c"}
    argv = ["determinize", "--automaton", _automaton(tmp_path, json.dumps(doc)), "-o", str(tmp_path / "d.json")]
    code, _, err = _run(capsys, argv)
    assert code == 3 and "transitions[1]" in err and "both quote marks" in err


def test_automaton_predicate_depth_is_bounded(capsys, tmp_path):
    doc = _compiled(tmp_path, capsys)
    for depth, code in ((MAX_QUERY_DEPTH, 0), (MAX_QUERY_DEPTH + 1, 3)):
        path = _automaton(tmp_path, _with_deep_predicate(doc, depth))
        got, out, err = _run(capsys, ["check-sync", "--automaton", path])
        assert got == code, err
        assert code == 3 or json.loads(out)["verdict"] == "yes"


def _nested_guard(depth: int) -> dict:
    guard = {"kind": "true"}
    for _ in range(depth):
        guard = {"kind": "and", "left": guard, "right": {"kind": "true"}}
    return guard


@pytest.mark.parametrize("command", ["determinize", "check-sync"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("pred", {"kind": "maybe"}, "transitions[0].pred: unknown predicate kind 'maybe'"),
        (
            "guard",
            {"kind": "xor", "left": {"kind": "true"}, "right": {"kind": "true"}},
            "transitions[0].guard: unknown guard kind 'xor'",
        ),
        (
            "guard",
            {"kind": "cmp", "clock": "zx", "op": "!=", "constant": "1/1"},
            "transitions[0]: unknown clock comparator '!='",
        ),
        (
            "pred",
            {"kind": "basic", "attr": "x", "op": "~", "value": 1},
            "transitions[0]: unknown comparison '~'",
        ),
        ("label", ["Q"], "transitions[0].label: unknown variable"),
        ("guard", _nested_guard(120), f"transitions[0].guard: nested deeper than {MAX_QUERY_DEPTH}"),
    ],
    ids=["pred-kind", "guard-kind", "clock-comparator", "comparison", "label", "deep-guard"],
)
def test_a_bad_transition_field_exits_3_naming_it(capsys, tmp_path, command, field, value, message):
    doc = _compiled(tmp_path, capsys)
    doc["transitions"][0][field] = value
    argv = [command, "--automaton", _automaton(tmp_path, json.dumps(doc))]
    if command == "determinize":
        argv += ["-o", str(tmp_path / "d.json")]
    code, _, err = _run(capsys, argv)
    assert code == 3 and message in err, err


@pytest.mark.parametrize("flag", ["--query", "--stream"])
def test_directory_path_exits_2(capsys, tmp_path, stream_file, query_file, flag):
    paths = {"--query": query_file, "--stream": stream_file, flag: str(tmp_path)}
    argv = ["run", "--engine", "streaming"] + [x for kv in paths.items() for x in kv]
    code, _, err = _run(capsys, argv)
    assert code == 2 and err


def test_directory_automaton_exits_2(capsys, tmp_path):
    code, _, err = _run(capsys, ["check-sync", "--automaton", str(tmp_path)])
    assert code == 2 and err


# -- the engine's reader prints what the default reader prints ---------------


DIFF_QUERIES = [
    PHI2_TEXT,
    "A as X filter X[x < 2.5]",
    "(A as X ; B as Y) filter (X[x == 1] and Y[x >= 0.5])",
    "A as X filter X[x != 'a']",
    "A as X filter X[x == '2.5']",
    "((A as X ; B as Y) within [0, 3]) filter (X[x > 0.333333333333] and Y[hum <= 1.5])",
]


def _number_text(rng: random.Random) -> str:
    """A number near the queries' constants, in one of the forms a line can
    give it: an int, a plain decimal with 0-12 places, an exponent form."""
    whole = rng.choice([0, 1, 2, 30]) + rng.randint(-2, 2)
    places = "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 12)))
    form = rng.randrange(4)
    if form == 0:
        return str(whole)
    if form == 1:
        return rng.choice(["1", "2.5", "0.5", "30", "0.333333333333", "0.3333333333333"])
    if form == 2:
        return f"{rng.randint(-40, 400)}{rng.choice('eE')}{rng.randint(-2, 1)}"
    return f"{whole}.{places or '0'}"


def _mixed_stream(rng: random.Random, n: int) -> str:
    """Lines whose read and unread attributes (``x``, ``hum``; ``y``) take
    every kind of value, timed by strings and by numbers."""
    lines, t = [], Fraction(0)
    for _ in range(n):
        t += Fraction(rng.randint(1, 1500), 1000)
        ts = format_rat(t) if rng.random() < 0.5 else json.dumps(format_rat(t))
        attrs = []
        for name in ("x", "hum", "y"):
            kind = rng.randrange(8)
            if kind == 0:
                continue
            if kind == 1:
                value = rng.choice(["true", "false", "null", '"a"', '"2.5"'])
            elif kind == 2:
                value = json.dumps(_number_text(rng))
            else:
                value = _number_text(rng)
            attrs.append(f'"{name}": {value}')
        lines.append(f'{{"type": "{rng.choice("ABHT")}", "attrs": {{{", ".join(attrs)}}}, "ts": {ts}}}\n')
    return "".join(lines)


def _library_run(query: str, path) -> tuple[int, str, str]:
    """``tcer run --engine streaming`` composed from the default reader and
    ``feed``: the exit code, stdout and stderr it gives."""
    engine = cli.streaming_engine(parse_query(query))
    out = []
    try:
        with open(path, encoding="utf-8") as fh:
            for event, ts in read_stream(fh):
                for ce in sorted(engine.feed(event, ts), key=cli.ce_sort_key):
                    out.append(match_json(ce, ce.end) + "\n")
    except StreamFormatError as exc:
        return 3, "".join(out), f"{exc}\n"
    return 0, "".join(out), ""


def _three_runs(capsys, tmp_path, query: str, data: str):
    path = tmp_path / "s.jsonl"
    path.write_text(data, encoding="utf-8")
    streamed = _run_stream(capsys, tmp_path, data.encode(), query=query)
    oracle = _run_stream(capsys, tmp_path, data.encode(), query=query, engine="oracle")
    return streamed, _library_run(query, path), oracle


@pytest.mark.parametrize("seed", range(6))
def test_the_engine_reader_prints_what_the_default_reader_and_the_oracle_print(capsys, tmp_path, seed):
    rng = random.Random(seed)
    data = _mixed_stream(rng, 40)
    for query in DIFF_QUERIES:
        streamed, library, oracle = _three_runs(capsys, tmp_path, query, data)
        assert streamed == library == oracle, query
        assert streamed[0] == 0


# Every bad line of ``test_bad_stream_line_exits_3``, every odd number of
# ``test_cli_fuzz`` in each place a line holds a number, and the lines the
# default reader refuses for their shape or their time.
BAD_LINES = [
    '{"type": "A", "attrs": {"x": [1]}, "ts": 1}',
    '{"type": "A", "attrs": {"x": {"y": 1}}, "ts": 1}',
    '{"type": "A", "attrs": {"x": NaN}, "ts": 1}',
    '{"type": "A", "attrs": {"x": ' + "9" * 4500 + '}, "ts": 1}',
    '{"type": "A", "ts": ' + "9" * 4500 + "}",
    "[" * 100_000,
    '{"type": "A", "ts": true}',
    '{"type": "A", "ts": "1e999999999"}',
    '{"type": "A", "ts": 1e999999999}',
    '{"type": "A", "attrs": {"x": 1e-999999999}, "ts": 1}',
    '{"type": "A", "ts": "1/0"}',
    '{"type": "A", "attrs": {"y": 1e999999999}, "ts": 1}',
    '{"type": "A", "attrs": {"y": 0.' + "1" * 1000 + '}, "ts": 1}',
    '{"type": "A", "attrs": {"y": [1e999999999]}, "ts": 1}',
    '{"type": "A", "attrs": {"y": 1e999999999} "ts": 1}',
    '{"type": "A", "attrs": {"y": [1]}, "ts": "x"}',
    '{"type": "A", "attrs": {"x": 1}, "ts": 0.5}',
    '{"type": "A", "ts": "0.75"} x',
    '{"type": "A"}',
    '{"ts": 1}',
    '{"type": 1, "ts": 1}',
    '{"type": "A", "attrs": [], "ts": 1}',
    "1.5",
    '"A"',
    *[
        form % number
        for number in ODD_NUMBERS
        for form in (
            '{"type": "A", "attrs": {"x": %s}, "ts": 99}',
            '{"type": "A", "attrs": {"y": %s}, "ts": 99}',
            '{"type": "A", "ts": %s}',
            '{"type": "A", "ts": "%s"}',
        )
    ],
]


def test_the_engine_reader_fails_a_bad_line_as_the_default_reader_does(capsys, tmp_path):
    """The same matches before the line, then the same exit code and message;
    an unread attribute past ``MAX_DIGITS`` still exits 3."""
    head = '{"type": "A", "attrs": {"x": 1}, "ts": 0.25}\n{"type": "A", "attrs": {"x": 1.5}, "ts": "0.5"}\n'
    codes = Counter()
    for line in BAD_LINES:
        streamed, library, oracle = _three_runs(capsys, tmp_path, "A filter A[x < 2]", head + line + "\n")
        assert streamed == library, line[:80]
        assert (streamed[0], streamed[2]) == (oracle[0], oracle[2]), line[:80]
        codes[streamed[0]] += 1
        if streamed[0] == 3:
            assert streamed[1].count("\n") == 2 and streamed[2].startswith("line 3: ")
    assert codes[3] > 40 and set(codes) == {0, 3}
    unread = '{"type": "A", "attrs": {"y": 1e999999999}, "ts": 1}'
    code, _, err = _run_stream(capsys, tmp_path, (head + unread + "\n").encode())
    assert code == 3 and err == "line 3: invalid JSON: number longer than 1000 digits\n"


@pytest.mark.parametrize("engine", ["oracle", "streaming"])
@pytest.mark.parametrize(
    "form",
    [
        '{"type": "A", "attrs": {"x": %s}, "ts": 1}',
        '{"type": "A", "attrs": {"y": %s}, "ts": 1}',
        '{"type": "A", "ts": %s}',
    ],
    ids=["read", "unread", "ts"],
)
def test_an_integer_past_max_digits_exits_3_as_its_fraction_does(capsys, tmp_path, form, engine):
    """A JSON integer of 2,000 nines gets the message that the same digits
    with ``.5`` appended get: in an attribute the query reads, in one it
    does not, and as the timestamp.  ``MAX_DIGITS`` nines are a number."""
    nines = "9" * 2000
    runs = [
        _run_stream(capsys, tmp_path, (form % text + "\n").encode(), engine=engine)
        for text in (nines, nines + ".5")
    ]
    refusal = f"line 1: invalid JSON: number longer than {MAX_DIGITS} digits\n"
    assert runs[0] == runs[1] == (3, "", refusal)
    line = form % ("9" * MAX_DIGITS) + "\n"
    code, _, err = _run_stream(capsys, tmp_path, line.encode(), engine=engine)
    assert code == 0, err


@pytest.mark.parametrize("clocks", [1, 25])
def test_a_50_level_and_of_or_guard_determinizes_in_seconds_or_exits_3(capsys, tmp_path, clocks):
    """An ``and`` of 25 ``or``s, 50 levels deep.  On one clock it loads as
    two boxes, and ``determinize`` writes two transitions for it; on 25
    clocks its cells would be 3^25, and the file exits 3 naming the
    transition."""
    names = [f"z{i}" for i in range(clocks)]
    guard = {"kind": "true"}
    for i in range(25):
        z = names[i % clocks]
        either = {"kind": "or", "left": _clock_cmp(z, "<=", "1"), "right": _clock_cmp(z, ">=", "2")}
        guard = {"kind": "and", "left": either, "right": guard}
    out = tmp_path / "d.json"
    start = time.perf_counter()
    path = _automaton(tmp_path, json.dumps(_guarded(names, guard)))
    code, _, err = _run(capsys, ["determinize", "--automaton", path, "-o", str(out)])
    assert time.perf_counter() - start < 10
    if clocks == 1:
        assert code == 0, err
        assert len(json.loads(out.read_text(encoding="utf-8"))["transitions"]) == 3
    else:
        assert code == 3
        assert f"transitions[1].guard: more than {MAX_GUARD_ENTRIES} cell entries" in err


def _clock_cmp(clock: str, op: str, constant: str) -> dict:
    return {"kind": "cmp", "clock": clock, "op": op, "constant": constant}


def _or(guards: list[dict]) -> dict:
    out = {"kind": "false"}
    for g in guards:
        out = {"kind": "or", "left": g, "right": out}
    return out


def _and(guards: list[dict]) -> dict:
    out = {"kind": "true"}
    for g in guards:
        out = {"kind": "and", "left": g, "right": out}
    return out


_XYZ = ["x", "y", "z"]
_SIXTEEN = [f"z{i:02d}" for i in range(16)]


@pytest.mark.parametrize(
    "clocks, guard, refusal",
    [
        (
            _XYZ,
            _or([_and([_clock_cmp(z, "<=", str(10 + i)) for z in _XYZ]) for i in range(40)]),
            f"more than {MAX_GUARD_ENTRIES} cell entries",
        ),
        (
            _SIXTEEN,
            _or([_clock_cmp(z, ">", "0") for z in _SIXTEEN]),
            f"more than {MAX_GUARD_ENTRIES} cell entries",
        ),
        (["x"], _or([_clock_cmp("x", "=", str(i)) for i in range(17)]), f"more than {MAX_GUARD_BOXES} boxes"),
    ],
    ids=["nested-boxes", "sixteen-clocks", "seventeen-points"],
)
def test_a_guard_past_a_cap_exits_3_within_a_second(capsys, tmp_path, clocks, guard, refusal):
    """Refused, naming the transition: 40 nested boxes on three clocks (41^3
    cells of 126 entries) and an ``or`` of 16 clocks each above 0 (2^16
    cells of 48 entries), which would take seconds to decide and join,
    before the cells are made; an ``or`` of 17 points, which loads as 17
    boxes, after."""
    path = _automaton(tmp_path, json.dumps(_guarded(clocks, guard)))
    start = time.perf_counter()
    code, _, err = _run(capsys, ["determinize", "--automaton", path, "-o", str(tmp_path / "d.json")])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert err == f"transitions[1].guard: {refusal}\n"


def _guarded(clocks: list[str], guard: dict) -> dict:
    """An automaton file: a transition that resets ``clocks``, then one
    under ``guard``."""
    true = {"kind": "true"}
    return {
        "states": ["0", "1", "2"], "vars": ["X"], "clocks": clocks, "initial": 0, "finals": [2],
        "transitions": [
            {"source": 0, "pred": true, "guard": true, "label": ["X"], "resets": clocks, "target": 1},
            {"source": 1, "pred": true, "guard": guard, "label": ["X"], "resets": [], "target": 2},
        ],
    }


@FUZZ
@given(query=st.sampled_from([QUERIES[0], *QUERIES[2:6]]), stream=stream_lines())
def test_the_engine_reader_agrees_with_the_default_reader_on_fuzzed_streams(query, stream):
    """The fuzzed streams of ``test_cli_fuzz``, odd values and bad lines
    among them: the same output, exit code and message."""
    with tempfile.TemporaryDirectory() as tmp:
        qpath, spath = Path(tmp, "q.tcel"), Path(tmp, "s.jsonl")
        qpath.write_text(query, encoding="utf-8")
        spath.write_text(stream, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--query", str(qpath), "--stream", str(spath), "--engine", "streaming"])
        assert (code, out.getvalue(), err.getvalue()) == _library_run(query, spath)


def test_diff_test_streams_each_case_through_the_engine_reader(capsys, monkeypatch):
    """A parser that loses the attributes an engine reads is caught: the
    line-by-line run of a streamed case disagrees with the oracle."""
    parse = cli._parse

    def lossy(line, lineno, reads, scale):
        etype, values, time = parse(line, lineno, reads, scale)
        return etype, values if reads is None else {}, time

    monkeypatch.setattr(cli, "_parse", lossy)
    code, _, err = _run(capsys, ["diff-test", "--seed", "1", "--cases", "200", "--max-stream", "8"])
    assert code == 1
    assert "streaming engine disagrees on stream lines for" in err
