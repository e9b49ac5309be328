"""The command-line front end, driven through main(argv)."""

from __future__ import annotations

import json

import pytest

from tcer.cli import main, parse_stream_line, read_stream, StreamFormatError
from tcer.model import Basic
from tcer.parser import MAX_QUERY_DEPTH, parse_query, pretty

from conftest import PHI1P_TEXT, PHI2_TEXT, S0_ROWS, rewrite_ge40


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
    rows = ['{"type": "A", "ts": "2"}', '{"type": "A", "ts": "2"}']
    with pytest.raises(StreamFormatError):
        list(read_stream(rows))


@pytest.mark.parametrize(
    "line", ["not json", "[1,2]", '{"attrs": {}, "ts": "1"}', '{"type": "A", "ts": "x"}']
)
def test_bad_stream_lines(line):
    with pytest.raises(StreamFormatError):
        parse_stream_line(line, 7)


# -- three engines agree on the reference query -------------------------------


def test_engines_agree_on_reference_query(capsys, stream_file, query_file):
    outputs = []
    for engine in ("oracle", "automaton", "streaming"):
        code, out, err = _run(
            capsys,
            ["run", "--query", query_file, "--stream", stream_file, "--engine", engine],
        )
        assert code == 0, err
        outputs.append(sorted(out.splitlines()))
    assert outputs[0] == outputs[1] == outputs[2]
    match = json.loads(outputs[0][0])
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
    from tcer.cea import GTrue, TimedCea, Transition, cea_to_json
    from tcer.model import TrueP

    cea = TimedCea(
        states=frozenset({0, 1, 2}),
        vars=frozenset({"X"}),
        clocks=frozenset({"z"}),
        delta=(
            Transition(0, TrueP(), GTrue(), frozenset({"X"}), frozenset({"z"}), 1),
            Transition(0, TrueP(), GTrue(), frozenset({"X"}), frozenset(), 2),
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


@pytest.mark.parametrize("engine", ["oracle", "automaton", "streaming"])
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
    code, _, err = _run(
        capsys,
        ["run", "--query", str(query), "--stream", stream_file, "--engine", "streaming"],
    )
    assert code == 1
    assert "windowed" in err


# -- randomized differential smoke -------------------------------------------


def test_diff_test_passes(capsys):
    code, _, err = _run(
        capsys, ["diff-test", "--seed", "11", "--cases", "40", "--max-stream", "8"]
    )
    assert code == 0, err


def test_bench_reports_deciles(capsys, tmp_path, query_file):
    code, out, err = _run(
        capsys, ["bench", "--query", query_file, "--events", "200", "--seed", "1"]
    )
    assert code == 0, err
    report = json.loads(out)
    assert len(report["decile_mean_update_s"]) == 10
    assert report["nodes_created"] > 0


def test_bench_rejects_a_query_the_streaming_engine_refuses(capsys, tmp_path):
    query = tmp_path / "q1.tcel"
    query.write_text(PHI1P_TEXT + "\n", encoding="utf-8")
    code, out, err = _run(capsys, ["bench", "--query", str(query), "--events", "50"])
    assert code == 1 and out == ""
    assert err.startswith("streaming engine rejected the query: ")
