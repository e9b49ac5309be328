"""Every CLI input ends in a documented exit code (0-3), never a traceback.

Random JSON Lines streams and random query text go to ``run`` on all three
engines, and random automaton documents to ``determinize`` and
``check-sync``.  ``cli.main`` runs in-process; an exception escaping it
fails the test.  CI runs these with ``--hypothesis-profile=ci`` for more
examples.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from tcer.cea import cea_to_json
from tcer.cli import main
from tcer.compiler import compile_cel, compile_windowed
from tcer.parser import parse_query, pretty
from tcer.randgen import random_formula

from conftest import PHI1P_TEXT, PHI2_TEXT

FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

ODD_NUMBERS = [
    "1e999999999", "-1e999999999", "1e-999999999", "9" * 5000, "0." + "1" * 5000,
    "1E400", "nan", "inf", "-0", "0", "-1", "1/3", " 2 ", "1_0", "", "x", "1e", "1.",
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

QUERIES = [
    PHI2_TEXT,
    PHI1P_TEXT,
    "A filter A[x < 2]",
    "A as X filter X[x == 'a']",
    "A as X filter X[x != 'a']",
    "(A as X ; B as Y) filter (X[x == 1] and Y[x >= 0.5])",
    "pi {X} ((A as X ;[0,2] B) within [0,3])",
    "A (+)[0,1]",
]

QUERY_TOKENS = [
    "A", "B", "H", "T", "X", "Y", "as", "filter", "or", "and", "within", "pi", "not",
    "true", "inf", ";", ":", "+", "(+)", "(", ")", "[", "]", "{", "}", ",", "<", "<=",
    "==", "!=", "x", "hum", "0", "1", "2.5", "'a'", "9" * 5000, "#",
]


@st.composite
def query_texts(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.sampled_from(QUERIES))
    if kind == 1:
        rng = random.Random(draw(st.integers(0, 10_000)))
        return pretty(random_formula(rng, rng.randint(1, 3)))
    return " ".join(draw(st.lists(st.sampled_from(QUERY_TOKENS), max_size=12)))


@st.composite
def stream_lines(draw):
    """Mostly well-formed events with increasing times, with odd attribute
    values throughout and sometimes one bad line among them."""
    lines = []
    for i in range(draw(st.integers(0, 6))):
        attrs = draw(st.dictionaries(st.sampled_from(["x", "hum", "temp"]), JSON_VALUES, max_size=2))
        event = {"type": draw(st.sampled_from(["A", "B", "H", "T"])), "attrs": attrs, "ts": str(i + 1)}
        lines.append(json.dumps(event))
    bad = draw(
        st.none()
        | st.builds(lambda ts: json.dumps({"type": "A", "ts": ts}), JSON_VALUES | st.sampled_from(ODD_NUMBERS))
        | st.builds(lambda num: '{"type": "A", "attrs": {"x": %s}, "ts": 99}' % num, st.sampled_from(ODD_NUMBERS))
        | st.builds(lambda num: '{"type": "A", "ts": %s}' % num, st.sampled_from(ODD_NUMBERS))
        | st.builds(json.dumps, JSON_VALUES)
        | st.sampled_from(["[" * 100_000, "{" * 100_000, '{"type": "A"}', '{"ts": 1}'])
        | st.text(max_size=10)
    )
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + "\n"


def _main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@FUZZ
@given(query=query_texts(), stream=stream_lines())
def test_run_fuzz_ends_in_an_exit_code(query, stream):
    with tempfile.TemporaryDirectory() as tmp:
        qpath, spath = Path(tmp, "q.tcel"), Path(tmp, "s.jsonl")
        qpath.write_text(query, encoding="utf-8")
        spath.write_text(stream, encoding="utf-8")
        for engine in ("oracle", "streaming"):
            argv = ["run", "--query", str(qpath), "--stream", str(spath), "--engine", engine]
            assert _main(argv) in (0, 1, 2, 3)


AUTOMATA = [cea_to_json(compile_cel(parse_query(text))) for text in QUERIES[2:]] + [
    cea_to_json(compile_windowed(parse_query(PHI2_TEXT)))
]


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


@st.composite
def automaton_texts(draw):
    """A compiled automaton with one field replaced, a deep predicate, or
    any JSON at all."""
    kind = draw(st.integers(0, 2))
    doc = draw(st.sampled_from(AUTOMATA))
    if kind == 0:
        path = draw(st.sampled_from(list(_paths(doc))))
        odd = JSON_VALUES | st.sampled_from(ODD_NUMBERS) | st.integers(-2, 6)
        return json.dumps(_replaced(doc, path, draw(odd)))
    if kind == 1:
        depth = draw(st.sampled_from([50, 150, 3000]))
        pred = '{"kind": "not", "body": ' * depth + '{"kind": "true"}' + "}" * depth
        return json.dumps(_replaced(doc, ("transitions", 0, "pred"), "PRED")).replace('"PRED"', pred)
    return json.dumps(draw(JSON_VALUES))


@FUZZ
@given(text=automaton_texts())
def test_automaton_fuzz_ends_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "a.json"), Path(tmp, "d.json")
        path.write_text(text, encoding="utf-8")
        assert _main(["determinize", "--automaton", str(path), "-o", str(out)]) in (0, 1, 2, 3)
        assert _main(["check-sync", "--automaton", str(path), "--cap", "2000"]) in (0, 1, 2, 3)
