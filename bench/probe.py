"""A fixed CPU probe that measures how fast the machine runs Python right now.

The machine the benchmark runs on is shared, and its speed drifts by 15% and
more over tens of seconds, moving every timing of a run together.  The probe
runs the same stdlib-only work (exact fractions, JSON, dicts, small objects)
at intervals through the run; it touches nothing of the product, so a change
to the product cannot move it.  ``run.py`` divides each timing by the run's
median probe time relative to ``REFERENCE_S``.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

REFERENCE_S = 0.002
_LINE = '{"type": "H", "attrs": {"hum": 12.5, "temp": 31.25}, "ts": "1.25"}'


def probe() -> float:
    """Seconds for one fixed unit of interpreter work, run once to warm the
    caches and timed on the second run."""
    _work()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def _work() -> None:
    acc = Fraction(0)
    table: dict = {}
    for i in range(60):
        obj = json.loads(_LINE, parse_float=Fraction)
        acc += obj["attrs"]["hum"] - Fraction(i % 7, 100)
        key = (obj["type"], i % 13)
        table[key] = table.get(key, 0) + 1
        sorted(table, key=repr)
