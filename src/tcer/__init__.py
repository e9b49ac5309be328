"""Timed complex-event recognition: query language, clocked automata,
determinization, and constant-update streaming evaluation."""

from .cea import TimedCea, Transition, eval_cea_oracle, is_deterministic, is_monotonic
from .cel import classify, eval_cel_oracle
from .compiler import compile_cel, compile_windowed
from .determinize import SyncResetViolation
from .engine import NotStreamable, StreamingEngine
from .model import ComplexEvent, Event, Interval, TimedStream, rat
from .parser import parse_query, pretty

__all__ = [
    "ComplexEvent",
    "Event",
    "Interval",
    "NotStreamable",
    "StreamingEngine",
    "SyncResetViolation",
    "TimedCea",
    "TimedStream",
    "Transition",
    "check_sync",
    "classify",
    "compile_cel",
    "compile_windowed",
    "eval_cea_oracle",
    "eval_cel_oracle",
    "is_deterministic",
    "is_monotonic",
    "parse_query",
    "pretty",
    "rat",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "check_sync":  # loaded on first use: ``tcer run`` never needs it
        from .regions import check_sync

        return check_sync
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
