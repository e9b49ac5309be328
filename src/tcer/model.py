"""Core data model: exact time values, events, streams, predicates, complex events.

Time values are exact rationals (``fractions.Fraction``); floats are never used
for timestamps or clock arithmetic.  Streams are sequences of ``(event, ts)``
pairs with strictly increasing timestamps, indexed from 1.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

Rational = Fraction

AttrValue = Union[int, Fraction, str]


# The most digits a number string may stand for: its length plus the zeros
# its exponent adds.  Without a bound "1e999999999" makes Fraction build a
# billion-digit power of ten, and Python's int/str conversions refuse more
# than 4300 digits.
MAX_DIGITS = 1000


# A plain decimal, ``-?digits(.digits)?`` in ASCII: the form stream numbers
# and timestamps take.  It is built from two ints, skipping ``Fraction``'s
# more general string parser, which every other form still goes to.
_PLAIN_DECIMAL = re.compile(r"(-?[0-9]+)(?:\.([0-9]+))?")


def rat(value: Union[int, str, Fraction]) -> Fraction:
    """Build an exact rational from an int, a Fraction, or a decimal string.

    ``rat("1.33")`` is exactly 133/100.  A string that stands for more than
    ``MAX_DIGITS`` digits, or a fraction over zero such as ``"1/0"``, raises
    ``ValueError``.
    """
    if isinstance(value, str):
        plain = _PLAIN_DECIMAL.fullmatch(value)
        if plain is not None:
            if len(value) > MAX_DIGITS:
                raise ValueError(f"number longer than {MAX_DIGITS} digits")
            whole, frac = plain.groups()
            if frac is None:
                return Fraction(int(whole))
            return Fraction(int(whole + frac), 10 ** len(frac))
        mantissa, _, exponent = value.lower().partition("e")
        if len(mantissa) + abs(int(exponent or 0)) > MAX_DIGITS:
            raise ValueError(f"number longer than {MAX_DIGITS} digits")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not time values")
    if isinstance(value, float):
        # Floats only enter through sloppy callers; round-trip through the
        # shortest decimal repr so "0.1" means 1/10, not the binary float.
        return Fraction(repr(value))
    return Fraction(value)


class DecimalText(str):
    """A number's text in plain decimal form within ``MAX_DIGITS``, which
    ``to_units`` reads without matching it."""

    __slots__ = ()


def number_text(text: str) -> Union[DecimalText, Fraction]:
    """``parse_float`` and ``parse_int`` for a JSON decoder: a plain decimal
    within ``MAX_DIGITS`` stays its text, and any other form is read by
    ``rat``, so the decoder refuses a number past ``MAX_DIGITS`` wherever it
    stands."""
    if len(text) > MAX_DIGITS or "e" in text or "E" in text:
        return rat(text)
    return DecimalText(text)


def to_units(value: Union[int, str, Fraction], scale: int) -> Union[int, Fraction]:
    """``rat(value)`` counted in units of ``1/scale``, exactly: an int when
    the count is whole, else a ``Fraction``.  An int is multiplied, and a
    plain decimal string is read from its digits, a ``DecimalText`` without
    a match; any other value goes through ``rat`` and raises as it does."""
    kind = type(value)
    if kind is int:
        return value * scale
    if kind is Fraction:
        n, d = value.as_integer_ratio()
    elif kind is DecimalText or (
        isinstance(value, str) and len(value) <= MAX_DIGITS and _PLAIN_DECIMAL.fullmatch(value)
    ):
        whole, _, frac = value.partition(".")
        n, d = int(whole + frac), 10 ** len(frac)
    else:
        n, d = rat(value).as_integer_ratio()
    q, r = divmod(scale, d)
    if r == 0:
        return n * q
    n *= scale
    return Fraction(n, d) if n % d else n // d


# ---------------------------------------------------------------------------
# Intervals over the non-negative rationals: time windows, gaps, guard boxes.
# ---------------------------------------------------------------------------


class Interval(namedtuple("Interval", "low high low_closed high_closed")):
    """An interval of non-negative rationals, possibly unbounded above: the
    values of a time window or gap, and of one clock in a guard box.

    ``high is None`` means +infinity (and then ``high_closed`` is False).
    The constructor checks its bounds; the operations build their results
    with ``_make``, which skips the check.
    """

    __slots__ = ()

    def __new__(
        cls,
        low: Fraction,
        high: Optional[Fraction],
        low_closed: bool = True,
        high_closed: bool = True,
    ) -> "Interval":
        if low < 0:
            raise ValueError("interval bound below zero")
        if high is None:
            high_closed = False
        elif high < low:
            raise ValueError("empty interval: high < low")
        elif high == low and not (low_closed and high_closed):
            raise ValueError("empty interval: open at the single point")
        return super().__new__(cls, low, high, low_closed, high_closed)

    # Each operation compares two ends once, with ``<`` or ``<=`` as their
    # closedness decides a tie: Fraction comparisons are most of its cost.

    @classmethod
    def of(cls, op: str, c: Fraction) -> Optional["Interval"]:
        """The non-negative values ``v`` with ``v op c`` (``op`` one of
        ``<= < >= > =``, or ``==`` as ``=``); None when there is none.  A
        negative ``c`` under ``>=`` or ``>`` gives ``[0, inf)``."""
        if op in (">=", ">"):
            if c < 0:
                return cls._make((Fraction(0), None, True, False))
            return cls._make((c, None, op == ">=", False))
        if (c <= 0) if op == "<" else (c < 0):
            return None
        if op in ("<=", "<"):
            return cls._make((Fraction(0), c, True, op == "<="))
        return cls._make((c, c, True, True))

    def meet(self, other: "Interval") -> Optional["Interval"]:
        """The intersection, or None when it is empty."""
        lo1, hi1, lc1, hc1 = self
        lo2, hi2, lc2, hc2 = other
        # the higher low end; at a tie, the open one
        lo, lc = (lo1, lc1) if ((lo2 <= lo1) if lc2 else (lo2 < lo1)) else (lo2, lc2)
        # the lower high end; at a tie, the open one
        if hi1 is None or (hi2 is not None and ((hi2 <= hi1) if not hc2 else (hi2 < hi1))):
            hi, hc = hi2, hc2
        else:
            hi, hc = hi1, hc1
        if hi is not None and ((hi < lo) if lc and hc else (hi <= lo)):
            return None
        return self._make((lo, hi, lc, hc))

    def contains(self, value: Fraction) -> bool:
        low, high, low_closed, high_closed = self
        return (low <= value if low_closed else low < value) and (
            high is None or (value <= high if high_closed else value < high)
        )

    def __str__(self) -> str:
        lo = "[" if self.low_closed else "("
        hi_val = "inf" if self.high is None else format_rat(self.high)
        hi = "]" if self.high_closed else ")"
        return f"{lo}{format_rat(self.low)},{hi_val}{hi}"


def format_rat(value: Fraction) -> str:
    """Render a rational: as a decimal when the denominator is 10^k, else n/d."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    d = den
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d == 1:
        # denominator divides some power of ten; print exact decimal
        k = 0
        scaled = value
        while scaled.denominator != 1:
            scaled *= 10
            k += 1
        digits = str(abs(scaled.numerator)).rjust(k + 1, "0")
        sign = "-" if num < 0 else ""
        return f"{sign}{digits[:-k]}.{digits[-k:]}"
    return f"{num}/{den}"


# ---------------------------------------------------------------------------
# Immutable value classes
# ---------------------------------------------------------------------------


class Value:
    """Base of the immutable value classes: syntax nodes, predicates, guards,
    transitions and automata.

    A subclass lists its fields in ``__slots__``, after its base's, and
    ``__init__`` takes them in that order, positionally or by name, as a
    frozen dataclass does.  A subclass that converts or checks its arguments
    keeps its own signature and passes the results to ``super().__init__``.
    Assignment raises ``AttributeError``.  Values of one class with equal
    fields are equal, and a value hashes as the tuple of its fields.  A slot
    named with a leading ``_`` is a cache, outside the constructor, eq, hash
    and repr.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            name, rest = type(self).__qualname__, fields[len(args):]
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
            for field in kwargs:
                if field not in rest:
                    problem = "got field {!r} twice" if field in fields else "has no field {!r}"
                    raise TypeError(f"{name}() " + problem.format(field))
            for field in rest:
                if field not in kwargs:
                    raise TypeError(f"{name}() missing field {field!r}")
            args += tuple(kwargs[field] for field in rest)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def __init_subclass__(cls) -> None:
        own = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        if own:
            fields = cls._fields = cls._fields + own
            get = operator.attrgetter(*fields)
            cls._key = property(get if len(fields) > 1 else lambda self: (get(self),))

    @property
    def _key(self) -> tuple:
        """The field values, in order."""
        return ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Copies and pickles rebuild the value through ``__init__``."""
        return self.__class__, self._key

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({inner})"


class Unary(Value):
    """The fields of an operator over one operand: a negation, an iteration."""

    __slots__ = ("body",)


class Binary(Value):
    """The fields of an operator over two operands: and, or, a sequencing."""

    __slots__ = ("left", "right")


# ---------------------------------------------------------------------------
# Events and streams
# ---------------------------------------------------------------------------


class Event(Value):
    """A data item: an event type plus a mapping of attribute values."""

    __slots__ = ("etype", "attrs")

    def __init__(self, etype: str, attrs: Mapping[str, AttrValue]):
        # written directly, not through ``Value.__init__``: ``read_stream``
        # builds one per stream line, and a construction takes about 0.5 us
        # this way against 0.9 us through the generic loop (CPython 3.11)
        object.__setattr__(self, "etype", etype)
        object.__setattr__(self, "attrs", dict(attrs))

    def get(self, name: str) -> Optional[AttrValue]:
        return self.attrs.get(name)

    def __hash__(self) -> int:
        return hash((self.etype, tuple(sorted(self.attrs.items()))))


class TimedStream:
    """A finite timed stream: events paired with strictly increasing timestamps.

    Positions are 1-based: ``stream[i]`` is the i-th ``(event, ts)`` pair.
    """

    def __init__(self, items: Iterable[tuple[Event, Union[int, str, Fraction]]]):
        self._events: list[Event] = []
        self._times: list[Fraction] = []
        prev: Optional[Fraction] = None
        for event, ts in items:
            t = rat(ts)
            if t <= 0:
                raise ValueError("timestamps must be positive")
            if prev is not None and t <= prev:
                raise ValueError(f"timestamps not strictly increasing at t={t}")
            self._events.append(event)
            self._times.append(t)
            prev = t

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, pos: int) -> tuple[Event, Fraction]:
        if not 1 <= pos <= len(self._events):
            raise IndexError(f"stream position {pos} out of range")
        return self._events[pos - 1], self._times[pos - 1]

    def event(self, pos: int) -> Event:
        return self[pos][0]

    def time(self, pos: int) -> Fraction:
        return self[pos][1]

    def pairs(self) -> Iterable[tuple[int, Event, Fraction]]:
        for i, (e, t) in enumerate(zip(self._events, self._times), start=1):
            yield i, e, t

    def pairs_et(self) -> Iterable[tuple[Event, Fraction]]:
        yield from zip(self._events, self._times)

    def delta(self, pos: int) -> Fraction:
        """Time elapsed since the previous position (the timestamp itself at 1)."""
        if pos == 1:
            return self.time(1)
        return self.time(pos) - self.time(pos - 1)


# ---------------------------------------------------------------------------
# Predicates over single events
# ---------------------------------------------------------------------------


class TrueP(Value):
    """The predicate satisfied by every event."""

    __slots__ = ()

    def __str__(self) -> str:
        return "true"


class TypeIs(Value):
    __slots__ = ("etype",)

    def __str__(self) -> str:
        return f"type = {self.etype}"


class Basic(Value):
    """Comparison of one attribute against a constant.

    Absent attributes never satisfy a Basic predicate, and neither do
    booleans or values of a different kind than the constant (string vs.
    number).  A string constant takes only ``==`` and ``!=``, and holds
    ``'`` or ``"`` but not both, so that ``str`` gives query text.
    """

    __slots__ = ("attr", "op", "value")

    def __init__(self, attr: str, op: str, value: AttrValue):
        if op not in ("<", "<=", ">", ">=", "==", "!="):
            raise ValueError(f"unknown comparison {op!r}")
        if isinstance(value, str):
            if op not in ("==", "!="):
                raise ValueError(f"ordered comparison {op!r} needs a number constant")
            if "'" in value and '"' in value:  # the query syntax could not write it
                raise ValueError(f"string constant {value!r} holds both quote marks")
        super().__init__(attr, op, rat(value) if isinstance(value, float) else value)

    def __str__(self) -> str:
        v = self.value
        if isinstance(v, str):
            # the query syntax has no escapes: quote with the mark the string lacks
            rendered = f'"{v}"' if "'" in v else f"'{v}'"
        elif isinstance(v, Fraction):
            rendered = format_rat(v)
        else:
            rendered = str(v)
        return f"{self.attr} {self.op} {rendered}"


class And(Binary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


class Not(Unary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"(not {self.body})"


Predicate = Union[TrueP, TypeIs, Basic, And, Not]


# Each comparison operator's meaning, for attributes (``==``) and clocks
# (``=``) alike.
COMPARISONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "=": operator.eq,
    "!=": operator.ne,
}


def _compare(lhs: AttrValue, op: str, rhs: AttrValue) -> bool:
    if (
        isinstance(lhs, bool)
        or not isinstance(lhs, (int, Fraction, float, str))
        or isinstance(lhs, str) != isinstance(rhs, str)
    ):
        # A boolean, a value that is neither a number nor a string (a list,
        # a complex), or mixed string/number never satisfies any comparison,
        # including !=; a Basic predicate constrains values of its
        # constant's kind.
        return False
    return COMPARISONS[op](lhs, rhs)


def sat(event: Event, pred: Predicate) -> bool:
    """Does the event satisfy the predicate?"""
    if isinstance(pred, TrueP):
        return True
    if isinstance(pred, TypeIs):
        return event.etype == pred.etype
    if isinstance(pred, Basic):
        value = event.get(pred.attr)
        if value is None:
            return False
        if isinstance(value, float):
            if not math.isfinite(value):
                return False  # NaN and the infinities satisfy no comparison
            value = rat(value)
        return _compare(value, pred.op, pred.value)
    if isinstance(pred, And):
        return sat(event, pred.left) and sat(event, pred.right)
    if isinstance(pred, Not):
        return not sat(event, pred.body)
    raise TypeError(f"not a predicate: {pred!r}")


def pred_and(*preds: Predicate) -> Predicate:
    """Conjunction, folding away ``true`` conjuncts."""
    acc: Optional[Predicate] = None
    for p in preds:
        if isinstance(p, TrueP):
            continue
        acc = p if acc is None else And(acc, p)
    return acc if acc is not None else TrueP()


# --- satisfiability: the cells of events ----------------------------------
#
# ``event_cells(preds)`` is the set of truth vectors that events give the
# predicates: the nonempty cells of the partition they induce on events.
# Each atom reads one field, the event type or one attribute, and is constant
# on each class of that field's values over the constants the atoms compare
# it with: each constant, each gap between neighbouring numbers, below and
# above them all, every other string, and absence (a boolean, like absence,
# satisfies no Basic).  So fixing the fields one at a time, each to one
# witness per class (``_classes``), reaches every cell.  After each field its
# atoms fold to truth values and equal remainders are kept once, so a
# conjunction over many attributes costs time linear in them, not their
# witnesses' product.


def _atoms(pred: Predicate) -> list[Union[TypeIs, Basic]]:
    """The predicate's atoms, left to right, repeats included."""
    atoms = []
    stack = [pred]
    while stack:
        pred = stack.pop()
        if isinstance(pred, (TypeIs, Basic)):
            atoms.append(pred)
        elif isinstance(pred, Not):
            stack.append(pred.body)
        elif isinstance(pred, And):
            stack += (pred.right, pred.left)
        elif not isinstance(pred, TrueP):
            raise TypeError(f"not a predicate: {pred!r}")
    return atoms


def _classes(constants: set[AttrValue]) -> tuple[list, list, list[str], str]:
    """The classes of a field's values on which its atoms, over these
    constants, are constant: the number constants, sorted; a witness of each
    number class in bisection order (class ``2i`` is the gap below
    ``numbers[i]``, or above them all, and class ``2i + 1`` is
    ``numbers[i]``), none if there are no numbers; the string constants; and
    a witness of every other string.  Absence, and any other kind of value,
    satisfies no atom."""
    numbers, strings = [], []
    for v in constants:
        (strings if isinstance(v, str) else numbers).append(v)
    numbers.sort()
    strings.sort()
    witnesses = []
    if numbers:
        witnesses.append(numbers[0] - 1)
        for x, y in zip(numbers, numbers[1:]):
            witnesses += (x, Fraction(x + y, 2))
        witnesses += (numbers[-1], numbers[-1] + 1)
    return numbers, witnesses, strings, "".join(strings) + "_"


def _fold(pred: Union[Predicate, bool], field: Optional[str], value) -> Union[Predicate, bool]:
    """The predicate with its atoms on ``field`` (``None``: the event type)
    decided at ``value`` and simplified; a bool once it has no atom left."""
    if isinstance(pred, bool):
        return pred
    if isinstance(pred, TrueP):
        return True
    if isinstance(pred, TypeIs):
        return pred.etype == value if field is None else pred
    if isinstance(pred, Basic):
        if pred.attr != field:
            return pred
        return value is not None and _compare(value, pred.op, pred.value)
    if isinstance(pred, Not):
        body = _fold(pred.body, field, value)
        if isinstance(body, bool):
            return not body
        return pred if body is pred.body else Not(body)
    left = _fold(pred.left, field, value)
    if left is False:
        return False
    right = _fold(pred.right, field, value)
    if left is True or right is False:
        return right
    if right is True:
        return left
    return pred if left is pred.left and right is pred.right else And(left, right)


def event_cells(preds: Sequence[Predicate]) -> set[tuple[bool, ...]]:
    """The truth vectors ``tuple(sat(e, p) for p in preds)`` of all events ``e``."""
    types: set[AttrValue] = set()
    constants: dict[str, set[AttrValue]] = {}
    for pred in preds:
        for atom in _atoms(pred):
            if isinstance(atom, TypeIs):
                types.add(atom.etype)
            else:
                constants.setdefault(atom.attr, set()).add(atom.value)
    fields = [(None, types), *sorted(constants.items())]
    remainders: set[tuple] = {tuple(preds)}
    for field, values in fields:
        _, witnesses, strings, other = _classes(values)
        remainders = {
            tuple(_fold(p, field, value) for p in rest)
            for value in (None, *witnesses, *strings, other)
            for rest in remainders
        }
    return remainders


# ---------------------------------------------------------------------------
# Complex events
# ---------------------------------------------------------------------------


class ComplexEvent(NamedTuple):
    """An output: an interval of stream positions plus variable bindings.

    ``binding`` pairs each variable, in name order, with the strictly
    increasing tuple of its positions within ``[start, end]``.  Variables
    bound to no position are dropped.  ``make`` puts a match in this one
    canonical order, so readers use it as stored.
    """

    start: int
    end: int
    binding: tuple[tuple[str, tuple[int, ...]], ...]

    @staticmethod
    def make(start: int, end: int, binding: Mapping[str, Iterable[int]]) -> "ComplexEvent":
        if start > end:
            raise ValueError("start > end")
        items = []
        for var in sorted(binding):
            positions = tuple(sorted(set(binding[var])))
            if not positions:
                continue
            if positions[0] < start or positions[-1] > end:
                raise ValueError(f"binding for {var} outside [{start}, {end}]")
            items.append((var, positions))
        return ComplexEvent(start, end, tuple(items))

    def __str__(self) -> str:
        inner = ", ".join(
            f"{var} -> {{{', '.join(map(str, ps))}}}" for var, ps in self.binding
        )
        return f"({self.start}, {self.end}, [{inner}])"


def union_ce(c1: ComplexEvent, c2: ComplexEvent) -> ComplexEvent:
    """Pointwise union: min start, max end, per-variable union of positions."""
    merged: dict[str, set[int]] = {}
    for var, positions in c1.binding:
        merged.setdefault(var, set()).update(positions)
    for var, positions in c2.binding:
        merged.setdefault(var, set()).update(positions)
    return ComplexEvent.make(min(c1.start, c2.start), max(c1.end, c2.end), merged)


def project_ce(c: ComplexEvent, keep: Iterable[str]) -> ComplexEvent:
    """Keep only the bindings of the given variables; the span is unchanged."""
    keep_set = set(keep)
    return ComplexEvent.make(
        c.start, c.end, {var: ps for var, ps in c.binding if var in keep_set}
    )
