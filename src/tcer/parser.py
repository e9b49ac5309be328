"""Concrete text syntax for queries: tokenizer, recursive-descent parser,
and a pretty-printer whose output parses back to the same AST.

Grammar sketch (loosest to tightest binding)::

    expr     := or_expr ("WITHIN" interval)*
    or_expr  := and_expr ("OR" and_expr)*
    and_expr := seq_expr ("AND" seq_expr)*
    seq_expr := postfix ((";" | ":") interval? postfix)*
    postfix  := primary ("AS" X | "FILTER" spec | "+" interval? | "(+)" interval?)*
    primary  := "(" expr ")" | "pi" "{" X,... "}" "(" expr ")" | EVENTTYPE

Two tables, ``_SEQUENCES`` and ``_ITERATIONS``, map each sequencing and
iteration symbol to its untimed and its timed class; the parser and
``pretty`` both read them.

Interval literals are ``[a,b]``, ``(a,b]``, ``[a,inf)`` etc., or the
comparison shorthands ``<= c``, ``< c``, ``>= c``, ``> c``, ``= c``.
``FILTER (X[p] and Y[q])`` desugars to nested single-variable filters.

A query may nest at most ``MAX_QUERY_DEPTH`` brackets deep, and its tree
(filter predicates included) may be at most that high, because the parser
and the compilers recurse once or more per level.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NoReturn, Optional

from . import cel
from .model import COMPARISONS, And, Basic, Interval, Not, Predicate, TrueP, TypeIs, Value
from .model import format_rat, rat

# At the default recursion limit of 1000 the parser overflows at about 165
# nested parentheses (six frames each), determinize and the oracles at a
# tree height of about 495, and classify, the compilers and pretty at about
# 990; 100 leaves room for the caller's own frames.
MAX_QUERY_DEPTH = 100

# Each sequencing and iteration symbol, with its untimed and its timed form;
# an interval after the symbol picks the timed one.
_SEQUENCES = {";": (cel.Seq, cel.TimedSeq), ":": (cel.ContigSeq, cel.TimedContigSeq)}
_ITERATIONS = {"+": (cel.Plus, cel.TimedIter), "(+)": (cel.ContigPlus, cel.TimedContigIter)}

# The symbol that prints each binary, iteration and window operator, before
# the interval of a timed form; a word needs a space before its interval.
_SYMBOLS = {cls: sym for sym, pair in {**_SEQUENCES, **_ITERATIONS}.items() for cls in pair}
_SYMBOLS.update({cel.Or: "OR", cel.And: "AND", cel.Within: "WITHIN "})

# The comparison shorthands for an interval: ``<= c`` is ``[0,c]`` and so on.
_SHORTHANDS = ("<=", "<", ">=", ">", "=", "==")

_KEYWORDS = {"as", "filter", "or", "and", "within", "pi", "not", "true", "type", "inf"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<oplus>\(\+\)|⊕)
  | (?P<pi>π)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|<|>|=|\+|;|:|\(|\)|\[|\]|\{|\}|,|!)
    """,
    re.VERBOSE,
)


class Token(Value):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        object.__setattr__(self, "kind", kind)  # number | string | ident | keyword | symbol
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "col", col)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            if kind == "ident" and chunk.lower() in _KEYWORDS:
                tokens.append(Token("keyword", chunk.lower(), line, col))
            elif kind == "oplus":
                tokens.append(Token("symbol", "(+)", line, col))
            elif kind == "pi":
                tokens.append(Token("keyword", "pi", line, col))
            elif kind == "op":
                tokens.append(Token("symbol", chunk, line, col))
            else:
                tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # --- token helpers ---

    def peek(self, offset: int = 0) -> Optional[Token]:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def at(self, kind: str, *texts: str, offset: int = 0) -> bool:
        """Is the next token (or the one ``offset`` after it) of this kind,
        and, when ``texts`` are given, one of them?"""
        tok = self.peek(offset)
        return tok is not None and tok.kind == kind and (not texts or tok.text in texts)

    def accept(self, kind: str, *texts: str) -> Optional[Token]:
        """Take the next token when ``at(kind, *texts)``; else None."""
        tok = self.peek()
        if tok is None or tok.kind != kind or (texts and tok.text not in texts):
            return None
        self.pos += 1
        return tok

    def operator(self, table: dict[str, tuple[type, type]]) -> Optional[tuple[type, type]]:
        """Take the next token when it is a symbol of ``table``, and return
        its untimed and timed forms; else None."""
        tok = self.peek()
        if tok is None or tok.kind != "symbol" or tok.text not in table:
            return None
        self.pos += 1
        return table[tok.text]

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.accept(kind) if text is None else self.accept(kind, text)
        if tok is None:
            self.found(repr(kind if text is None else text), ", found end of input")
        return tok

    def fail(self, message: str, tok: Optional[Token] = None) -> NoReturn:
        """Raise at ``tok``, by default the next token, or at the last token
        once the input has ended (inside ``except``, without its context)."""
        tok = tok or self.peek() or self.tokens[-1]
        raise ParseError(message, tok.line, tok.col) from None

    def found(self, want: str, at_end: str = "") -> NoReturn:
        """Raise "expected <want>, found <the next token>", or
        "expected <want><at_end>" once the input has ended."""
        tok = self.peek()
        self.fail(f"expected {want}" + (at_end if tok is None else f", found {tok.text!r}"))

    # --- grammar ---

    def expr(self) -> cel.CelFormula:
        node = self.or_expr()
        while self.accept("keyword", "within"):
            node = cel.Within(node, self.interval())
        return node

    def or_expr(self) -> cel.CelFormula:
        node = self.and_expr()
        while self.accept("keyword", "or"):
            node = cel.Or(node, self.and_expr())
        return node

    def and_expr(self) -> cel.CelFormula:
        node = self.seq_expr()
        while self.accept("keyword", "and"):
            node = cel.And(node, self.seq_expr())
        return node

    def seq_expr(self) -> cel.CelFormula:
        node = self.postfix()
        while (forms := self.operator(_SEQUENCES)) is not None:
            plain, timed = forms
            interval = self.maybe_interval()
            rhs = self.postfix()
            node = plain(node, rhs) if interval is None else timed(node, interval, rhs)
        return node

    def postfix(self) -> cel.CelFormula:
        node = self.primary()
        while True:
            if self.accept("keyword", "as"):
                node = cel.As(node, self.expect("ident").text)
            elif self.accept("keyword", "filter"):
                node = self.filter_spec(node)
            elif (forms := self.operator(_ITERATIONS)) is not None:
                plain, timed = forms
                interval = self.maybe_interval()
                node = plain(node) if interval is None else timed(node, interval)
            else:
                return node

    def primary(self) -> cel.CelFormula:
        if self.accept("symbol", "("):
            node = self.expr()
            self.expect("symbol", ")")
            return node
        if self.accept("keyword", "pi"):
            self.expect("symbol", "{")
            names = []
            if not self.at("symbol", "}"):
                names.append(self.expect("ident").text)
                while self.accept("symbol", ","):
                    names.append(self.expect("ident").text)
            self.expect("symbol", "}")
            self.expect("symbol", "(")
            node = self.expr()
            self.expect("symbol", ")")
            return cel.Project(frozenset(names), node)
        return cel.EventType(self.expect("ident").text)

    def filter_spec(self, body: cel.CelFormula) -> cel.CelFormula:
        # either X[pred] directly, or a parenthesized conjunction of them
        if self.at("ident") and self.at("symbol", "[", offset=1):
            return cel.Filter(body, *self.var_filter())
        self.expect("symbol", "(")
        node = cel.Filter(body, *self.var_filter())
        while self.accept("keyword", "and"):
            node = cel.Filter(node, *self.var_filter())
        self.expect("symbol", ")")
        return node

    def var_filter(self) -> tuple[str, Predicate]:
        var = self.expect("ident").text
        self.expect("symbol", "[")
        pred = self.pred()
        self.expect("symbol", "]")
        return var, pred

    # --- predicates ---

    def pred(self) -> Predicate:
        node = self.pred_term()
        while self.accept("keyword", "and"):
            node = And(node, self.pred_term())
        return node

    def pred_term(self) -> Predicate:
        negations = 0
        while self.accept("keyword", "not") or self.accept("symbol", "!"):
            negations += 1
        node = self.pred_atom()
        for _ in range(negations):
            node = Not(node)
        return node

    def pred_atom(self) -> Predicate:
        if self.accept("symbol", "("):
            node = self.pred()
            self.expect("symbol", ")")
            return node
        if self.accept("keyword", "true"):
            return TrueP()
        if self.accept("keyword", "type"):
            if not self.accept("symbol", "=", "=="):
                self.fail("expected '=' after 'type'")
            return TypeIs(self.expect("ident").text)
        attr = self.expect("ident").text
        op = self.accept("symbol", *COMPARISONS)
        if op is None:
            self.found("comparison operator")
        op = "==" if op.text == "=" else op.text
        if self.at("number"):
            value = self.number()
            return Basic(attr, op, int(value) if value.denominator == 1 else value)
        tok = self.accept("string")
        if tok is None:
            self.found("constant")
        if op not in ("==", "!="):
            self.fail(f"ordered comparison {op!r} needs a number constant", tok)
        return Basic(attr, op, tok.text[1:-1])

    # --- intervals ---

    def maybe_interval(self) -> Optional[Interval]:
        # "(" starts an interval only when a number follows and then a comma
        if self.at("symbol", "(") and not (
            self.at("number", offset=1) and self.at("symbol", ",", offset=2)
        ):
            return None
        return self.interval() if self.at("symbol", "[", "(", *_SHORTHANDS) else None

    def number(self) -> Fraction:
        tok = self.expect("number")
        try:
            return rat(tok.text)
        except ValueError as exc:
            self.fail(str(exc), tok)

    def interval(self) -> Interval:
        tok = self.accept("symbol", "[", "(", *_SHORTHANDS)
        if tok is None:
            self.found("interval")
        if tok.text in _SHORTHANDS:
            value = self.number()
            iv = Interval.of(tok.text, value)
            if iv is None:
                self.fail(f"empty interval: {tok.text} {format_rat(value)}", tok)
            return iv
        low = self.number()
        self.expect("symbol", ",")
        high = None if self.accept("keyword", "inf") else self.number()
        closer = self.accept("symbol", "]", ")")
        if closer is None:
            if self.peek() is None:
                self.fail("unexpected end of input")
            self.found("']' or ')'")
        if high is not None and high < low:
            self.fail("malformed interval: low > high", tok)
        try:
            return Interval(low, high, tok.text == "[", closer.text == "]")
        except ValueError as exc:
            self.fail(str(exc), tok)


def parse_query(text: str) -> cel.CelFormula:
    """Parse a single query (``#`` comments allowed) into an AST."""
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty query", 1, 1)
    depth = 0
    for tok in tokens:
        if tok.kind == "symbol" and tok.text in ("(", "[", ")", "]"):
            depth += 1 if tok.text in ("(", "[") else -1
            if depth > MAX_QUERY_DEPTH:
                message = f"query nests deeper than {MAX_QUERY_DEPTH} brackets"
                raise ParseError(message, tok.line, tok.col)
    parser = _Parser(tokens)
    node = parser.expr()
    leftover = parser.peek()
    if leftover is not None:
        raise ParseError(f"trailing input {leftover.text!r}", leftover.line, leftover.col)
    if _height(node) > MAX_QUERY_DEPTH:
        raise ParseError(f"query tree is higher than {MAX_QUERY_DEPTH} levels", 1, 1)
    return node


def _height(phi: cel.CelFormula) -> int:
    """Height of the query tree by a loop; the subtrees of formulas and
    predicates are their ``left``, ``right``, ``body`` and ``pred`` fields."""
    height, stack = 0, [(phi, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        for field in ("left", "right", "body", "pred"):
            if hasattr(node, field):
                stack.append((getattr(node, field), level + 1))
    return height


# ---------------------------------------------------------------------------
# Pretty-printer (fully parenthesized; parses back to the same AST)
# ---------------------------------------------------------------------------


def pretty(phi: cel.CelFormula) -> str:
    if isinstance(phi, cel.EventType):
        return phi.etype
    if isinstance(phi, cel.As):
        return f"({pretty(phi.body)} AS {phi.var})"
    if isinstance(phi, cel.Filter):
        return f"({pretty(phi.body)} FILTER {phi.var}[{phi.pred}])"
    if isinstance(phi, cel.Project):
        names = ", ".join(sorted(phi.vars))
        return f"pi {{{names}}} ({pretty(phi.body)})"
    op = _SYMBOLS.get(type(phi))
    if op is None:
        raise TypeError(f"not a formula: {phi!r}")
    op += str(getattr(phi, "interval", ""))
    if hasattr(phi, "left"):
        return f"({pretty(phi.left)} {op} {pretty(phi.right)})"
    return f"({pretty(phi.body)} {op})"
