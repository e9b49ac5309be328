"""Concrete text syntax for queries: tokenizer, recursive-descent parser,
and a pretty-printer whose output parses back to the same AST.

Grammar sketch (loosest to tightest binding)::

    expr     := or_expr ("WITHIN" interval)*
    or_expr  := and_expr ("OR" and_expr)*
    and_expr := seq_expr ("AND" seq_expr)*
    seq_expr := postfix ((";" | ":") interval? postfix)*
    postfix  := primary ("AS" X | "FILTER" spec | "+" interval? | "(+)" interval?)*
    primary  := "(" expr ")" | "pi" "{" X,... "}" "(" expr ")" | EVENTTYPE

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
from typing import Optional

from . import cel
from .model import And, Basic, Interval, Not, Predicate, TrueP, TypeIs, Value, format_rat, rat

# At the default recursion limit of 1000 the parser overflows at about 165
# nested parentheses (six frames each), determinize and the oracles at a
# tree height of about 495, and classify, the compilers and pretty at about
# 990; 100 leaves room for the caller's own frames.
MAX_QUERY_DEPTH = 100

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

    def at(self, kind: str, text: Optional[str] = None, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok is not None and tok.kind == kind and (text is None or tok.text == text)

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            if tok is None:
                last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
                raise ParseError(f"expected {want!r}, found end of input", last.line, last.col)
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return self.take()

    # --- grammar ---

    def expr(self) -> cel.CelFormula:
        node = self.or_expr()
        while self.at("keyword", "within"):
            self.take()
            node = cel.Within(node, self.interval())
        return node

    def or_expr(self) -> cel.CelFormula:
        node = self.and_expr()
        while self.at("keyword", "or"):
            self.take()
            node = cel.Or(node, self.and_expr())
        return node

    def and_expr(self) -> cel.CelFormula:
        node = self.seq_expr()
        while self.at("keyword", "and"):
            self.take()
            node = cel.And(node, self.seq_expr())
        return node

    def seq_expr(self) -> cel.CelFormula:
        node = self.postfix()
        while self.at("symbol", ";") or self.at("symbol", ":"):
            contiguous = self.take().text == ":"
            interval = self.maybe_interval()
            rhs = self.postfix()
            if interval is None:
                node = cel.ContigSeq(node, rhs) if contiguous else cel.Seq(node, rhs)
            elif contiguous:
                node = cel.TimedContigSeq(node, interval, rhs)
            else:
                node = cel.TimedSeq(node, interval, rhs)
        return node

    def postfix(self) -> cel.CelFormula:
        node = self.primary()
        while True:
            if self.at("keyword", "as"):
                self.take()
                node = cel.As(node, self.expect("ident").text)
            elif self.at("keyword", "filter"):
                self.take()
                node = self.filter_spec(node)
            elif self.at("symbol", "+"):
                self.take()
                interval = self.maybe_interval()
                node = cel.Plus(node) if interval is None else cel.TimedIter(node, interval)
            elif self.at("symbol", "(+)"):
                self.take()
                interval = self.maybe_interval()
                node = (
                    cel.ContigPlus(node)
                    if interval is None
                    else cel.TimedContigIter(node, interval)
                )
            else:
                return node

    def primary(self) -> cel.CelFormula:
        if self.at("symbol", "("):
            self.take()
            node = self.expr()
            self.expect("symbol", ")")
            return node
        if self.at("keyword", "pi"):
            self.take()
            self.expect("symbol", "{")
            names = []
            if not self.at("symbol", "}"):
                names.append(self.expect("ident").text)
                while self.at("symbol", ","):
                    self.take()
                    names.append(self.expect("ident").text)
            self.expect("symbol", "}")
            self.expect("symbol", "(")
            node = self.expr()
            self.expect("symbol", ")")
            return cel.Project(frozenset(names), node)
        tok = self.expect("ident")
        return cel.EventType(tok.text)

    def filter_spec(self, body: cel.CelFormula) -> cel.CelFormula:
        # either X[pred] directly, or a parenthesized conjunction of them
        if self.at("ident") and self.at("symbol", "[", offset=1):
            var, pred = self.var_filter()
            return cel.Filter(body, var, pred)
        self.expect("symbol", "(")
        var, pred = self.var_filter()
        node = cel.Filter(body, var, pred)
        while self.at("keyword", "and"):
            self.take()
            var, pred = self.var_filter()
            node = cel.Filter(node, var, pred)
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
        while self.at("keyword", "and"):
            self.take()
            node = And(node, self.pred_term())
        return node

    def pred_term(self) -> Predicate:
        negations = 0
        while self.at("keyword", "not") or self.at("symbol", "!"):
            self.take()
            negations += 1
        node = self.pred_atom()
        for _ in range(negations):
            node = Not(node)
        return node

    def pred_atom(self) -> Predicate:
        if self.at("symbol", "("):
            self.take()
            node = self.pred()
            self.expect("symbol", ")")
            return node
        if self.at("keyword", "true"):
            self.take()
            return TrueP()
        if self.at("keyword", "type"):
            self.take()
            if self.at("symbol", "=") or self.at("symbol", "=="):
                self.take()
            else:
                tok = self.peek() or self.tokens[-1]
                raise ParseError("expected '=' after 'type'", tok.line, tok.col)
            return TypeIs(self.expect("ident").text)
        attr = self.expect("ident").text
        tok = self.peek()
        if tok is None or tok.kind != "symbol" or tok.text not in (
            "<", "<=", ">", ">=", "==", "=", "!=",
        ):
            if tok is None:
                last = self.tokens[-1]
                raise ParseError("expected comparison operator", last.line, last.col)
            raise ParseError(f"expected comparison operator, found {tok.text!r}", tok.line, tok.col)
        op = self.take().text
        if op == "=":
            op = "=="
        if self.at("number"):
            value = self.number()
            if value.denominator == 1:
                value = int(value)
            return Basic(attr, op, value)
        if self.at("string"):
            tok = self.take()
            if op not in ("==", "!="):
                raise ParseError(
                    f"ordered comparison {op!r} needs a number constant", tok.line, tok.col
                )
            return Basic(attr, op, tok.text[1:-1])
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1]
            raise ParseError("expected constant", last.line, last.col)
        raise ParseError(f"expected constant, found {tok.text!r}", tok.line, tok.col)

    # --- intervals ---

    def maybe_interval(self) -> Optional[Interval]:
        if self.at("symbol", "[") or (
            self.at("symbol", "(") and self._looks_like_open_interval()
        ):
            return self.interval()
        if self.peek() is not None and self.at("symbol") and self.peek().text in (
            "<=", "<", ">=", ">", "=", "==",
        ):
            return self.interval()
        return None

    def _looks_like_open_interval(self) -> bool:
        # "(" starts an interval only when a number follows and then a comma
        return self.at("number", offset=1) and self.at("symbol", ",", offset=2)

    def number(self) -> Fraction:
        tok = self.expect("number")
        try:
            return rat(tok.text)
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def interval(self) -> Interval:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1]
            raise ParseError("expected interval", last.line, last.col)
        if tok.kind == "symbol" and tok.text in ("<=", "<", ">=", ">", "=", "=="):
            op = self.take().text
            value = self.number()
            iv = Interval.of(op, value)
            if iv is None:
                raise ParseError(f"empty interval: {op} {format_rat(value)}", tok.line, tok.col)
            return iv
        if tok.kind == "symbol" and tok.text in ("[", "("):
            low_closed = self.take().text == "["
            low = self.number()
            self.expect("symbol", ",")
            if self.at("keyword", "inf"):
                self.take()
                high: Optional[Fraction] = None
            else:
                high = self.number()
            closer = self.take()
            if closer.kind != "symbol" or closer.text not in ("]", ")"):
                raise ParseError(
                    f"expected ']' or ')', found {closer.text!r}", closer.line, closer.col
                )
            high_closed = closer.text == "]"
            if high is not None and high < low:
                raise ParseError("malformed interval: low > high", tok.line, tok.col)
            try:
                return Interval(low, high, low_closed, high_closed)
            except ValueError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
        raise ParseError(f"expected interval, found {tok.text!r}", tok.line, tok.col)


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
    if isinstance(phi, cel.Or):
        return f"({pretty(phi.left)} OR {pretty(phi.right)})"
    if isinstance(phi, cel.And):
        return f"({pretty(phi.left)} AND {pretty(phi.right)})"
    if isinstance(phi, cel.Seq):
        return f"({pretty(phi.left)} ; {pretty(phi.right)})"
    if isinstance(phi, cel.ContigSeq):
        return f"({pretty(phi.left)} : {pretty(phi.right)})"
    if isinstance(phi, cel.Plus):
        return f"({pretty(phi.body)} +)"
    if isinstance(phi, cel.ContigPlus):
        return f"({pretty(phi.body)} (+))"
    if isinstance(phi, cel.Project):
        names = ", ".join(sorted(phi.vars))
        return f"pi {{{names}}} ({pretty(phi.body)})"
    if isinstance(phi, cel.Within):
        return f"({pretty(phi.body)} WITHIN {phi.interval})"
    if isinstance(phi, cel.TimedSeq):
        return f"({pretty(phi.left)} ;{phi.interval} {pretty(phi.right)})"
    if isinstance(phi, cel.TimedContigSeq):
        return f"({pretty(phi.left)} :{phi.interval} {pretty(phi.right)})"
    if isinstance(phi, cel.TimedIter):
        return f"({pretty(phi.body)} +{phi.interval})"
    if isinstance(phi, cel.TimedContigIter):
        return f"({pretty(phi.body)} (+){phi.interval})"
    raise TypeError(f"not a formula: {phi!r}")
