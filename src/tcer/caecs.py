"""Clock-aware enumerable compact sets.

The per-state results of the streaming evaluator are stored as an immutable
DAG whose nodes denote sets of *open* complex events (start index, bound
positions, last clock-reset time).  A ``Bottom`` starts a run, an
``Extended`` is an output node, a ``Union`` joins two nodes, and a ``Gate``
is a gadget: at most one reset over at most one anchor limit.  ``Caecs.gate``
is the one way to compose a gadget: put over a gate, it merges with it, so no
gate sits on a gate, and a transition that checks and resets applies both as
one gate (``ul_reset`` with a bound).  Enumeration is a loop, so no match
length makes it recurse.  A constructor whose result would denote no complex
event returns None, the only empty node.  ``Caecs.check`` asserts the
structural invariants of one root; the streaming engine calls it on every
stored root when debugging.

A clock check ``t0 - anchor <= bound`` (``le``) or ``>= bound`` (``ge``) is
stored as the limit ``t0 - bound`` it puts on the anchor, so both directions
run one algorithm: an anchor passes iff ``better(anchor, limit)``, which is
``>=`` for ``le`` and ``<=`` for ``ge``, the order that sorts union-lists.
The algebra needs only ordered, subtractable times: the streaming engine
hands it int ticks (``engine.DECIMAL_SCALE``), which stay exact
``Fraction``s only for a timestamp with more than nine decimal places or
one that is not a decimal, and the matches do not depend on which.

Nodes per event.  With ``L = |Q| + 2``, the union-list length the engine
asserts, ``union`` builds at most 7 nodes (a gate over each child of each
operand's union, and 3 unions), and one transition fired by
``engine._exec`` at most ``8L``: with a reset, ``L`` gates, ``L - 1``
``union`` calls to fold them and one in ``_add``; with a check alone, ``L``
gates, then ``L - 1`` unions in ``_add``'s ``ul_merge`` and one ``union``
call in its ``ul_insert``; with a label, ``L - 1`` unions to merge, one
``Extended``, one gate and one ``union`` call.  With at most one ``Bottom``,
one ``feed`` builds at most ``1 + 8L·|Δ| <= c·|Δ|`` nodes, ``c = 8|Q| +
17``, whatever the length of the stream.

Output depth.  ``odepth`` counts the unions and gates above a node's first
output node.  A gate adds one, but not twice in a row, and ``union``, which
splits each operand's top union, is no deeper than its first operand, or 2.
So the depth can keep growing only where ``_add`` merges a list of two or
more nodes that reaches a state second: the new union sits over a gate over
the list's head, which may be such a merge itself.  Under ``le``
the fresh run, advanced first, and every reset hold the newest anchor and
head their lists, so an old merge seldom heads one again (the depth stayed
at most 3 over about 3,000 automata of the tests' ``random_streamable_cea``,
60 events each).  Under ``ge`` the oldest run stays the head and the depth
grows by one per event: ``A as X ;[1,inf) (A (+))`` reaches 13 at the 14th
``A``.  So no constant bounds the depth, and ``check`` asserts none.
"""

from __future__ import annotations

import operator
from typing import Iterator, Optional

from .model import ComplexEvent, Rational


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


class Node:
    """``anchor`` is the last clock-reset time of the node's best run (a
    ``Bottom``'s start time, a ``Gate``'s reset time); ``odepth`` is the
    number of nodes above the first output node."""

    __slots__ = ("anchor", "odepth")


class Bottom(Node):
    __slots__ = ("index",)

    def __init__(self, index: int, anchor: Rational):
        self.index = index
        self.anchor = anchor
        self.odepth = 0


class Extended(Node):
    __slots__ = ("index", "label", "left")

    def __init__(self, index: int, label: frozenset, left: Node):
        self.index = index
        self.label = label
        self.left = left
        self.anchor = left.anchor
        self.odepth = 0


class Union(Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        self.left = left
        self.right = right
        self.anchor = left.anchor
        self.odepth = 1 + left.odepth


class Gate(Node):
    """One gadget: at most one reset over at most one anchor limit (either
    may be None), over a ``left`` that is never a ``Gate``."""

    __slots__ = ("reset", "limit", "left")

    def __init__(self, reset: Optional[Rational], limit: Optional[Rational], left: Node):
        self.reset = reset
        self.limit = limit
        self.left = left
        self.anchor = left.anchor if reset is None else reset
        self.odepth = 1 + left.odepth


class Caecs:
    """One evaluation session's node factory and gadget algebra."""

    def __init__(self, direction: str):
        assert direction in ("le", "ge")
        self.direction = direction
        self.better = operator.ge if direction == "le" else operator.le
        self.created = 0

    def _intersect(self, limit: Optional[Rational], other: Optional[Rational]):
        """The stricter of two anchor limits; None admits every anchor."""
        if other is None or (limit is not None and not self.better(other, limit)):
            return limit
        return other

    # -- node constructors ---------------------------------------------------

    def _made(self, node: Node) -> Node:
        self.created += 1
        return node

    def check(self, root: Node) -> None:
        """Assert the invariants of the nodes above the root's first output
        node: unions ordered by anchor, checks that the anchor below passes,
        and no gate on a gate."""
        node = root
        while not isinstance(node, (Bottom, Extended)):
            left = node.left
            if isinstance(node, Union):
                assert self.better(left.anchor, node.right.anchor)
            else:
                assert not isinstance(left, Gate)
                assert node.limit is None or self.better(left.anchor, node.limit)
            node = left

    def new_bottom(self, i: int, t: Rational) -> Node:
        return self._made(Bottom(i, t))

    def extend(self, n: Node, j: int, label: frozenset) -> Node:
        return self._made(Extended(j, label, n))

    # -- gadget algebra ------------------------------------------------------

    def gate(
        self, node: Node, reset: Optional[Rational], limit: Optional[Rational]
    ) -> Optional[Node]:
        """``node`` under a reset at ``reset`` over the anchor limit ``limit``
        (either may be None), composed with node's own gate into one ``Gate``.

        Over an inner reset the outer limit sees that reset's constant clock,
        else the two limits intersect; the outer reset replaces the inner.
        Returns ``node`` itself when both are None, and None when no run
        passes.
        """
        if reset is None and limit is None:
            return node
        left = node
        if type(node) is Gate:
            left = node.left
            if node.reset is not None:
                if limit is not None and not self.better(node.reset, limit):
                    return None
                limit = node.limit
            else:
                limit = self._intersect(node.limit, limit)
            if reset is None:
                reset = node.reset
        if limit is not None and not self.better(left.anchor, limit):
            return None
        return self._made(Gate(reset, limit, left))

    # -- union ---------------------------------------------------------------

    def union(self, n1: Node, n2: Node) -> Node:
        """Union of two safe roots with equal anchors.

        An operand that is a union, or a gate on a union, contributes that
        union's children, each under the gate; any other operand contributes
        itself.  A left part keeps the shared anchor and a right part cannot
        beat it, so the left parts lead and the at most two right parts
        follow, the better anchor first.
        """
        assert n1.anchor == n2.anchor
        lefts: list[Node] = []
        rights: list[Node] = []
        for n in (n1, n2):
            if type(n) is Union:
                lefts.append(n.left)
                rights.append(n.right)
            elif type(n) is Gate and type(n.left) is Union:
                lefts.append(self.gate(n.left.left, n.reset, n.limit))
                rights.append(self.gate(n.left.right, n.reset, n.limit))
            else:
                lefts.append(n)
        rights = [r for r in rights if r is not None]
        if len(rights) == 2 and not self.better(rights[0].anchor, rights[1].anchor):
            rights.reverse()
        return self.ul_merge(lefts + rights)

    # -- union-lists ---------------------------------------------------------

    def ul_insert(self, ul: list[Node], n: Node) -> list[Node]:
        out = list(ul)
        for idx, u in enumerate(out):
            if u.anchor == n.anchor:
                out[idx] = self.union(n, u)
                return out
            if self.better(n.anchor, u.anchor):
                out.insert(idx, n)
                return out
        out.append(n)
        return out

    def ul_merge(self, ul: list[Node]) -> Node:
        node = ul[-1]
        for u in reversed(ul[:-1]):
            node = self._made(Union(u, node))
        return node

    def ul_clock_check(
        self, ul: list[Node], t0: Rational, bound: Rational
    ) -> Optional[list[Node]]:
        out = [self.gate(u, None, t0 - bound) for u in ul]
        return [u for u in out if u is not None] or None

    def ul_reset(
        self, ul: list[Node], t: Rational, bound: Optional[Rational] = None
    ) -> Optional[list[Node]]:
        """Reset every node at ``t``, after the clock check ``t - anchor
        <= bound`` (``>=`` for ``ge``) when a bound is given: the check and
        the reset are one ``gate`` over each node.  After the reset every node
        is anchored at t, so the surviving nodes fold into a single union;
        None when none survives."""
        limit = None if bound is None else t - bound
        nodes = [self.gate(u, t, limit) for u in ul]
        nodes = [u for u in nodes if u is not None]
        if not nodes:
            return None
        node = nodes[0]
        for u in nodes[1:]:
            node = self.union(node, u)
        return [node]


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_node(
    caecs: Caecs, node: Node, end: int
) -> Iterator[ComplexEvent]:
    """Yield each complex event of the node once, closed at position ``end``.

    A loop over (node, limit, depth) frames that share one path of
    ``Extended`` nodes.  Only a union's right child can fail the limit, so it
    is pushed only when it passes, and every frame yields.  Left comes first.
    The path holds the newest output first, at strictly decreasing positions,
    so read backwards it gives each variable's positions in increasing order:
    the match is built in ``ComplexEvent``'s canonical form, with no sort.
    """
    better = caecs.better
    intersect = caecs._intersect
    path: list[Extended] = []
    stack = [(node, None, 0)]
    while stack:
        node, limit, depth = stack.pop()
        del path[depth:]
        while True:
            kind = type(node)
            if kind is Extended:
                path.append(node)
            elif kind is Union:
                right = node.right
                if limit is None or better(right.anchor, limit):
                    stack.append((right, limit, len(path)))
            elif kind is Gate:
                limit = node.limit if node.reset is not None else intersect(limit, node.limit)
            else:
                break
            node = node.left
        if kind is Bottom:
            mapping: dict[str, list[int]] = {}
            for ext in reversed(path):
                for var in ext.label:
                    mapping.setdefault(var, []).append(ext.index)
            yield ComplexEvent(
                node.index, end, tuple([(var, tuple(mapping[var])) for var in sorted(mapping)])
            )


def node_semantics(caecs: Caecs, node: Node) -> frozenset:
    """Brute-force denotation {(start, entries, clock)} for testing."""
    if node is None:
        return frozenset()
    if isinstance(node, Bottom):
        return frozenset({(node.index, frozenset(), node.anchor)})
    if isinstance(node, Extended):
        entry = (node.index, node.label)
        return frozenset(
            (i, entries | {entry}, t)
            for i, entries, t in node_semantics(caecs, node.left)
        )
    if isinstance(node, Union):
        return node_semantics(caecs, node.left) | node_semantics(caecs, node.right)
    if isinstance(node, Gate):
        return frozenset(
            (i, entries, t if node.reset is None else node.reset)
            for i, entries, t in node_semantics(caecs, node.left)
            if node.limit is None or caecs.better(t, node.limit)
        )
    raise TypeError(node)
