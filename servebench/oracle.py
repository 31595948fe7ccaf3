"""An independent CPQ evaluator: the benchmark's answer oracle.

It shares no code with the program under test.  It parses the same
concrete syntax (``.`` join, ``&`` conjunction, ``^-`` inverse, ``id``
identity, parentheses; conjunction binds looser than join) and
evaluates it over plain triples with sparse 0/1 matrices:

* a label is its adjacency matrix, an inverse label the transpose;
* join is the boolean matrix product;
* conjunction is the element-wise product;
* ``id`` is the diagonal over the graph's vertices.

Vertices must be the integers ``0..n-1``.  Answers come back as a
sorted array of codes ``source * n + target``, which compares with a
daemon's ``[[source, target], ...]`` rows in one vectorized step.
"""

from __future__ import annotations

import re

import numpy as np
from scipy import sparse

_TOKEN = re.compile(r"\s*(?:(\()|(\))|(\.)|(&)|([A-Za-z_][A-Za-z0-9_]*)(\^-)?)")


def parse(text: str) -> tuple:
    """Parse query text into nested tuples:
    ``("label", name, inverted)``, ``("id",)``, ``("join", l, r)``,
    ``("conj", l, r)``."""
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        if not text[pos:].strip():
            break
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"bad character at {pos} in {text!r}")
        pos = match.end()
        lparen, rparen, dot, amp, name, inv = match.groups()
        if lparen:
            tokens.append(("(", None))
        elif rparen:
            tokens.append((")", None))
        elif dot:
            tokens.append((".", None))
        elif amp:
            tokens.append(("&", None))
        else:
            tokens.append(("name", (name, bool(inv))))
    node, rest = _expr(tokens, 0)
    if rest != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return node


def _expr(tokens: list, at: int) -> tuple[tuple, int]:
    node, at = _term(tokens, at)
    while at < len(tokens) and tokens[at][0] == "&":
        right, at = _term(tokens, at + 1)
        node = ("conj", node, right)
    return node, at


def _term(tokens: list, at: int) -> tuple[tuple, int]:
    node, at = _factor(tokens, at)
    while at < len(tokens) and tokens[at][0] == ".":
        right, at = _factor(tokens, at + 1)
        node = ("join", node, right)
    return node, at


def _factor(tokens: list, at: int) -> tuple[tuple, int]:
    if at >= len(tokens):
        raise ValueError("unexpected end of query")
    kind, value = tokens[at]
    if kind == "(":
        node, at = _expr(tokens, at + 1)
        if at >= len(tokens) or tokens[at][0] != ")":
            raise ValueError("missing ')'")
        return node, at + 1
    if kind == "name":
        name, inverted = value  # type: ignore[misc]
        if name == "id":
            if inverted:
                raise ValueError("id has no inverse")
            return ("id",), at + 1
        return ("label", name, inverted), at + 1
    raise ValueError(f"unexpected token {kind!r}")


def _binary(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    matrix = matrix.tocsr()
    matrix.eliminate_zeros()
    matrix.data[:] = 1
    return matrix


class Oracle:
    """Evaluates CPQ text over one fixed set of triples."""

    def __init__(self, triples, num_vertices: int) -> None:
        self.n = num_vertices
        by_label: dict[str, tuple[list[int], list[int]]] = {}
        present: set[int] = set()
        for source, target, name in triples:
            rows, cols = by_label.setdefault(name, ([], []))
            rows.append(source)
            cols.append(target)
            present.update((source, target))
        shape = (num_vertices, num_vertices)
        self._labels = {
            name: _binary(
                sparse.csr_matrix((np.ones(len(rows), np.int32), (rows, cols)), shape=shape)
            )
            for name, (rows, cols) in by_label.items()
        }
        diagonal = np.zeros(num_vertices, np.int32)
        diagonal[sorted(present)] = 1
        self._identity = sparse.diags(diagonal, format="csr", dtype=np.int32)
        self._empty = sparse.csr_matrix(shape, dtype=np.int32)

    def _eval(self, node: tuple) -> sparse.csr_matrix:
        kind = node[0]
        if kind == "label":
            matrix = self._labels.get(node[1], self._empty)
            return matrix.transpose().tocsr() if node[2] else matrix
        if kind == "id":
            return self._identity
        left, right = self._eval(node[1]), self._eval(node[2])
        if kind == "join":
            return _binary(left @ right)
        return _binary(left.multiply(right))

    def codes(self, text: str) -> np.ndarray:
        """Sorted answer codes ``source * n + target`` of one query."""
        coo = self._eval(parse(text)).tocoo()
        return np.unique(coo.row.astype(np.int64) * self.n + coo.col)

    def pairs(self, text: str) -> set[tuple[int, int]]:
        """The answer set of one query as ``(source, target)`` pairs."""
        return {(int(code) // self.n, int(code) % self.n) for code in self.codes(text)}


def matches(rows: list, expected: np.ndarray, num_vertices: int) -> bool:
    """Whether a daemon's ``[[source, target], ...]`` answer rows are
    exactly the ``expected`` codes: same pairs, none repeated."""
    if len(rows) != len(expected):
        return False
    if not rows:
        return True
    array = np.asarray(rows, dtype=np.int64)
    return bool(np.array_equal(np.sort(array[:, 0] * num_vertices + array[:, 1]), expected))
