"""Hand-derived checks of the benchmark's answer oracle.

Run with ``python3 -m pytest servebench/test_oracle.py`` (or
``python3 servebench/test_oracle.py``).  The graph is small enough that
every expected answer below was worked out by hand::

    0 --a--> 1 --a--> 2        2 --b--> 0        0 --b--> 2

Vertex 3 appears in no triple, so ``id`` does not include it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import TEMPLATES, SubpathFilter  # noqa: E402
from oracle import Oracle, matches, parse  # noqa: E402

TRIPLES = [(0, 1, "a"), (1, 2, "a"), (2, 0, "b"), (0, 2, "b")]

HAND_DERIVED = {
    "a": {(0, 1), (1, 2)},
    "a^-": {(1, 0), (2, 1)},
    "b": {(2, 0), (0, 2)},
    "a . a": {(0, 2)},
    "a . a . b": {(0, 0)},
    "(a . a . b) & id": {(0, 0)},
    "(a . a) & b": {(0, 2)},
    "a . a & b": {(0, 2)},
    "a . (a & b)": set(),
    "a & b": set(),
    "b . b": {(0, 0), (2, 2)},
    "(b . b) & id": {(0, 0), (2, 2)},
    "a . a^-": {(0, 0), (1, 1)},
    "a^- . a": {(1, 1), (2, 2)},
    "(a . a^-) & (b . b^-) & id": {(0, 0)},
    "id": {(0, 0), (1, 1), (2, 2)},
    "id . a": {(0, 1), (1, 2)},
    "c": set(),
    "((a . a) & b) . b": {(0, 0)},
}


@pytest.mark.parametrize("text", sorted(HAND_DERIVED))
def test_hand_derived_answers(text: str) -> None:
    assert Oracle(TRIPLES, 4).pairs(text) == HAND_DERIVED[text]


@pytest.mark.parametrize("text", ["a .", "(a . b", "a b", "id^-", "a + b", ""])
def test_malformed_text_is_rejected(text: str) -> None:
    with pytest.raises(ValueError):
        parse(text)


def test_matches_requires_exact_pairs_without_repeats() -> None:
    expected = Oracle(TRIPLES, 4).codes("b . b")
    assert matches([[2, 2], [0, 0]], expected, 4)
    assert not matches([[0, 0]], expected, 4)
    assert not matches([[0, 0], [0, 0]], expected, 4)
    assert not matches([[0, 0], [2, 1]], expected, 4)
    assert matches([], np.zeros(0, np.int64), 4)


def test_every_template_parses_and_passes_the_filter_when_labels_exist() -> None:
    accept = SubpathFilter(TRIPLES)
    assert accept.accepts([["a", "a"], ["b"]])
    assert not accept.accepts([["a", "c"]])
    for arity, builder in TEMPLATES.values():
        text, _ = builder(*(["a"] * arity))
        parse(text)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
