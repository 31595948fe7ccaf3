"""Seeded inputs for the serving benchmark: graphs, query texts, edge updates.

Everything the program under test receives is made here from the
``--seed`` argument, so a change to the program's own generators,
dataset stand-ins or query templates cannot change what is measured.
The program only ever sees ``(source, target, label)`` triples and CPQ
query text.

* :func:`community_triples` — a community-structured digraph with
  exponentially skewed labels (the shape of the paper's ``youtube``
  stand-in): dense clusters, sparse bridges, five labels where label
  ``l1`` dominates and the tail decays geometrically (rate 0.5).
* :func:`template_instances` — random-label instances of the paper's
  twelve query templates (Fig. 5), filtered as in Sec. VI: every
  sub-path of length <= 2 must be non-empty on the graph.
* :func:`update_edges` — edges absent from the graph whose
  maintenance ball has a typical size, so one update costs about the
  same whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Triple = tuple[int, int, str]

#: Label names; ``id`` is the identity keyword of the query syntax.
LABELS = ("l1", "l2", "l3", "l4", "l5")


@dataclass(frozen=True)
class GraphSpec:
    """Generator parameters of one benchmark graph."""

    vertices: int
    communities: int
    intra_edges: int
    inter_edges: int
    k: int


#: The serving graph (``serve-distinct``, ``serve-hot``): about 29k
#: CPQx classes for 110k pairs at k=2.
SERVE_GRAPH = GraphSpec(vertices=1500, communities=48, intra_edges=7000, inter_edges=1800, k=2)
#: The maintenance graph (``update-mix``): about 130k classes at k=3.
UPDATE_GRAPH = GraphSpec(vertices=750, communities=24, intra_edges=3500, inter_edges=900, k=3)


def _label(rng: random.Random) -> str:
    """Label ``l<i>`` with probability proportional to ``exp(-0.5 (i-1))``."""
    return LABELS[min(int(rng.expovariate(0.5)), len(LABELS) - 1)]


def community_triples(spec: GraphSpec, seed: int) -> list[Triple]:
    """Distinct triples of a community graph; vertices are ``0..n-1``.

    Vertices are dealt into communities of equal size and every
    community gets the same number of intra-community edges, so the
    seed changes which vertices and labels meet but not the graph's
    shape; bridges join uniformly random vertex pairs.
    """
    rng = random.Random(f"graph-{seed}")
    order = list(range(spec.vertices))
    rng.shuffle(order)
    groups = [order[start::spec.communities] for start in range(spec.communities)]
    edges: set[Triple] = set()
    for number, group in enumerate(groups):
        quota = (number + 1) * spec.intra_edges // spec.communities
        while len(edges) < quota:
            source, target = rng.sample(group, 2)
            edges.add((source, target, _label(rng)))
    while len(edges) < spec.intra_edges + spec.inter_edges:
        source, target = rng.randrange(spec.vertices), rng.randrange(spec.vertices)
        if source != target:
            edges.add((source, target, _label(rng)))
    return sorted(edges)


# ---------------------------------------------------------------------------
# query templates
# ---------------------------------------------------------------------------


def inverse(atom: str) -> str:
    """The inverse of a label atom (``l1`` <-> ``l1^-``)."""
    return atom[:-2] if atom.endswith("^-") else atom + "^-"


def _star(a: str, b: str, c: str) -> tuple[str, list[list[str]]]:
    text = f"({a} . {inverse(a)}) & ({b} . {inverse(b)}) & ({c} . {inverse(c)}) & id"
    return text, [[a, inverse(a)], [b, inverse(b)], [c, inverse(c)]]


#: name -> (arity, builder).  A builder returns the query text and its
#: maximal label chains (the sequences the sub-path filter checks).
TEMPLATES = {
    "C2": (2, lambda a, b: (f"{a} . {b}", [[a, b]])),
    "C4": (4, lambda a, b, c, d: (f"{a} . {b} . {c} . {d}", [[a, b, c, d]])),
    "T": (3, lambda a, b, c: (f"({a} . {b}) & {c}", [[a, b], [c]])),
    "S": (4, lambda a, b, c, d: (f"({a} . {b}) & ({c} . {d})", [[a, b], [c, d]])),
    "TT": (5, lambda a, b, c, d, e: (
        f"(({a} . {b}) & {c}) & ({d} . {e})", [[a, b], [c], [d, e]])),
    "St": (3, _star),
    "TC": (4, lambda a, b, c, d: (f"(({a} . {b}) & {c}) . {d}", [[a, b], [c], [d]])),
    "SC": (5, lambda a, b, c, d, e: (
        f"(({a} . {b}) & ({c} . {d})) . {e}", [[a, b], [c, d], [e]])),
    "ST": (7, lambda a, b, c, d, e, f, g: (
        f"(({a} . {b}) & ({c} . {d})) . (({e} . {f}) & {g})",
        [[a, b], [c, d], [e, f], [g]])),
    "C2i": (2, lambda a, b: (f"({a} . {b}) & id", [[a, b]])),
    "Ti": (3, lambda a, b, c: (f"({a} . {b} . {c}) & id", [[a, b, c]])),
    "Si": (4, lambda a, b, c, d: (f"({a} . {b} . {c} . {d}) & id", [[a, b, c, d]])),
}


class SubpathFilter:
    """Which label atoms and atom pairs have a non-empty relation."""

    def __init__(self, triples: list[Triple]) -> None:
        heads: dict[str, set[int]] = {}  # atom -> vertices its edges enter
        tails: dict[str, set[int]] = {}  # atom -> vertices its edges leave
        for source, target, name in triples:
            tails.setdefault(name, set()).add(source)
            heads.setdefault(name, set()).add(target)
            tails.setdefault(inverse(name), set()).add(target)
            heads.setdefault(inverse(name), set()).add(source)
        self.atoms = sorted(heads)
        self._pairs = {
            (first, second)
            for first in self.atoms
            for second in self.atoms
            if heads[first] & tails[second]
        }

    def accepts(self, chains: list[list[str]]) -> bool:
        return all(
            all(chain[i] in self.atoms for i in range(len(chain)))
            and all((chain[i], chain[i + 1]) in self._pairs for i in range(len(chain) - 1))
            for chain in chains
        )


def template_instances(
    triples: list[Triple], seed: int, per_template: int, tag: str = "queries"
) -> dict[str, list[str]]:
    """Up to ``per_template`` distinct filtered instances of each template.

    Labels are drawn uniformly from the extended label set (forward and
    inverse), as in the paper's workload generation.
    """
    rng = random.Random(f"{tag}-{seed}")
    accept = SubpathFilter(triples)
    instances: dict[str, list[str]] = {}
    for name, (arity, builder) in TEMPLATES.items():
        seen: set[str] = set()
        chosen: list[str] = []
        for _ in range(40 * per_template):
            if len(chosen) == per_template:
                break
            text, chains = builder(*(rng.choice(accept.atoms) for _ in range(arity)))
            if text not in seen and accept.accepts(chains):
                seen.add(text)
                chosen.append(text)
        instances[name] = chosen
    return instances


def round_robin(instances: dict[str, list[str]], rounds: int) -> list[str]:
    """``rounds`` rounds of one query per template, each template cycling
    through its own instances; a query recurs only after every other
    instance of its template, far beyond a 256-entry LRU's reach."""
    return [
        queries[r % len(queries)]
        for r in range(rounds)
        for queries in instances.values()
        if queries
    ]


def stratified_pool(triples: list[Triple], seed: int, size: int, answer_count) -> list[str]:
    """``size`` template instances spread evenly over the answer-size
    distribution, in a fixed seed-independent order of size strata.

    Twenty-five instances per template are sorted by
    ``answer_count(text)`` and the pool takes one at each of ``size``
    evenly spaced quantiles of the central 95% (the extreme 2.5% at
    either end differ most from seed to seed), so every seed's pool has
    about the same answer sizes.  Position ``r`` of the result holds the
    same stratum for every seed (a fixed permutation), which makes
    position ``r`` a stable Zipf rank.
    """
    candidates = sorted(set(round_robin(template_instances(triples, seed, 25, tag="pool"), 25)))
    by_size = sorted(candidates, key=lambda text: (answer_count(text), text))
    quantiles = [0.025 + 0.95 * (i + 0.5) / size for i in range(size)]
    picked = [by_size[int(q * len(by_size))] for q in quantiles]
    strata = list(range(size))
    random.Random("pool-strata").shuffle(strata)
    return [picked[stratum] for stratum in strata]


def zipf_stream(pool: list[str], seed: int, length: int, exponent: float = 1.1) -> list[str]:
    """``length`` draws from ``pool`` with a Zipf skew: position ``r`` of
    the pool is requested with weight ``1 / (r + 1) ** exponent``."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(pool))]
    return random.Random(f"zipf-{seed}").choices(pool, weights=weights, k=length)


def update_edges(triples: list[Triple], seed: int, count: int, radius: int) -> list[Triple]:
    """``count`` distinct edges absent from ``triples`` whose maintenance
    cost is typical: of ``5 * count`` random candidates, the middle fifth
    by the number of vertex pairs within ``radius`` hops of the two
    endpoints (the pairs whose ``L<=k`` lazy maintenance recomputes, for
    ``radius = k - 1``), in the order they were drawn."""
    rng = random.Random(f"updates-{seed}")
    neighbours: dict[int, set[int]] = {}
    for source, target, _ in triples:
        neighbours.setdefault(source, set()).add(target)
        neighbours.setdefault(target, set()).add(source)
    vertices = sorted(neighbours)

    def shells(center: int) -> list[int]:
        """How many vertices lie at each distance ``0..radius``."""
        seen, frontier, sizes = {center}, [center], [1]
        for _ in range(radius):
            frontier = [n for v in frontier for n in neighbours[v] if n not in seen and not seen.add(n)]
            sizes.append(len(frontier))
        return sizes

    present = set(triples)
    candidates: list[tuple[int, int, Triple]] = []
    while len(candidates) < 5 * count:
        source, target = rng.sample(vertices, 2)
        edge = (source, target, _label(rng))
        if edge in present:
            continue
        present.add(edge)
        near, far = shells(source), shells(target)
        ball = sum(near[i] * sum(far[: radius - i + 1]) for i in range(radius + 1))
        candidates.append((ball, len(candidates), edge))
    middle = sorted(candidates)[2 * count : 3 * count]
    return [edge for _, _, edge in sorted(middle, key=lambda item: item[1])]
