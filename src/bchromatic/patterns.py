"""Induced-subgraph detection for small fixed patterns, and the complexity
dichotomies of the three colouring problems on H-free graph classes: one
table, ``DICHOTOMIES``, of polynomial hosts and hardness triggers per
problem, and one classifier, ``classify(h, problem)``, that reads it.

Pattern names follow the usual additive notation: ``P4``, ``C5``, ``K4``,
``K1,3`` (= ``claw``), ``paw``, sums like ``P3+P1`` and multiplied terms like
``2P2`` or ``3P1``.  Expansion is table-driven: atoms come from a small
builder table and ``+``/multiplier syntax composes them.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .graphs import Graph, bits


class PatternError(ValueError):
    """Unknown or malformed pattern name."""


def path_graph(r: int) -> Graph:
    return Graph.from_edges(r, [(i, i + 1) for i in range(r - 1)])


def cycle_graph(r: int) -> Graph:
    if r < 3:
        raise PatternError(f"cycle needs at least 3 vertices, got {r}")
    return Graph.from_edges(r, [(i, (i + 1) % r) for i in range(r)])


def complete_graph(r: int) -> Graph:
    full = (1 << r) - 1
    return Graph(r, tuple(full ^ 1 << v for v in range(r)))


def star_graph(r: int) -> Graph:
    """K_{1,r}: one centre adjacent to r leaves."""
    return Graph.from_edges(r + 1, [(0, i) for i in range(1, r + 1)])


_FIXED_ATOMS = {
    "claw": lambda: star_graph(3),
    "paw": lambda: Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
}

_ATOM_RE = re.compile(r"^(?:P(\d+)|C(\d+)|K1,(\d+)|K(\d+))$")


def _atom_graph(token: str) -> Graph:
    if token in _FIXED_ATOMS:
        return _FIXED_ATOMS[token]()
    m = _ATOM_RE.match(token)
    if not m:
        raise PatternError(f"unknown pattern atom {token!r}")
    p, c, s, k = m.groups()
    if p is not None:
        return path_graph(int(p))
    if c is not None:
        return cycle_graph(int(c))
    if s is not None:
        return star_graph(int(s))
    return complete_graph(int(k))


@lru_cache(maxsize=None)
def pattern_graph(name: str) -> Graph:
    """Expand a pattern name such as ``2P2+P1`` into a concrete graph."""
    adj: list[int] = []  # each copy's masks shifted up by the vertices before it
    for term in name.replace(" ", "").split("+"):
        if not term:
            raise PatternError(f"empty term in pattern {name!r}")
        m = re.match(r"^(\d*)(.+)$", term)
        mult = int(m.group(1)) if m.group(1) else 1
        atom = _atom_graph(m.group(2))
        for _ in range(mult):
            shift = len(adj)
            adj.extend(a << shift for a in atom.adj)
    if not adj:
        raise PatternError(f"pattern {name!r} has no vertices")
    return Graph(len(adj), tuple(adj))


# -- induced-subgraph search ------------------------------------------------
#
# One loop with an explicit stack places the pattern's vertices in a fixed
# order: components by decreasing size (ties by their smallest vertex), each
# in BFS order from its smallest vertex, host candidates in increasing order.
# The first embedding found is therefore the lexicographically least in that
# order.  Two prunings keep exactly that embedding, so neither changes a
# verdict or a witness:
#
# * symmetry conditions (Grochow & Kellis 2007): each pattern vertex v, taken
#   in order, gets an image below the images of the other vertices in its
#   orbit under the automorphisms that fix every earlier vertex.  Composing
#   the least embedding with such an automorphism gives an embedding that
#   agrees before v, so the least one meets every condition;
# * a failure memo: whether the remaining components embed depends only on
#   the next component, the host vertices still allowed and the earlier
#   images that later conditions read.  Failed subproblems are recorded for
#   the rest of the call.


class _Step(NamedTuple):
    """What placing the pattern vertex at one position of the order reads."""
    component: int
    parent: int               # earliest earlier neighbour in the component, -1 at its start
    adjacent: tuple[int, ...]  # the other earlier neighbours in the component
    between: tuple[int, ...]  # non-neighbours placed between ``parent`` and here
    below: tuple[int, ...]    # positions whose images must be smaller than this one


class _Plan(NamedTuple):
    order: tuple[int, ...]    # pattern vertices in search order
    steps: tuple[_Step, ...]
    # per component: earlier positions whose images its conditions read
    reads: tuple[tuple[int, ...], ...]


def _embed(g: Graph, plan: _Plan, pins: list[int] | None = None) -> list[int] | None:
    """Host images of ``plan.order`` under the least induced embedding into
    ``g``, or None.  ``pins`` restricts each position to a mask of hosts."""
    k = len(plan.order)
    adj, steps, reads = g.adj, plan.steps, plan.reads
    img, closed, untried = [0] * k, [0] * k, [0] * k
    # seen[j]: closed neighbourhoods of the images placed in the current
    # component before position j; allowed[c]: hosts left for component c
    seen = [0] * (k + 1)
    allowed = [0] * len(reads)
    keys: list[tuple] = [()] * len(reads)
    failed: set[tuple] = set()
    allowed[0] = g.full_mask()
    j = 0
    while True:
        ci, p, adjacent, between, below = steps[j]
        if p >= 0:
            cand = allowed[ci] & adj[img[p]] & ~seen[p]
            for t in adjacent:
                cand &= adj[img[t]]
            for t in between:
                cand &= ~closed[t]
        elif ci:
            # seen[j] still covers the previous component: its images'
            # closed neighbourhoods are closed to this one
            allowed[ci] = allowed[ci - 1] & ~seen[j]
            seen[j] = 0
            keys[ci] = key = (ci, allowed[ci], *[img[t] for t in reads[ci]])
            cand = 0 if key in failed else allowed[ci]
        else:
            cand = allowed[0]
        if below and cand:
            floor = 0
            for t in below:
                if img[t] >= floor:
                    floor = img[t] + 1
            cand = cand >> floor << floor
        if pins is not None:
            cand &= pins[j]
        untried[j] = cand
        while not untried[j]:
            if steps[j].parent < 0:
                failed.add(keys[steps[j].component])
            j -= 1
            if j < 0:
                return None
        cand = untried[j]
        low = cand & -cand
        untried[j] = cand ^ low
        v = low.bit_length() - 1
        img[j] = v
        closed[j] = adj[v] | low
        seen[j + 1] = seen[j] | closed[j]
        j += 1
        if j == k:
            return img


def _make_plan(h: Graph, below: list[list[int]] | None = None) -> _Plan:
    """The search order of ``h``; ``below[j]`` lists the positions whose
    images must be smaller than position j's (none by default)."""
    order: list[int] = []
    component: list[int] = []
    starts: list[int] = []
    for ci, comp in enumerate(sorted(h.components(), key=lambda c: (-len(c), c))):
        queue, reached = [comp[0]], 1 << comp[0]
        for u in queue:
            for w in bits(h.adj[u] & ~reached):
                reached |= 1 << w
                queue.append(w)
        starts.append(len(order))
        order += queue
        component += [ci] * len(queue)
    below = below or [[] for _ in order]
    pos = {v: j for j, v in enumerate(order)}
    steps = []
    for j, v in enumerate(order):
        earlier = sorted(pos[w] for w in bits(h.adj[v]) if pos[w] < j)
        parent = earlier[0] if earlier else -1
        between = tuple(t for t in range(parent + 1, j) if t not in earlier) if earlier else ()
        steps.append(_Step(component[j], parent, tuple(earlier[1:]), between, tuple(below[j])))
    reads = tuple(tuple(sorted({t for later in below[s:] for t in later if t < s}))
                  for s in starts)
    return _Plan(tuple(order), tuple(steps), reads)


def _distances(h: Graph, v: int) -> list[int]:
    """BFS distance from ``v`` to every vertex, -1 where unreachable."""
    dist = [-1] * h.n
    frontier = reached = 1 << v
    d = 0
    while frontier:
        nxt = 0
        for u in bits(frontier):
            dist[u] = d
            nxt |= h.adj[u]
        frontier = nxt & ~reached
        reached |= frontier
        d += 1
    return dist


def _symmetry_conditions(h: Graph, bare: _Plan) -> list[list[int]]:
    """Per position of ``bare.order``, the earlier positions whose images
    must be smaller: position i goes below every other vertex of its orbit
    under the automorphisms fixing positions 0..i-1.

    Each orbit member is found by a pinned search of ``h`` into itself.  The
    automorphisms that fix a vertex set keep every vertex's degree and
    distances to that set, so those labels narrow the candidates and every
    pinned search; once the labels tell all vertices apart the stabiliser is
    trivial and the rest of the orbits are singletons.  The group itself is
    never listed (8P1 alone has 40,320 automorphisms).
    """
    pos = {v: j for j, v in enumerate(bare.order)}
    below: list[list[int]] = [[] for _ in bare.order]
    label = [(d,) for d in h.degrees()]
    for i, v in enumerate(bare.order):
        if len(set(label)) == h.n:
            break
        classes: dict[tuple, int] = {}
        for u, lab in enumerate(label):
            classes[lab] = classes.get(lab, 0) | 1 << u
        pins = [classes[label[u]] for u in bare.order]
        for w in bits(classes[label[v]] & ~(1 << v)):
            pins[i] = 1 << w
            if _embed(h, bare, pins) is not None:
                below[pos[w]].append(i)
        label = [lab + (d,) for lab, d in zip(label, _distances(h, v))]
    # a < s < j already implies a < j: fewer reads, more memo hits
    return [[t for t in lows if not any(t in below[s] for s in lows)] for lows in below]


@lru_cache(maxsize=64)
def _plan(h: Graph) -> _Plan:
    return _make_plan(h, _symmetry_conditions(h, _make_plan(h)))


def contains_induced(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """Injective map preserving edges and non-edges, or None.

    The returned tuple maps pattern vertex i to host vertex witness[i]; it is
    the least embedding in the search order described above.  Patterns with
    a row in ``_FREENESS_PROOFS`` first try that proof, which answers None
    without a search when it succeeds.  On hosts that are denser than half
    the possible edges the search runs on the complements, which leaves the
    witness unchanged and keeps the dense hardness instances cheap to check.
    A host with fewer edges, or fewer non-edges, than the pattern is
    answered None before either.  When the pattern has no isolated vertex,
    no embedding reaches an isolated host vertex, so those are dropped from
    the host before the proof and the search; the rest keep their order,
    and the density of the whole host still chooses the search order, so
    the witness is unchanged.
    """
    if h.n > g.n:
        return None
    if h.n == 0:
        return ()
    edges, pairs = g.edge_count(), g.n * (g.n - 1) // 2
    h_edges = h.edge_count()
    if h_edges > edges or h.n * (h.n - 1) // 2 - h_edges > pairs - edges:
        return None
    hosts = None
    if 0 in g.adj and 0 not in h.adj:
        hosts = [v for v, a in enumerate(g.adj) if a]
        g = g.subgraph(hosts)
    proof = _FREENESS_PROOFS.get(h)
    if proof is not None and proof(g):
        return None
    if 2 * edges > pairs:
        g, h = g.complement(), h.complement()
    plan = _plan(h)
    images = _embed(g, plan)
    if images is None:
        return None
    witness = [0] * h.n
    for v, x in zip(plan.order, images):
        witness[v] = x if hosts is None else hosts[x]
    return tuple(witness)


def is_free(g: Graph, pattern: str) -> bool:
    """True iff ``g`` has no induced copy of the named pattern."""
    return contains_induced(g, pattern_graph(pattern)) is None


def is_induced_subgraph_of(h: Graph, pattern: str) -> bool:
    """True iff ``h`` embeds induced into the expanded pattern graph."""
    return contains_induced(pattern_graph(pattern), h) is not None


# -- structural helpers ------------------------------------------------------


def is_forest(g: Graph) -> bool:
    return g.edge_count() == g.n - len(g.component_masks())


def is_split(g: Graph) -> bool:
    """Whether the vertices split into a clique and an independent set,
    i.e. ``g`` is (2P2, C4, C5)-free (Földes & Hammer 1977).  With degrees
    d_1 >= ... >= d_n and m the largest i with d_i >= i - 1, ``g`` is split
    iff d_1 + ... + d_m = m(m - 1) + d_(m+1) + ... + d_n (Hammer & Simeone
    1981)."""
    degs = sorted(g.degrees(), reverse=True)
    m = 0
    while m < g.n and degs[m] >= m:
        m += 1
    return sum(degs[:m]) == m * (m - 1) + sum(degs[m:])


def _partitioned(classes, r: int) -> bool:
    """True iff the sets ``classes[v] & r`` for v in ``r`` partition ``r``.

    ``classes`` is indexed by vertex, a list or ``_ClosedNeighbourhoods``;
    ``classes[v]`` must contain v and come from a symmetric relation, such
    as closed neighbourhoods.  Take the least vertex's class, check that it
    is the class of each member, remove it and repeat: a vertex left later
    cannot see into a removed class K, since by symmetry it would lie in a
    member's class, which is K.
    """
    while r:
        cls = classes[(r & -r).bit_length() - 1] & r
        for w in bits(cls):
            if classes[w] & r != cls:
                return False
        r ^= cls
    return True


class _ClosedNeighbourhoods:
    """``closed[v]`` is ``adj[v] | 1 << v``, made when it is read: a list of
    them would hold about n²/16 bytes even on a graph with no edges."""

    def __init__(self, g: Graph):
        self.adj = g.adj

    def __getitem__(self, v: int) -> int:
        return self.adj[v] | 1 << v


def _closed_non_neighbourhoods(g: Graph) -> list[int]:
    # ~a holds v and every non-neighbour of v, and nothing above n matters
    return [~a for a in g.adj]


def has_independent_triple(g: Graph, mask: int) -> bool:
    """Whether ``mask`` holds three pairwise non-adjacent vertices of ``g``."""
    adj = g.adj
    for u in bits(mask):
        later = mask & ~adj[u] & ~((2 << u) - 1)  # non-neighbours of u above it
        for v in bits(later):
            if later & ~(adj[v] | 1 << v):
                return True
    return False


def p3p1_decomposition(g: Graph) -> list[tuple[int, ...]] | None:
    """The co-components of ``g`` in ``co_components`` order, or None
    exactly when ``g`` has an induced P3+P1.

    The complement of P3+P1 is the paw, and a graph is paw-free iff each of
    its components is triangle-free or complete multipartite (Olariu 1988).
    Read in ``g``: each co-component has no independent triple, or is a
    disjoint union of complete graphs.
    """
    closed = _ClosedNeighbourhoods(g)
    parts = g.component_masks(co=True)
    if any(not _partitioned(closed, p) and has_independent_triple(g, p) for p in parts):
        return None
    return [tuple(bits(p)) for p in parts]


# -- freeness proofs ------------------------------------------------------------


def _peel(g: Graph, classes: list[int]) -> int:
    """The vertices left after deleting, until a pass deletes none, every
    vertex whose non-neighbours still alive are partitioned by ``classes``.

    Soundness: let v play pattern vertex x in an induced copy of H.  The
    images of H - N_H[x] are then all non-neighbours of v, so they form an
    induced H - N_H[x] among them.  Hence v lies in no induced H when its
    non-neighbourhood is free of H - N_H[x] for every x.  Such a v can be
    deleted: every induced H of G then lies in G - v, and the argument
    applies again inside the vertices left.  G is H-free when none is left.

    * 2P2+P1: H - N_H[x] is P2+P1, or 2P2 (for the isolated x), which
      contains P2+P1.  A graph is (P2+P1)-free iff its complement is
      P3-free, i.e. iff it is complete multipartite: non-adjacency
      partitions it, ``classes`` = closed non-neighbourhoods.
    * 2P3: H - N_H[x] is P3+P1 (x an end) or P3 (x a middle), and both
      contain P3.  A graph is P3-free iff it is a union of cliques: closed
      neighbourhoods partition it, ``classes`` = closed neighbourhoods.
    """
    adj = g.adj
    alive = g.full_mask()
    while True:
        before = alive
        for v in bits(alive):
            if _partitioned(classes, alive & ~(adj[v] | 1 << v)):
                alive ^= 1 << v
        if alive == before:
            return alive


def _no_2p3(g: Graph) -> bool:
    # a union of cliques has no P3, so no 2P3, and needs no peel
    closed = [a | 1 << v for v, a in enumerate(g.adj)]
    return _partitioned(closed, g.full_mask()) or not _peel(g, closed)


class _EdgesNear(dict):
    """``near[w]`` is the set of edges, a bitset over their numbers, with an
    end in N[w], made when first read."""

    def __init__(self, adj: tuple[int, ...], incident: list[int]):
        self.adj, self.incident = adj, incident

    def __missing__(self, w: int) -> int:
        near = 0
        for v in bits(self.adj[w] | 1 << w):
            near |= self.incident[v]
        self[w] = near
        return near


def _no_3p2(g: Graph) -> bool:
    """Whether ``g`` has no three pairwise far edges, where no end of one
    lies in the closed neighbourhood of another: an induced 3P2 is exactly
    such a triple, an induced matching of size 3 (Cameron 1989).

    A greedy pass first takes an edge at each vertex still far from the
    edges taken, and answers most hosts that hold the pattern before even
    the edges are counted.  Otherwise, for each edge ab and each edge xy of
    G - N[a] - N[b], x its lower end, one AND of ``near`` sets says whether
    an edge numbered above ab lies far from all four ends: every far triple
    is found from its lowest edge.  Walking x before y skips at once each x
    with no such edge, which keeps two cliques, with many far pairs, cheap.
    A host with more edges than non-edges proves nothing: each ``near`` set
    there ORs about n/2 sets of about n²/4 bits.
    """
    adj, rest, taken = g.adj, -1, 0
    for v, a in enumerate(adj):
        if rest >> v & 1 and a & rest:
            rest &= ~(a | adj[(a & rest & -(a & rest)).bit_length() - 1])
            taken += 1
            if taken == 3:
                return False
    if 4 * g.edge_count() > g.n * (g.n - 1):
        return False
    edges = [(u, v) for u, a in enumerate(adj) for v in bits(a & ~((2 << u) - 1))]
    incident, lower_ends = [0] * g.n, 0
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
        lower_ends |= 1 << u
    near = _EdgesNear(adj, incident)
    above = (1 << len(edges)) - 1
    for a, b in edges:
        above &= above - 1  # the edges numbered above ab
        far = above & ~(near[a] | near[b])
        if far:
            rest = ~(adj[a] | adj[b])
            for x in bits(rest & lower_ends):
                beside = far & ~near[x]
                if beside:
                    for y in bits(adj[x] & rest & ~((2 << x) - 1)):
                        if beside & ~near[y]:
                            return False
    return True


# Pattern -> a test that, when it holds, proves the host free of the
# pattern.  A failed test proves nothing: the search then runs as before,
# so every witness stays the least one.  The P3+P1 row is exact, and so is
# the 3P2 row on hosts with at most as many edges as non-edges.  The peel
# reads each class many times over its passes, so it takes them as a list.
_FREENESS_PROOFS = {
    pattern_graph("2P2+P1"): lambda g: not _peel(g, _closed_non_neighbourhoods(g)),
    pattern_graph("2P3"): _no_2p3,
    pattern_graph("3P2"): _no_3p2,
    pattern_graph("P3+P1"): lambda g: p3p1_decomposition(g) is not None,
}


# -- dichotomies --------------------------------------------------------------


class Verdict(Enum):
    POLY = "polynomial"
    NP_HARD = "NP-hard"
    NP_COMPLETE = "NP-complete"
    OPEN = "open"


class DichotomyVerdict(NamedTuple):
    verdict: Verdict
    reason: str
    family: str | None = None


_OPEN_FAMILIES = {
    (4, 2): "P4+P2+sP1",
    (4,): "P4+sP1",
    (3, 2): "P3+P2+sP1",
    (3,): "P3+sP1",
    (2, 2): "2P2+sP1",
    (2,): "P2+sP1",
    (): "sP1",
}


def _open_family(h: Graph) -> str:
    sizes = sorted((len(c) for c in h.components()), reverse=True)
    isolated = sizes.count(1)
    key = tuple(s for s in sizes if s > 1)
    if key not in _OPEN_FAMILIES:
        raise AssertionError(f"unexpected open linear forest with parts {sizes}")
    return f"{_OPEN_FAMILIES[key]} (s={isolated})"


class Dichotomy(NamedTuple):
    hosts: tuple[str, ...]     # maximal H for which the problem is polynomial
    verdict: Verdict           # the complexity of every trigger
    triggers: tuple[str, ...]  # induced subgraphs of H that make it hard, in reporting order
    exhaustive: bool           # every H in no host contains a trigger


# The cycle trigger is the forest test: it is tried after C3, so it reports
# an induced cycle of length at least 4.  Once both are ruled out H is a
# forest, and a forest vertex of degree >= 3 with three of its neighbours
# is an induced claw, so "claw" then means "not a linear forest".
_CYCLE = "C4 or longer induced cycle"

DICHOTOMIES = {
    "b": Dichotomy(("P4",), Verdict.NP_HARD, ("C3", _CYCLE, "2P2", "3P1"), True),
    "tightb": Dichotomy(("P4", "P3+P1", "2P2+P1"), Verdict.NP_COMPLETE,
                        ("C3", _CYCLE, "claw", "P5", "3P2", "2P3"), False),
    "fall": Dichotomy(("P4", "P3+P1"), Verdict.NP_HARD,
                      ("C3", _CYCLE, "claw", "2P2", "4P1", "P2+2P1"), True),
}


def classify(h: Graph, problem: str) -> DichotomyVerdict:
    """The complexity of ``problem`` (a key of ``DICHOTOMIES``: b-chromatic
    number, tight b-chromatic number, or the fall chromatic and achromatic
    numbers) on H-free graphs.

    Polynomial when H embeds in a host, hard when it contains a trigger;
    where the triggers are not exhaustive the remaining H are linear forests
    in one of the open families.
    """
    if h.n == 0:
        raise PatternError("classifier needs a non-empty forbidden graph H")
    d = DICHOTOMIES[problem]
    for host in d.hosts:
        if is_induced_subgraph_of(h, host):
            return DichotomyVerdict(Verdict.POLY, f"H is an induced subgraph of {host}")
    for trigger in d.triggers:
        if not (is_forest(h) if trigger == _CYCLE else is_free(h, trigger)):
            return DichotomyVerdict(d.verdict, f"H contains an induced {trigger}")
    if d.exhaustive:
        raise AssertionError(f"dichotomy gap for H with {h.n} vertices")
    return DichotomyVerdict(Verdict.OPEN, "complexity unresolved for this family", _open_family(h))
