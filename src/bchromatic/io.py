"""File formats: DIMACS-style colouring graphs, plain edge lists, and the
clause-line format for (3,3)-monotone formulas.

DIMACS graphs (`.col`) are 1-based on the wire and 0-based in memory:

    c optional comments
    p edge <n> <m>
    e <u> <v>

Edge lists (`.el`) are 0-based, one ``u v`` pair per line, ``#`` comments,
and an optional ``n <count>`` header for graphs with trailing isolated
vertices.

Formulas (`.cnf13`) carry ``c`` comments, a ``p 13sat <n>`` header and one
clause per line as three 1-based variable indices.
"""

from __future__ import annotations

import hashlib
from itertools import compress
from pathlib import Path

from .graphs import Graph, GraphError
from .oracles import Formula33


# Largest vertex count a DIMACS header may declare: the parser allocates one
# adjacency mask per declared vertex before reading any edge.
MAX_DIMACS_VERTICES = 10**6


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def write_dimacs(g: Graph) -> str:
    """Canonical DIMACS text: the true edge count in the header, then the
    edges u < v in increasing order, 1-based."""
    names = [str(v + 1) for v in range(g.n)]
    lines = [f"p edge {g.n} {g.edge_count()}"]
    for u in range(g.n):
        higher = list(compress(names[u + 1:], g.higher_flags(u)))
        if higher:
            head = f"e {names[u]} "
            lines.append(head + ("\n" + head).join(higher))
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Graph:
    n = None
    adj: list[int] = []
    index: dict[str, int] = {}  # vertex tokens read so far -> 0-based vertex
    lookup = index.get
    for i, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        record = parts[0]
        if record == "e":
            if n is None:
                raise ParseError(i, "edge before problem line")
            if len(parts) != 3:
                raise ParseError(i, f"malformed edge line {raw.strip()!r}")
            _, a, b = parts
            u, v = lookup(a), lookup(b)
            if u is None or v is None:
                # first sight of a token: int() also takes spellings like 01 and +1
                u, v = int(a) - 1, int(b) - 1
                if not (0 <= u < n and 0 <= v < n):
                    raise ParseError(i, f"edge ({a}, {b}) out of range")
                index[a], index[b] = u, v
            if u == v:
                raise ParseError(i, "self-loop")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        elif record[0] == "c":
            continue
        elif record == "p":
            if n is not None:
                raise ParseError(i, "duplicate problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                raise ParseError(i, f"malformed problem line {raw.strip()!r}")
            n = int(parts[2])
            if n > MAX_DIMACS_VERTICES:
                raise ParseError(i, f"vertex count {n} exceeds the limit of {MAX_DIMACS_VERTICES}")
            adj = [0] * n
        else:
            raise ParseError(i, f"unknown record {record!r}")
    if n is None:
        raise ParseError(0, "missing problem line")
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    return Graph(n, tuple(adj))


def write_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    n = 0
    explicit = False
    edges: list[tuple[int, int]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2:
                raise ParseError(i, "malformed vertex-count line")
            n, explicit = int(parts[1]), True
            continue
        if len(parts) != 2:
            raise ParseError(i, f"expected 'u v', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ParseError(i, "self-loop")
        if u < 0 or v < 0:
            raise ParseError(i, "negative vertex index")
        edges.append((u, v))
        if not explicit:
            n = max(n, u + 1, v + 1)
    if explicit:
        for i, (u, v) in enumerate(edges):
            if u >= n or v >= n:
                raise ParseError(0, f"edge ({u}, {v}) exceeds declared n={n}")
    return Graph.from_edges(n, edges)


def write_formula(f: Formula33) -> str:
    lines = [f"p 13sat {f.variables}"]
    lines += [" ".join(str(x + 1) for x in cl) for cl in f.clauses]
    return "\n".join(lines) + "\n"


def parse_formula(text: str) -> Formula33:
    n = None
    clauses: list[tuple[int, int, int]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 3 or parts[1] != "13sat":
                raise ParseError(i, f"malformed problem line {line!r}")
            n = int(parts[2])
            continue
        if n is None:
            raise ParseError(i, "clause before problem line")
        if len(parts) != 3:
            raise ParseError(i, "a clause needs exactly three variables")
        x, y, z = (int(p) - 1 for p in parts)
        if not all(0 <= w < n for w in (x, y, z)):
            raise ParseError(i, "variable index out of range")
        clauses.append((x, y, z))
    if n is None:
        raise ParseError(0, "missing problem line")
    return Formula33(n, tuple(clauses))


def load_graph(path: str | Path) -> Graph:
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".el":
        return parse_edge_list(text)
    if path.suffix == ".col":
        return parse_dimacs(text)
    # sniff: DIMACS files carry a problem line
    for line in text.splitlines():
        s = line.strip()
        if not s or s.startswith("c"):
            continue
        return parse_dimacs(text) if s.startswith("p") else parse_edge_list(text)
    raise GraphError(f"cannot determine graph format of {path}")


def load_formula(path: str | Path) -> Formula33:
    return parse_formula(Path(path).read_text())


def graph_digest(g: Graph | str) -> str:
    """Stable hex digest of the canonical DIMACS encoding of ``g``; pass the
    encoding itself when it is already built, since building it is most of
    the cost on large graphs."""
    text = g if isinstance(g, str) else write_dimacs(g)
    return hashlib.sha256(text.encode()).hexdigest()
