"""File formats: DIMACS-style colouring graphs, plain edge lists, and the
clause-line format for (3,3)-monotone formulas, whose type ``Formula33``
lives here beside its reader and writer.

DIMACS graphs (`.col`) are 1-based on the wire and 0-based in memory:

    c optional comments
    p edge <n> <m>
    e <u> <v>

A text of the plain shape that ``write_dimacs`` writes is read in bulk,
without a loop over its lines: a first line ``p edge|edges|col <n> <m>`` of
decimal numbers and single spaces, then only ``e <u> <v>`` lines of ASCII
digits and spaces, each ended by a newline, with no vertex number that
starts with 0.  Every other text (comments, blank lines, CR or tab, other
spellings of numbers) and every text with an error goes through the line
loop, which gives the same graph and is the one source of every error: its
type, message and line number.

Edge lists (`.el`) are 0-based, one ``u v`` pair per line, ``#`` comments,
and an optional ``n <count>`` header for graphs with trailing isolated
vertices.

Formulas (`.cnf13`) carry ``c`` comments, a ``p 13sat <n>`` header and one
clause per line as three 1-based variable indices.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

from .graphs import Graph, GraphError


# Largest vertex count a graph file may give, by a header or a vertex index:
# the parsers allocate one adjacency mask per vertex.
MAX_VERTICES = 10**6

# the words a DIMACS problem line may give as its format
_DIMACS_FORMATS = ("edge", "edges", "col")
# deletes every character a plain DIMACS edge line may hold
_NOT_PLAIN = str.maketrans("", "", "0123456789e \n")


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _number(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"malformed number {token!r}") from None


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class Formula33:
    """Positive 3-literal clauses, every variable in exactly three clauses,
    and as many clauses as variables."""

    variables: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.clauses) != self.variables:
            raise FormulaError("a (3,3)-formula has as many clauses as variables")
        occ = [0] * self.variables
        for cl in self.clauses:
            if len(set(cl)) != 3:
                raise FormulaError(f"clause {cl} must have three distinct variables")
            for x in cl:
                if not 0 <= x < self.variables:
                    raise FormulaError(f"variable {x} out of range")
                occ[x] += 1
        if any(o != 3 for o in occ):
            raise FormulaError("every variable must occur in exactly three clauses")


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
    g = _parse_plain_dimacs(text)
    return _parse_dimacs_lines(text) if g is None else g


def _parse_plain_dimacs(text: str) -> Graph | None:
    """The graph of a text of the plain shape, or None when the text has
    another shape or fails a check, for the line loop to read.  The shape is
    checked over the whole text by counts and one character filter; the only
    Python loop is the one over the edges."""
    head, _, body = text.partition("\n")
    fields = head.split(" ")
    if not (len(fields) == 4 and fields[0] == "p" and fields[1] in _DIMACS_FORMATS
            and fields[2].isdecimal() and fields[3].isdecimal()):
        return None
    # a count longer than the limit's digits is past it, and int() of it might fail
    if len(fields[2]) > len(str(MAX_VERTICES)) or (n := int(fields[2])) > MAX_VERTICES:
        return None
    if not body:
        return Graph.empty(n)
    # Each line starts with "e " and holds the only "e" of the line, and no
    # vertex number starts with 0 (a number follows a space).
    lines = body.count("\n")
    if not (body.startswith("e ") and body.endswith("\n") and body.count("e") == lines
            and body.count("\ne ") == lines - 1 and " 0" not in body
            and not body.translate(_NOT_PLAIN)):
        return None
    # Every third token is an "e", so each line holds exactly two numbers.
    tokens = body.split()
    if len(tokens) != 3 * lines or tokens[::3].count("e") != lines:
        return None
    heads, tails = tokens[1::3], tokens[2::3]
    names = set(heads)
    names.update(tails)
    # a number longer than n's digits is out of range, and int() of it might fail
    if len(max(names, key=len)) > len(fields[2]):
        return None
    # tables over the numbers that occur, never over range(n)
    index = {name: int(name) - 1 for name in names}
    if max(index.values()) >= n:
        return None
    bit = {name: 1 << v for name, v in index.items()}
    adj = [0] * n
    for a, b in zip(heads, tails):
        u, v = index[a], index[b]
        if u == v:
            return None
        adj[u] |= bit[b]
        adj[v] |= bit[a]
    return Graph(n, tuple(adj))


def _parse_dimacs_lines(text: str) -> Graph:
    """The line loop: reads every DIMACS spelling, and raises every error."""
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
                u, v = _number(a, i) - 1, _number(b, i) - 1
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
            if len(parts) != 4 or parts[1] not in _DIMACS_FORMATS:
                raise ParseError(i, f"malformed problem line {raw.strip()!r}")
            n = _number(parts[2], i)
            if n > MAX_VERTICES:
                raise ParseError(i, f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
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
    edge_lines: list[int] = []  # the line of each edge, for the declared-n check
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2:
                raise ParseError(i, "malformed vertex-count line")
            n, explicit = _number(parts[1], i), True
            if n > MAX_VERTICES:
                raise ParseError(i, f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
            continue
        if len(parts) != 2:
            raise ParseError(i, f"expected 'u v', got {line!r}")
        u, v = _number(parts[0], i), _number(parts[1], i)
        if u == v:
            raise ParseError(i, "self-loop")
        if u < 0 or v < 0:
            raise ParseError(i, "negative vertex index")
        if max(u, v) >= MAX_VERTICES:
            raise ParseError(i, f"vertex {max(u, v)} exceeds the limit of {MAX_VERTICES} vertices")
        edges.append((u, v))
        edge_lines.append(i)
        if not explicit:
            n = max(n, u + 1, v + 1)
    if explicit:
        for i, (u, v) in zip(edge_lines, edges):
            if u >= n or v >= n:
                raise ParseError(i, f"edge ({u}, {v}) exceeds declared n={n}")
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
            if n is not None:
                raise ParseError(i, "duplicate problem line")
            if len(parts) != 3 or parts[1] != "13sat":
                raise ParseError(i, f"malformed problem line {line!r}")
            n = _number(parts[2], i)
            continue
        if n is None:
            raise ParseError(i, "clause before problem line")
        if len(parts) != 3:
            raise ParseError(i, "a clause needs exactly three variables")
        x, y, z = (_number(p, i) - 1 for p in parts)
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
