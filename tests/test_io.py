"""File format round trips and parse errors."""

import hashlib
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchromatic import io
from bchromatic.gadgets import FORMULA_N6_UNSATISFIABLE, petersen_graph
from bchromatic.graphs import Graph, GraphError
from bchromatic.io import (MAX_VERTICES, ParseError, graph_digest, load_graph,
                           parse_dimacs, parse_edge_list, parse_formula,
                           write_dimacs, write_edge_list, write_formula)
from bchromatic.oracles import FormulaError
from bchromatic.patterns import pattern_graph

from helpers import naive_edges, naive_write_dimacs, random_graph


def test_dimacs_round_trip():
    rng = random.Random(70)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert parse_dimacs(write_dimacs(g)) == g
        assert graph_digest(parse_dimacs(write_dimacs(g))) == graph_digest(g)


def test_edge_list_round_trip():
    rng = random.Random(71)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert parse_edge_list(write_edge_list(g)) == g


def test_dimacs_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_dimacs("p edge 3 1\ne 1 5\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("p edge 3 0\nq 1 2\n")
    # past 4300 digits int() refuses a number: a plain header of 5000 digits
    with pytest.raises(ParseError) as err:
        parse_dimacs(f"p edge {'9' * 5000} 0\n")
    assert err.value.line_no == 1


def test_dimacs_comments_and_one_based():
    g = parse_dimacs("c triangle\np edge 3 3\ne 1 2\ne 2 3\ne 3 1\n")
    assert g == pattern_graph("C3")


def test_formula_round_trip():
    f = FORMULA_N6_UNSATISFIABLE
    assert parse_formula(write_formula(f)) == f
    with pytest.raises(ParseError):
        parse_formula("p 13sat 3\n1 2\n")


# Malformed formulas -> (str(exc), line_no); every one is a ParseError.
FORMULA_ERRORS = [
    ("p 13sat x\n", "line 1: malformed number 'x'", 1),
    ("c head\np 13sat 3\n1 2 z\n", "line 3: malformed number 'z'", 3),
    ("p 13sat 3\n1 2 3.0\n", "line 2: malformed number '3.0'", 2),
    ("p 13sat 3\n1 2 4\n", "line 2: variable index out of range", 2),
    ("1 2 3\n", "line 1: clause before problem line", 1),
    ("p 13sat\n", "line 1: malformed problem line 'p 13sat'", 1),
    ("c only\n", "line 0: missing problem line", 0),
]


@pytest.mark.parametrize("text, message, line_no", FORMULA_ERRORS)
def test_formula_errors_carry_line_numbers(text, message, line_no):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == message
    assert err.value.line_no == line_no


def test_formula_duplicate_problem_line():
    """A second problem line is an error, as in DIMACS, not a restart."""
    with pytest.raises(ParseError, match="^line 4: duplicate problem line$") as err:
        parse_formula("p 13sat 3\n1 2 3\n1 2 3\np 13sat 3\n1 2 3\n")
    assert err.value.line_no == 4


def test_load_graph_dispatch(tmp_path):
    g = petersen_graph()
    col = tmp_path / "g.col"
    col.write_text(write_dimacs(g))
    assert load_graph(col) == g
    el = tmp_path / "g.el"
    el.write_text(write_edge_list(g))
    assert load_graph(el) == g
    sniffed = tmp_path / "g.txt"
    sniffed.write_text(write_dimacs(g))
    assert load_graph(sniffed) == g


def test_edge_list_declared_n():
    g = parse_edge_list("n 5\n0 1\n")
    assert g.n == 5 and g.edge_count() == 1
    with pytest.raises(ParseError):
        parse_edge_list("n 2\n0 4\n")


@pytest.mark.parametrize("text, first_record", [
    ("c made by hand\n\n   \nc e 1 2\np edge 2 1\ne 1 2\n", "dimacs"),
    ("\n\n  \n# a comment\n0 1\n1 2\n", "edge list"),
    ("c a DIMACS comment\n\n0 1\n", "edge list"),  # which the edge-list parser rejects
    ("c comment\rp edge 2 1\ne 1 2\n", "dimacs"),  # \r ends a line too
    ("c comment\x1c0 1\n", "edge list"),
    ("# an edge list\nn 3\n0 1\n", "edge list"),
    ("", None),
    ("c only\n\n \t\n\rc more\n", None),
])
def test_load_graph_sniffs_the_first_record(tmp_path, text, first_record):
    """A file with no suffix is DIMACS when its first line that is neither
    blank nor a c comment is a problem line, and an edge list otherwise."""
    path = tmp_path / "g"
    path.write_bytes(text.encode())
    if first_record is None:
        with pytest.raises(GraphError, match="cannot determine graph format"):
            load_graph(path)
    else:
        parse = parse_dimacs if first_record == "dimacs" else parse_edge_list
        assert _outcome(load_graph, path) == _outcome(parse, text)


@pytest.mark.parametrize("text, message", [
    ("0 1000000", "line 1: vertex 1000000 exceeds the limit of 1000000 vertices"),
    ("# big\n03 99999999999231", "line 2: vertex 99999999999231 exceeds the limit of 1000000 vertices"),
    ("n 1000001", "line 1: vertex count 1000001 exceeds the limit of 1000000"),
])
def test_edge_list_size_limit(text, message):
    """The DIMACS vertex limit holds for edge lists too, checked before the
    graph is allocated."""
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


# Malformed edge lists -> (exception type, str(exc), line_no), as in
# DIMACS_ERRORS below.
EDGE_LIST_ERRORS = [
    ("n 2\n0 1\n0 4\n", ParseError, "line 3: edge (0, 4) exceeds declared n=2", 3),
    ("0 4\nn 2\n", ParseError, "line 1: edge (0, 4) exceeds declared n=2", 1),
    ("# n 9\nn 0\n\n0 1", ParseError, "line 4: edge (0, 1) exceeds declared n=0", 4),
    ("n 3\n0 1\n1 2 3", ParseError, "line 3: expected 'u v', got '1 2 3'", 3),
    ("n 3\n0 7\n1 1", ParseError, "line 3: self-loop", 3),
    ("0 -1", ParseError, "line 1: negative vertex index", 1),
    ("n", ParseError, "line 1: malformed vertex-count line", 1),
    ("0 x", ParseError, "line 1: malformed number 'x'", 1),
    ("# n\nn 2.0\n0 1", ParseError, "line 2: malformed number '2.0'", 2),
]


@pytest.mark.parametrize("text, kind, message, line_no", EDGE_LIST_ERRORS)
def test_edge_list_error_parity(text, kind, message, line_no):
    with pytest.raises(ValueError) as err:
        parse_edge_list(text)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert getattr(err.value, "line_no", None) == line_no


# Malformed DIMACS text -> (exception type, str(exc), line_no); line_no is
# None for errors that are not ParseErrors.  The precedence is part of the
# contract: a line fails on its first broken check.
DIMACS_ERRORS = [
    ("e 1", ParseError, "line 1: edge before problem line", 1),
    ("p edge 3 0\ne 1", ParseError, "line 2: malformed edge line 'e 1'", 2),
    ("p edge 3 0\n  e 1 2 3 ", ParseError, "line 2: malformed edge line 'e 1 2 3'", 2),
    ("p edge 3 0\ne 1 1", ParseError, "line 2: self-loop", 2),
    ("p edge 3 0\ne 0 1", ParseError, "line 2: edge (0, 1) out of range", 2),
    ("p edge 3 0\ne 5 5", ParseError, "line 2: edge (5, 5) out of range", 2),
    ("p edge 3 0\ne 2 01\ne 1 1_0", ParseError, "line 3: edge (1, 1_0) out of range", 3),
    ("c head\ne 1 2\n", ParseError, "line 2: edge before problem line", 2),
    ("p edge 3 0\np edge 3 0", ParseError, "line 2: duplicate problem line", 2),
    ("p edge 3 0\np edge 3", ParseError, "line 2: duplicate problem line", 2),
    ("p edge 3", ParseError, "line 1: malformed problem line 'p edge 3'", 1),
    (" p  foo 3 0 ", ParseError, "line 1: malformed problem line 'p  foo 3 0'", 1),
    ("p", ParseError, "line 1: malformed problem line 'p'", 1),
    ("p edge 3 0\nq 1 2", ParseError, "line 2: unknown record 'q'", 2),
    ("pedge 3 0", ParseError, "line 1: unknown record 'pedge'", 1),
    ("p edge 3 0\ne1 2", ParseError, "line 2: unknown record 'e1'", 2),
    ("p edge -2 0\nq", ParseError, "line 2: unknown record 'q'", 2),
    ("p edge -1 0\ne 1 2", ParseError, "line 2: edge (1, 2) out of range", 2),
    ("p edge 1000001 0", ParseError, "line 1: vertex count 1000001 exceeds the limit of 1000000", 1),
    ("c big\np edge 100000000000000000000 0\ne 1 2", ParseError,
     "line 2: vertex count 100000000000000000000 exceeds the limit of 1000000", 2),
    ("", ParseError, "line 0: missing problem line", 0),
    ("c only\n  \n\t\n", ParseError, "line 0: missing problem line", 0),
    ("p edge 3 0\ne 1 x", ParseError, "line 2: malformed number 'x'", 2),
    ("p edge 3 0\ne x 9", ParseError, "line 2: malformed number 'x'", 2),
    ("p edge 3 0\ne 9 x", ParseError, "line 2: malformed number 'x'", 2),
    ("p edge 3 0\ne 2 1\ne 1 y", ParseError, "line 3: malformed number 'y'", 3),
    ("p edge x 0", ParseError, "line 1: malformed number 'x'", 1),
    ("p edge -1 0", GraphError, "vertex count must be non-negative, got -1", None),
]


@pytest.mark.parametrize("text, kind, message, line_no", DIMACS_ERRORS)
def test_dimacs_error_parity(text, kind, message, line_no):
    with pytest.raises(ValueError) as err:
        parse_dimacs(text)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert getattr(err.value, "line_no", None) == line_no


# Odd spellings the parser accepts -> the graph they give.
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
DIMACS_ACCEPTED = [
    ("p edge 3 2\ne 01 2\ne 2 003\n", P3),
    ("p edge 3 2\ne +1 2\ne +2 3\n", P3),
    ("p\tedge\t3\t2\ne\t1\t2\n\te 2\t3\t\n", P3),
    ("p edge 3 2\r\ne 1 2\r\ne 2 3\r\n", P3),
    ("   p edge 3 2   \n   e 1 2\n e 3 2   \n", P3),
    ("p edge 3 2\ncfoo 9 9\nc\ncol 1 2\ne 1 2\ne 2 3\nc e 1 3\n", P3),
    ("p edge 3 2\ne 1 2\ne 2 1\ne 1 2\ne 3 2\n", P3),
    ("p col 3 2\ne 1 2\ne 2 3\n", P3),
    ("p edges 3 2\ne 1 2\ne 2 3\n", P3),
    ("p edge 3 99\ne 1 2\ne 2 3\n", P3),
    ("p edge 3 x\ne 1 2\ne 2 3\n", P3),
    ("p edge 5 0\n", Graph.empty(5)),
    ("p edge 0 0\n", Graph.empty(0)),
    ("c a comment first\n\np edge 1 0", Graph.empty(1)),
]


@pytest.mark.parametrize("text, graph", DIMACS_ACCEPTED)
def test_dimacs_accepted_spellings(text, graph):
    assert parse_dimacs(text) == graph


# Vertices next to the 64- and 128-bit word boundaries.
BOUNDARY = (0, 1, 62, 63, 64, 65, 126, 127, 128, 129)


@st.composite
def graphs(draw, max_n=150):
    """Random graphs up to ``max_n`` vertices at a drawn density, plus edges
    at the word boundaries; the last vertex is isolated or not."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Graph.empty(n)
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from([0.0, 0.02, 0.2, 0.7, 1.0]))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    vertex = st.one_of(st.integers(0, n - 1),
                       st.sampled_from([v for v in BOUNDARY if v < n] + [n - 2, n - 1]))
    edges += [(u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=12)) if u != v]
    if draw(st.booleans()):
        edges = [(u, v) for u, v in edges if n - 1 not in (u, v)]
    return Graph.from_edges(n, edges)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(graphs())
def test_dimacs_writer_matches_the_naive_writer(g):
    text = write_dimacs(g)
    assert text == naive_write_dimacs(g)
    assert parse_dimacs(text) == g
    assert g.edges() == naive_edges(g)


# Lines of DIMACS tokens, odd spellings and odd whitespace included.
TOKENS = st.sampled_from(["p", "e", "c", "edge", "edges", "col", "cx", "q", "0", "1", "2",
                          "3", "01", "+2", "-1", "1_0", "x", "٣", " ", "\t", "\r",
                          "\x0b", "\x85", "\xa0"])
LINES = st.lists(TOKENS, max_size=6).map(" ".join)
TEXTS = st.one_of(st.text(max_size=60),
                  st.lists(LINES, max_size=8).map("\n".join),
                  st.lists(LINES, max_size=8).map(lambda lines: "\n".join(["p edge 3 1"] + lines)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(TEXTS)
def test_dimacs_parser_raises_only_value_errors(text):
    """ParseError, GraphError and int()'s ValueError are the CLI's exit-3
    errors; nothing else may escape."""
    try:
        g = parse_dimacs(text)
    except (ParseError, GraphError) as exc:
        assert getattr(exc, "line_no", 0) >= 0
    except ValueError as exc:
        assert "int()" in str(exc)
    else:
        assert write_dimacs(parse_dimacs(write_dimacs(g))) == write_dimacs(g)


def _outcome(parse, text):
    """The graph ``parse`` reads from ``text``, or its error's type, message
    and line number."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


# Pieces that break the plain DIMACS shape, or keep it and break a check.
PIECES = st.sampled_from(["e", " ", "  ", "\n", "0", "1", "2", "9", "10", "01", "+1", "\t", "\r",
                          "\x1c", "\x85", "\xa0", "\x0c", "٣", "1e", "e1", "ee", "c",
                          "p edge 3 1\n", "e 2 2\n", "e 1 2 e"])


# Vertex names for plain texts: in range, out of range, and odd spellings.
NAMES = st.one_of(st.integers(1, 13).map(str),
                  st.sampled_from(["0", "01", "007", "1e", "e1", "+1", "٣", "99999999", "1" * 30]))


@st.composite
def plain_dimacs(draw):
    """Texts of the plain shape, or one or two pieces away from it: the
    canonical text of a graph, or edge lines of NAMES under a header n of
    0-12, and then PIECES inserted, deleted or spliced at token boundaries."""
    if draw(st.booleans()):
        text = write_dimacs(draw(graphs(max_n=40)))
    else:
        edges = draw(st.lists(st.tuples(NAMES, NAMES), max_size=8))
        text = f"p edge {draw(st.integers(0, 12))} {len(edges)}\n"
        text += "".join(f"e {a} {b}\n" for a, b in edges)
    parts = re.split("([ \n])", text)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(parts)))
        kind = draw(st.sampled_from(["insert", "delete", "splice"]))
        piece = [] if kind == "delete" else [draw(PIECES)]
        parts[i:i if kind == "insert" else i + 1] = piece
    return "".join(parts)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.one_of(TEXTS, plain_dimacs()))
def test_bulk_path_matches_the_line_loop(text):
    """parse_dimacs gives the line loop's graph, or its error with the same
    type, message and line number, on every text."""
    assert _outcome(parse_dimacs, text) == _outcome(io._parse_dimacs_lines, text)


# Texts the bulk path leaves to the line loop.  Most are one check away
# from the plain shape: they pass the bulk path's other checks, so a bulk
# path without that check would read them wrongly.
NEAR_PLAIN = [
    "c comment\np edge 3 1\ne 1 2\n",
    "p edge 3 1\r\ne 1 2\r\n",
    "p edge 3 1\ne 1 2",
    "p edge 4 2\ne 1 2 3\ne 4\n",  # three names on one line, one on the next
    "p edge 4 2\ne 1 2 e\n3 4\n",  # a line that does not start with e
    "p edge 3 1\ne 1\n",  # too few names
    "p edge 3 1\ne 1\n2",  # no final newline
    "p edge 3 1\ne 1\x852\n",  # NEL, a line break to splitlines()
    "p edge 3 1\ne 0 1\n",
    "p edge 3 1\ne 2 2\n",
    "p edge 3 1\ne 1 4\n",
    "p edge 12 1\ne 1 01\n",
    "p edge 1000001 0\n",
    "p edge 3 1\x1cq\ne 1 2\n",  # a header that splitlines() cuts in two
    # the first error is on line 2; the bulk path must not raise the one of line 3
    "p edge 3 2\ne 1 5\ne 1 x\n",
    "p edge 30 2\ne 1 50\ne 1e 2\n",
    "p edge 3 2\ne 1 5\ne 1 " + "1" * 5000 + "\n",  # past int()'s digit limit
]


@pytest.mark.parametrize("text", NEAR_PLAIN)
def test_near_plain_texts_take_the_line_loop(text):
    with mock.patch.object(io, "_parse_dimacs_lines", wraps=io._parse_dimacs_lines) as loop:
        outcome = _outcome(parse_dimacs, text)
    loop.assert_called_once_with(text)
    assert outcome == _outcome(io._parse_dimacs_lines, text)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(graphs())
def test_canonical_texts_take_the_bulk_path(g):
    text = write_dimacs(g)
    with mock.patch.object(io, "_parse_dimacs_lines", side_effect=AssertionError("line loop")):
        assert parse_dimacs(text) == g
        assert parse_dimacs(text.replace("p edge", "p col", 1)) == g


def _peak_bytes(parse, text):
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_path_memory_follows_the_names_present():
    """A header n of 10^6 with one edge: no table of the bulk path may grow
    with n, so its peak stays within twice the line loop's (about 15 MB,
    the adjacency list and the graph's tuple)."""
    text = "p edge 1000000 1\ne 1 1000000\n"
    with mock.patch.object(io, "_parse_dimacs_lines", side_effect=AssertionError("line loop")):
        bulk = _peak_bytes(parse_dimacs, text)
    assert bulk <= 2 * _peak_bytes(io._parse_dimacs_lines, text)


# Edge-list and formula tokens, the vertex limit and its neighbour included.
OTHER_TOKENS = st.sampled_from(["n", "#", "p", "13sat", "c", "-1", "0", "01", "1", "2", "3",
                                "x", "1000000", "1000001"])
# pairs are edge lines and headers, triples clauses and formula headers
OTHER_LINES = st.one_of(st.lists(OTHER_TOKENS, max_size=4),
                        st.tuples(OTHER_TOKENS, OTHER_TOKENS),
                        st.tuples(OTHER_TOKENS, OTHER_TOKENS, OTHER_TOKENS)).map(" ".join)
OTHER_TEXTS = st.one_of(st.text(max_size=40),
                        st.lists(OTHER_LINES, max_size=6).map("\n".join),
                        st.lists(OTHER_LINES, max_size=6).map(
                            lambda lines: "\n".join(["p 13sat 3"] + lines)))


def _raises_only_value_errors(parse, text):
    """Run ``parse``; ParseError, GraphError, FormulaError and int()'s
    ValueError are the CLI's exit-3 errors, and nothing else may escape."""
    try:
        return parse(text)
    except (ParseError, GraphError, FormulaError) as exc:
        assert getattr(exc, "line_no", 0) >= 0
    except ValueError as exc:
        assert "int()" in str(exc)
    return None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(OTHER_TEXTS)
def test_edge_list_parser_raises_only_value_errors(text):
    g = _raises_only_value_errors(parse_edge_list, text)
    if g is not None:
        assert g.n <= MAX_VERTICES


@settings(max_examples=200, derandomize=True, deadline=None)
@given(OTHER_TEXTS)
def test_formula_parser_raises_only_value_errors(text):
    f = _raises_only_value_errors(parse_formula, text)
    if f is not None:
        assert parse_formula(write_formula(f)) == f


def test_digest_is_sha256_of_the_canonical_text():
    """The README's definition of a report's ``digest``."""
    canonical = "p edge 4 3\ne 1 2\ne 1 3\ne 2 3\n"
    messy = "c a triangle and an isolated vertex\np col 4 7\ne 3 2\n\te 1 03\ne 2 1\ne 1 2\r\n"
    g = parse_dimacs(messy)
    assert write_dimacs(g) == canonical
    assert graph_digest(g) == graph_digest(canonical) == hashlib.sha256(canonical.encode()).hexdigest()
