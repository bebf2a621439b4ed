"""The bulk readers and the %-format writers against the line-by-line
references in naive_reference.

Texts are rendered from random complexes and colorings with the freedom
the formats allow: comment and blank lines, CRLF and lone CR line ends,
tabs and runs of spaces, and integers written with a `+` sign or leading
zeros.  Faults (bad or missing tokens, extra tokens, trailing comments,
repeated, swapped or deleted lines, a line break moved within the token
stream) are injected one to three at a time, so that where a text has
several the same one must win.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridors import (
    Coloring,
    Complex,
    CorridorSpec,
    coloring,
    coloring_from_text,
    coloring_to_text,
    complex_core,
    complex_from_text,
    complex_to_text,
    straight_corridor,
)
from conftest import parse_outcome
from naive_reference import (
    ref_coloring_from_text,
    ref_coloring_to_text,
    ref_complex_from_text,
    ref_complex_to_text,
)


def sc(n, d):
    return straight_corridor(CorridorSpec(n, d))


@st.composite
def complexes(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 9))
    if n < d:
        return Complex(d, n, ())
    facet = st.lists(st.integers(1, n), min_size=d, max_size=d, unique=True).map(
        lambda f: tuple(sorted(f))
    )
    return Complex(d, n, tuple(draw(st.lists(facet, max_size=12, unique=True))))


@st.composite
def colorings(draw):
    c = draw(st.integers(1, 12))
    return Coloring(tuple(draw(st.lists(st.integers(1, c), max_size=12))), c)


BAD_TOKENS = st.sampled_from(
    ["x", "1.5", "0x3", "-1", "0", "99", "#", "dim", "colors", str(2**63), str(2**64)]
)
FILLER = st.sampled_from(["", "  ", "\t", "# a comment", "  #x 1 2", "#", "\t# 3 4"])
SPACE = st.sampled_from([" ", "  ", "\t", " \t "])
EDGE = st.sampled_from(["", " ", "\t"])
END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def spelled(draw, token):
    """token, or the same integer with a `+` sign or leading zeros."""
    if not token.isdigit():
        return token
    return draw(st.sampled_from(["", "+", "0", "00", "+0"])) + token


@st.composite
def faulted(draw, rows):
    """rows (token lists) with 1 to 3 faults injected."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["token", "drop", "add", "comment", "repeat", "swap", "delete", "rewrap"]
        ))
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "token" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(BAD_TOKENS)
        elif kind == "drop" and rows[i]:
            del rows[i][draw(st.integers(0, len(rows[i]) - 1))]
        elif kind == "add":
            rows[i].append(draw(st.integers(1, 9).map(str) | BAD_TOKENS))
        elif kind == "comment":
            rows[i] += ["#", "x"]
        elif kind == "repeat":
            rows.insert(i, list(rows[i]))
        elif kind == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "delete" and len(rows) > 1:
            del rows[i]
        elif kind == "rewrap" and i + 1 < len(rows):
            # the token stream stays the same, only a line break moves
            tokens = rows[i] + rows[i + 1]
            cut = draw(st.integers(0, len(tokens)))
            rows[i], rows[i + 1] = tokens[:cut], tokens[cut:]
    return rows


@st.composite
def rendered(draw, text, faults):
    """The lines of text, faulted if asked, as a noisy file."""
    rows = [line.split() for line in text.splitlines()]
    if faults:
        rows = draw(faulted(rows))
    out = []
    for row in rows:
        out += draw(st.lists(FILLER, max_size=2))
        tokens = [draw(spelled(token)) for token in row]
        line = tokens[0] if tokens else ""
        for token in tokens[1:]:
            line += draw(SPACE) + token
        out.append(draw(EDGE) + line + draw(EDGE))
    out += draw(st.lists(FILLER, max_size=2))
    return "".join(line + draw(END) for line in out)


@given(st.data(), complexes(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_complex_reader_matches_the_reference(data, c, faults):
    text = data.draw(rendered(ref_complex_to_text(c), faults))
    got = parse_outcome(complex_from_text, text)
    assert got == parse_outcome(ref_complex_from_text, text)
    if not faults:
        assert got == c


@given(st.data(), colorings(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_coloring_reader_matches_the_reference(data, f, faults):
    text = data.draw(rendered(ref_coloring_to_text(f), faults))
    got = parse_outcome(coloring_from_text, text)
    assert got == parse_outcome(ref_coloring_from_text, text)
    if not faults:
        assert got == f


@given(complexes(), colorings())
@settings(max_examples=200, deadline=None)
def test_writers_match_the_references(c, f):
    assert complex_to_text(c) == ref_complex_to_text(c)
    assert coloring_to_text(f) == ref_coloring_to_text(f)


@pytest.mark.parametrize(
    "c",
    [Complex(3, 5, ()), Complex(10**9, 4, ()), Complex(1, 3, ((1,), (3,))), sc(5, 3)],
    ids=["no-facets", "no-facets-huge-dim", "facet-size-1", "corridor"],
)
def test_writer_edge_cases(c):
    assert complex_to_text(c) == ref_complex_to_text(c)
    assert complex_from_text(complex_to_text(c)) == c


def test_empty_coloring_is_written_as_its_header():
    assert coloring_to_text(Coloring((), 4)) == ref_coloring_to_text(Coloring((), 4)) == "colors 4\n"
    assert coloring_from_text("colors 4\n") == Coloring((), 4)


def test_valid_files_never_reach_the_line_scan(monkeypatch):
    """A valid 10^3-facet complex and its coloring, with comment lines,
    blank lines and CRLF line ends, are read by the bulk pass alone."""

    def scan(text, tags):
        raise AssertionError("the line scan ran on a valid file")

    monkeypatch.setattr(complex_core, "_scanned_fields", scan)
    monkeypatch.setattr(coloring, "_scanned_fields", scan)
    c = sc(1002, 3)
    f = Coloring(tuple((v - 1) % 5 + 1 for v in range(1, 1003)), 5)
    for text, parse, want in (
        (complex_to_text(c), complex_from_text, c),
        (coloring_to_text(f), coloring_from_text, f),
    ):
        lines = text.splitlines()
        lines[1:1] = ["# made by a test", ""]
        lines[500:500] = ["  ", "\t# middle"]
        assert parse("\r\n".join(lines) + "\r\n") == want
