"""Plain-text graph files.

Format:
    line 1:  n m d F        (F is U for undirected, D for directed)
    m lines: u v            (0-based; tail head when directed)
    optional section:
    IDS
    n lines: v id

Every number is a plain run of ASCII digits ("+3" or "0_0" is rejected),
and n is below 2^32. Blank lines are skipped; whitespace is what
str.split() takes it to be. Orientations round-trip as directed files;
generator family metadata does not survive a round trip (the format
carries structure only).
"""

from __future__ import annotations

import io
from typing import Optional, TextIO, Union

import numpy as np

from .errors import InvalidParameterError
from .graphs import _MAX_N, Labelling, Orientation, RegularGraph

GraphLike = Union[RegularGraph, Orientation]


def write_graph(target: Union[str, TextIO], obj: GraphLike,
                lab: Optional[Labelling] = None) -> None:
    if isinstance(target, str):
        with open(target, "w", encoding="ascii") as fh:
            write_graph(fh, obj, lab)
        return
    directed = isinstance(obj, Orientation)
    g = obj.graph if directed else obj
    if lab is not None and lab.n != g.n:
        raise InvalidParameterError("labelling size does not match graph")
    pairs = obj.arcs if directed else g.edges()
    target.write(f"{g.n} {g.m} {g.d} {'D' if directed else 'U'}\n")
    target.write(("%d %d\n" * g.m) % tuple(pairs.ravel().tolist()))
    if lab is not None:
        flat = tuple(x for pair in enumerate(lab.ids) for x in pair)
        target.write("IDS\n" + ("%d %d\n" * g.n) % flat)


def graph_to_text(obj: GraphLike, lab: Optional[Labelling] = None) -> str:
    buf = io.StringIO()
    write_graph(buf, obj, lab)
    return buf.getvalue()


def _pair_tokens(lines: list[str], what: str) -> list[str]:
    """The tokens of lines that each hold two plain non-negative integers.

    Plain means digits only (the text is ASCII): Python's int() would also
    take "+3" or "0_0". The first bad line is named in the error.
    """
    tokens = " ".join(lines).split()
    # Once every token is digits, a line holds a single token iff it is all
    # digits; with none such, 2 tokens per line overall means 2 on each.
    if (len(tokens) != 2 * len(lines) or any(map(str.isdigit, lines))
            or (tokens and not "".join(tokens).isdigit())):
        bad = next(ln for ln in lines
                   if len(ln.split()) != 2 or not all(map(str.isdigit, ln.split())))
        raise InvalidParameterError(f"bad {what} line {bad!r}")
    return tokens


# Byte classes of the fast parser. SPACE is what str.split() splits on,
# less the newline: every ASCII character for which str.isspace() is true.
_SPACE, _DIGIT, _NEWLINE, _OTHER = range(4)
_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_CLASS[list(b" \t\v\f\r\x1c\x1d\x1e\x1f")] = _SPACE
_CLASS[list(b"0123456789")] = _DIGIT
_CLASS[ord("\n")] = _NEWLINE
_MAX_DIGITS = 18  # every such token fits in an int64


def _header(line: str) -> tuple[int, int, int, bool]:
    """(n, m, d, directed) of a header line `n m d U|D`."""
    head = line.split()
    if (len(head) != 4 or head[3] not in ("U", "D")
            or not all(map(str.isdigit, head[:3]))):
        raise InvalidParameterError(f"bad header {line!r}")
    n, m, d = (int(t) for t in head[:3])
    if not 1 <= n < _MAX_N or 2 * m != n * d:
        raise InvalidParameterError(
            f"bad header {line!r}: need 1 <= n < 2^32, d >= 0 and m = n*d/2"
        )
    return n, m, d, head[3] == "D"


def _pair_rows(chars: np.ndarray, cls: np.ndarray, rows: int) -> Optional[np.ndarray]:
    """The (rows, 2) int64 array of numbers if `chars`, which opens with a
    newline and holds no _OTHER byte, is `rows` lines of two tokens of at
    most 18 digits each, blank lines aside; else None."""
    digit = cls == _DIGIT
    # token bounds alternate start, end: the first byte is not a digit
    bounds = np.flatnonzero(np.diff(digit, append=False)) + 1
    starts = bounds[0::2]
    if len(starts) != 2 * rows or np.any(bounds[1::2] - starts > _MAX_DIGITS):
        return None
    line = np.searchsorted(np.flatnonzero(cls == _NEWLINE), starts)
    del bounds, starts
    if np.any(line[0::2] != line[1::2]) or np.any(line[2::2] == line[1:-1:2]):
        return None
    if not rows:  # np.fromstring reads a blank string as [0]
        return np.zeros((0, 2), dtype=np.int64)
    spaced = np.where(digit, chars, ord(" ")).tobytes()
    return np.fromstring(spaced, dtype=np.int64, sep=" ").reshape(rows, 2)


def _parse_bytes(text: str) -> Optional[tuple]:
    """read_graph's fields from a few numpy passes over the bytes, or None
    for any file that is not plainly valid (the line parser then decides)."""
    start = 0
    while True:  # the header is the first non-blank line
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        if text[start:end].split() or end == len(text):
            break
        start = end + 1
    try:
        n, m, d, directed = _header(text[start:end])
    except InvalidParameterError:
        return None
    # the body starts at the header's newline, so each line follows a newline
    body = np.frombuffer(text.encode("ascii"), dtype=np.uint8)[end:]
    cls = _CLASS[body]
    edges_end = ids_start = len(body)
    other = np.flatnonzero(cls == _OTHER)
    if other.size:  # only the IDS marker line may hold anything but numbers
        newlines = np.flatnonzero(cls == _NEWLINE)
        k = np.searchsorted(newlines, other[0])
        edges_end = int(newlines[k - 1])
        ids_start = int(newlines[k]) if k < len(newlines) else len(body)
        if other[-1] >= ids_start or text[end + edges_end:end + ids_start].strip() != "IDS":
            return None
    pairs = _pair_rows(body[:edges_end], cls[:edges_end], m)
    if pairs is None:
        return None
    ids = None
    if other.size:
        rows = _pair_rows(body[ids_start:], cls[ids_start:], n)
        # n rows name each vertex once: none out of range, none missing
        if (rows is None or rows[:, 0].max() >= n
                or np.any(np.bincount(rows[:, 0], minlength=n) != 1)):
            return None
        ids = np.empty(n, dtype=np.int64)
        ids[rows[:, 0]] = rows[:, 1]
        ids = ids.tolist()
    return n, d, directed, pairs, ids


def _parse_lines(text: str) -> tuple:
    """read_graph's fields, line by line; names the first bad line it meets."""
    lines = [ln for ln in (raw.strip() for raw in text.split("\n")) if ln]
    if not lines:
        raise InvalidParameterError("empty graph file")
    n, m, d, directed = _header(lines[0])
    if len(lines) < 1 + m:
        raise InvalidParameterError(f"expected {m} edge lines, found {len(lines) - 1}")
    try:
        pairs = np.array(_pair_tokens(lines[1:1 + m], "edge"), dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise InvalidParameterError("an edge names a vertex beyond 64 bits") from None

    ids: Optional[list[Optional[int]]] = None
    rest = lines[1 + m:]
    if rest:
        if rest[0] != "IDS" or len(rest) != 1 + n:
            raise InvalidParameterError("trailing content is not a valid IDS section")
        tokens = _pair_tokens(rest[1:], "ID")
        ids = [None] * n
        for ln, v, vid in zip(rest[1:], map(int, tokens[0::2]), tokens[1::2]):
            if v >= n or ids[v] is not None:
                raise InvalidParameterError(f"bad or repeated vertex in ID line {ln!r}")
            ids[v] = int(vid)
    return n, d, directed, pairs, ids


def read_graph(source: Union[str, TextIO]) -> tuple[GraphLike, Optional[Labelling]]:
    """Parse a graph file; malformed input raises InvalidParameterError.

    A path is opened as ASCII text with universal newlines. The edge and
    IDS sections are parsed at the byte level when every line below the
    header holds two digit-only tokens of at most 18 digits (blank lines
    aside), the IDS marker excepted. Anything else, IDs wider than 18
    digits included, goes through a line-by-line parser, which accepts what
    the format allows and names the first bad line it finds.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="ascii") as fh:
            return read_graph(fh)
    try:
        text = source.read()
    except UnicodeDecodeError:
        text = None
    if text is None or not text.isascii():
        raise InvalidParameterError("graph file is not ASCII text")
    n, d, directed, pairs, ids = _parse_bytes(text) or _parse_lines(text)
    lab = None if ids is None else Labelling(ids)
    graph = RegularGraph.from_edges(n, pairs, d=d)
    if directed:
        return Orientation(graph, pairs), lab
    return graph, lab
