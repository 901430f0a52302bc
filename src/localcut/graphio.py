"""Plain-text graph files.

Format:
    line 1:  n m d F        (F is U for undirected, D for directed)
    m lines: u v            (0-based; tail head when directed)
    optional section:
    IDS
    n lines: v id

Every number is a plain run of ASCII digits ("+3" or "0_0" is rejected),
and n is below 2^32. IDs need only be distinct and positive: the format
carries no ID bound, so a read labelling's id_bound is the larger of n^3
and its largest ID. Blank lines are skipped; whitespace is what
str.split() takes it to be. Orientations round-trip as directed files;
generator family metadata does not survive a round trip (the format
carries structure only).

Working memory stays near the text plus the result. read_graph holds the
whole text, the temporaries of one parse chunk of about _CHUNK bytes (a few
times its size; a chunk ends at a line end, so this holds for lines shorter
than _CHUNK) and the arrays it returns, each allocated once and no larger
than the text can fill; write_graph holds one block of _BLOCK_ROWS
formatted lines at a time.
"""

from __future__ import annotations

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
    _write_rows(target, g.m, lambda a, b: pairs[a:b].ravel().tolist())
    if lab is not None:
        target.write("IDS\n")
        _write_rows(target, g.n, lambda a, b: _id_rows(lab.ids, a, b))


def _write_rows(target: TextIO, rows: int, numbers) -> None:
    """Write `rows` lines "x y", _BLOCK_ROWS at a time; numbers(a, b) lists
    the x, y of rows a..b-1 in order. A block is formatted as bytes, which
    is faster than str formatting, and then decoded."""
    fmt = b"%d %d\n" * _BLOCK_ROWS
    for a in range(0, rows, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, rows)
        if b - a < _BLOCK_ROWS:
            fmt = b"%d %d\n" * (b - a)
        target.write((fmt % tuple(numbers(a, b))).decode("ascii"))


def _id_rows(ids: np.ndarray, a: int, b: int) -> list[int]:
    """v, ids[v] for v in a..b-1, flat."""
    flat = [0] * (2 * (b - a))
    flat[0::2] = range(a, b)
    flat[1::2] = ids[a:b].tolist()
    return flat


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


# Byte tables of the fast parser, each applied with bytes.translate. _CLASS
# maps a byte to its class; SPACE is what str.split() splits on, less the
# newline: every ASCII character for which str.isspace() is true. _SPACED
# keeps digits and makes every other byte a space.
_SPACE, _DIGIT, _NEWLINE, _OTHER = range(4)
_SPACES, _DIGITS = b" \t\v\f\r\x1c\x1d\x1e\x1f", b"0123456789"
_CLASS = bytes(_SPACE if c in _SPACES else _DIGIT if c in _DIGITS
               else _NEWLINE if c == ord("\n") else _OTHER for c in range(256))
_SPACED = bytes(c if c in _DIGITS else ord(" ") for c in range(256))
_MAX_DIGITS = 18  # every such token fits in an int64
# Bytes of text per parse chunk. A chunk's temporaries take about 6.5 bytes
# per byte of text, so at 1 MiB they, not the output, set the parse's peak.
_CHUNK = 1 << 18
_BLOCK_ROWS = 1 << 15  # lines per formatted write


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


def _pair_rows(chunk: bytes, cls: np.ndarray) -> Optional[np.ndarray]:
    """The (rows, 2) int64 array of numbers if `chunk`, which opens with a
    newline and holds no _OTHER byte (`cls` holds its byte classes), is
    lines of two tokens of at most 18 digits each, blank lines aside; else
    None."""
    # token bounds alternate start, end: the first byte is not a digit
    bounds = np.flatnonzero(np.diff(cls == _DIGIT, append=False))
    bounds += 1
    starts, ends = bounds[0::2], bounds[1::2]
    if len(starts) % 2 or np.any(ends - starts > _MAX_DIGITS):
        return None
    if not len(starts):  # np.fromstring reads a blank string as [0]
        return np.zeros((0, 2), dtype=np.int64)
    # segment i runs from the last digit of token i to that of token i + 1
    # (an index inside the chunk even where the last token ends it), so it
    # holds a newline iff the gap after token i does: none may within a row,
    # one must between rows
    ends -= 1
    nl = np.logical_or.reduceat(cls == _NEWLINE, ends)
    del bounds, starts, ends
    if nl[0:-1:2].any() or not nl[1:-1:2].all():
        return None
    return np.fromstring(chunk.translate(_SPACED), dtype=np.int64, sep=" ").reshape(-1, 2)


def _parse_bytes(text: str) -> Optional[tuple]:
    """read_graph's fields from two byte-table translations and a few numpy
    passes over each chunk of the bytes, or None for any file that is not
    plainly valid (the line parser then decides).

    Chunks of about _CHUNK bytes start at a newline and end before one, so
    no line spans two. The edge rows fill an (m, 2) array and the ID rows an
    (n,) array, both allocated from the header.
    """
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
    # each row takes at least 4 bytes ("u v" and its newline), so a header
    # that claims more rows than the text can hold allocates nothing
    if 4 * m > len(text) - end:
        return None
    pairs, ids = np.empty((m, 2), dtype=np.int64), None
    rows, due, a = 0, m, end  # rows read and due in this section; chunk start
    while a < len(text):
        b = text.find("\n", a + _CHUNK)
        b = len(text) if b < 0 else b
        chunk = text[a:b].encode("ascii")
        cls = np.frombuffer(chunk.translate(_CLASS), dtype=np.uint8)
        other = np.flatnonzero(cls == _OTHER)
        marker = ids is None and other.size > 0
        if marker:
            # only the IDS marker line may hold anything but numbers: the
            # chunk's edge rows end before it, the next chunk starts after it
            newlines = np.flatnonzero(cls == _NEWLINE)
            k = np.searchsorted(newlines, other[0])
            edges_end = int(newlines[k - 1])
            b = a + (int(newlines[k]) if k < len(newlines) else len(cls))
            if text[a + edges_end:b].strip() != "IDS":
                return None
            chunk, cls = chunk[:edges_end], cls[:edges_end]
        elif other.size:
            return None
        got = _pair_rows(chunk, cls)
        if got is None or rows + len(got) > due:
            return None
        if ids is None:
            pairs[rows:rows + len(got)] = got
        elif len(got):
            if got[:, 0].max() >= n:
                return None
            ids[got[:, 0]] = got[:, 1]
        rows += len(got)
        if marker:
            if rows != m or 4 * n > len(text) - b:
                return None
            ids, rows, due = np.full(n, -1, dtype=np.int64), 0, n
        a = b
    # n ID rows that leave no vertex without an ID name each vertex once
    if rows != due or (ids is not None and ids.min() < 0):
        return None
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
    del text
    lab = None
    if ids is not None:
        # the format carries no ID bound: IDs need only be distinct and positive
        top = int(ids.max()) if isinstance(ids, np.ndarray) else max(ids)
        lab = Labelling(ids, id_bound=max(n ** 3, top))
    del ids
    graph = RegularGraph.from_edges(n, pairs, d=d)
    if directed:
        # from_edges took the m pairs as a simple d-regular graph, so they
        # orient each of its edges once: a pair listed both ways would have
        # repeated a neighbor
        return Orientation._trusted(graph, pairs), lab
    return graph, lab
