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

read_graph has one parser, a few numpy passes over each chunk of the
bytes. Numbers of up to 18 digits decode in numpy; a chunk holding a longer
token decodes through Python int, so IDs may exceed 64 bits. An error
names the first bad line of the first kind of fault in a fixed order (see
_parse_bytes).

Working memory stays near the text plus the result. read_graph holds the
whole text, the temporaries of one parse chunk of about _CHUNK bytes (a few
times its size; a chunk ends at a line end, so this holds for lines shorter
than _CHUNK) and the arrays it returns, each allocated once and no larger
than the text can fill; write_graph holds one block of _BLOCK_ROWS
formatted lines at a time.
"""

from __future__ import annotations

import re
from typing import Optional, TextIO, Union

import numpy as np

from .errors import InvalidParameterError
from .graphs import _MAX_N, Labelling, Orientation, RegularGraph

GraphLike = Union[RegularGraph, Orientation]


def write_graph(target: Union[str, TextIO], obj: GraphLike,
                lab: Optional[Labelling] = None) -> None:
    directed = isinstance(obj, Orientation)
    g = obj.graph if directed else obj
    if lab is not None and lab.n != g.n:
        raise InvalidParameterError("labelling size does not match graph")
    if isinstance(target, str):  # opened only once the write can go ahead
        with open(target, "w", encoding="ascii") as fh:
            write_graph(fh, obj, lab)
        return
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


# Byte tables of the parser, each applied with bytes.translate. _CLASS maps
# a byte to its class; SPACE is what str.split() splits on, less the
# newline: every ASCII character for which str.isspace() is true. Tokens are
# runs of DIGIT and OTHER bytes. _SPACED keeps digits and makes every other
# byte a space.
_SPACE, _NEWLINE, _DIGIT, _OTHER = range(4)
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
    """(n, m, d, directed) of a stripped header line `n m d U|D`."""
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


def _chunk_lines(chunk: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, is_row, rows) of `chunk`, which opens with a newline.

    Line i, the chunk's i-th non-blank line, stripped, is chunk[lo[i]:hi[i]];
    is_row[i] whether it is a row, two tokens of digits only. rows holds the
    numbers of the rows, one row each: int64, or Python ints in an object
    array where a token has more than 18 digits.
    """
    cls = np.frombuffer(chunk.translate(_CLASS), dtype=np.uint8)
    # token bounds alternate start, end: the first byte is a newline
    bounds = np.flatnonzero(np.diff(cls >= _DIGIT, append=False))
    bounds += 1
    starts, ends = bounds[0::2], bounds[1::2]
    # segment i runs from the last byte of token i to that of token i + 1
    # (an index inside the chunk even where the last token ends it), so it
    # holds a newline iff token i + 1 opens a line; token 0 opens one
    opens = np.logical_or.reduceat(cls == _NEWLINE, ends - 1)
    first = np.flatnonzero(np.append(True, opens[:-1]))[:len(starts)]  # none if no token
    count = np.diff(first, append=len(starts))  # tokens per line
    lo, hi = starts[first], ends[first + count - 1]
    is_row = count == 2  # and no byte of another class, which lo locates:
    is_row[np.searchsorted(lo, np.flatnonzero(cls == _OTHER), "right") - 1] = False
    del cls
    spaced = chunk.translate(_SPACED)
    if not is_row.all():
        # blank the lines that are not rows: the digits left are the rows'
        buf = bytearray(spaced)
        for a, b in zip(lo[~is_row].tolist(), hi[~is_row].tolist()):
            buf[a:b] = b" " * (b - a)
        spaced = bytes(buf)
    if is_row.any() and (ends - starts).max() <= _MAX_DIGITS:
        rows = np.fromstring(spaced, dtype=np.int64, sep=" ")
    else:  # np.fromstring would read a blank string as [0]
        rows = np.array([int(t) for t in spaced.split()], dtype=object)
    return lo, hi, is_row, rows.reshape(-1, 2)


def _first_repeat(vertices: np.ndarray, ids: np.ndarray) -> int:
    """The index of the first of `vertices` that is not below n = len(ids),
    or that ids (-1 where unnamed) or an earlier entry already names; -1
    if there is none."""
    n = len(ids)
    if vertices.max() < n:
        at = np.sort(vertices.astype(np.int64))
        if not np.any(at[1:] == at[:-1]) and (ids[at] < 0).all():
            return -1
    seen = set()
    for i, v in enumerate(vertices.tolist()):
        if v >= n or ids[v] >= 0 or v in seen:
            return i
        seen.add(v)
    return -1


def _parse_bytes(text: str) -> tuple:
    """read_graph's fields: n, d, directed, the (m, 2) edge array and the
    (n,) ID array or None.

    Chunks of about _CHUNK bytes start at a newline and end before one, so
    no line spans two. The non-blank lines below the header are numbered
    from 0: line j is an edge row for j < m, the IDS marker for j = m and
    an ID row for m < j <= m + n. The first fault of each kind is kept under
    its rank, and once the text is read the lowest rank's is raised: 0 too
    few lines, 1 a bad edge line, 2 an edge beyond 64 bits, 3 a bad IDS
    section, 4 a bad ID line, 5 a bad or repeated vertex. The edge rows fill
    an (m, 2) array and the ID rows an (n,) array, both allocated once from
    the header; a chunk's Python-int IDs make the latter an object array.
    """
    head = re.search(r"\S.*", text)  # the header is the first non-blank line
    if head is None:
        raise InvalidParameterError("empty graph file")
    n, m, d, directed = _header(head.group().rstrip())
    # each line below the header takes at least 4 bytes ("u v" and the
    # newline before it), so a header that claims more rows than the text
    # can hold allocates nothing; too few lines or a bad one is then certain
    room = len(text) - head.end()
    pairs = np.empty((m, 2), dtype=np.int64) if 4 * m <= room else None
    ids = marker = None
    found = 0  # non-blank lines below the header in earlier chunks
    faults: dict[int, str] = {}  # rank: message of the first fault of that kind

    def line(i: int) -> str:  # the chunk's line i
        return text[a + lo[i]:a + hi[i]]

    a = head.end()
    while a < len(text):
        b = text.find("\n", a + _CHUNK)
        b = len(text) if b < 0 else b
        lo, hi, is_row, rows = _chunk_lines(text[a:b].encode("ascii"))
        k = len(is_row)
        # the chunk's lines [0, e) are edge rows, e the marker if it is
        # below k, and [i0, i1) ID rows
        e, i0, i1 = (min(max(j - found, 0), k) for j in (m, m + 1, m + n + 1))
        if not is_row[:e].all():
            faults.setdefault(1, f"bad edge line {line(np.argmin(is_row[:e]))!r}")
        elif rows.dtype == object and (rows[:e] >= 2 ** 63).any():
            faults.setdefault(2, "an edge names a vertex beyond 64 bits")
        elif pairs is not None:
            pairs[found:found + e] = rows[:e]
        if e < k and found + e == m:
            marker = line(e)
        if i0 < i1 and not is_row[i0:i1].all():
            faults.setdefault(4, f"bad ID line {line(i0 + np.argmin(is_row[i0:i1]))!r}")
        # ids, like pairs, is allocated only if the text has room for its lines
        elif i0 < i1 and (ids is not None or 4 * (m + 1 + n) <= room):
            r0 = np.count_nonzero(is_row[:i0])
            got = rows[r0:r0 + i1 - i0]
            if ids is None:
                ids = np.full(n, -1, dtype=np.int64)
            # an object array once a chunk's IDs decode through int
            ids = ids.astype(np.result_type(ids, got), copy=False)
            bad = _first_repeat(got[:, 0], ids)
            if bad < 0:
                ids[got[:, 0].astype(np.int64)] = got[:, 1]
            else:
                faults.setdefault(5, f"bad or repeated vertex in ID line {line(i0 + bad)!r}")
        found += k
        a = b
    if found < m:
        faults[0] = f"expected {m} edge lines, found {found}"
    elif found > m and (marker != "IDS" or found != m + 1 + n):
        faults[3] = "trailing content is not a valid IDS section"
    if faults:
        raise InvalidParameterError(faults[min(faults)])
    # with no fault, the text had room for every row: both arrays exist
    return n, d, directed, pairs, ids


def read_graph(source: Union[str, TextIO]) -> tuple[GraphLike, Optional[Labelling]]:
    """Parse a graph file; malformed input raises InvalidParameterError.

    A path is opened as ASCII text with universal newlines. The format and
    the parser are described in the module docstring.
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
    n, d, directed, pairs, ids = _parse_bytes(text)
    del text
    lab = None
    if ids is not None:
        # the format carries no ID bound: IDs need only be distinct and positive
        lab = Labelling(ids, id_bound=max(n ** 3, int(ids.max())))
    del ids
    graph = RegularGraph.from_edges(n, pairs, d=d)
    if directed:
        # from_edges took the m pairs as a simple d-regular graph, so they
        # orient each of its edges once: a pair listed both ways would have
        # repeated a neighbor
        return Orientation._trusted(graph, pairs), lab
    return graph, lab
