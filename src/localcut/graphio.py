"""Plain-text graph files.

Format:
    line 1:  n m d F        (F is U for undirected, D for directed)
    m lines: u v            (0-based; tail head when directed)
    optional section:
    IDS
    n lines: v id

Every number is a plain run of ASCII digits ("+3" or "0_0" is rejected).
Orientations round-trip as directed files; generator family metadata does
not survive a round trip (the format carries structure only).
"""

from __future__ import annotations

import io
from typing import Optional, TextIO, Union

import numpy as np

from .errors import InvalidParameterError
from .graphs import Labelling, Orientation, RegularGraph

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


def read_graph(source: Union[str, TextIO]) -> tuple[GraphLike, Optional[Labelling]]:
    """Parse a graph file; malformed input raises InvalidParameterError."""
    if isinstance(source, str):
        with open(source, "r", encoding="ascii") as fh:
            return read_graph(fh)
    try:
        text = source.read()
    except UnicodeDecodeError:
        text = None
    if text is None or not text.isascii():
        raise InvalidParameterError("graph file is not ASCII text")
    lines = [ln for ln in (raw.strip() for raw in text.split("\n")) if ln]
    if not lines:
        raise InvalidParameterError("empty graph file")
    head = lines[0].split()
    if (len(head) != 4 or head[3] not in ("U", "D")
            or not all(map(str.isdigit, head[:3]))):
        raise InvalidParameterError(f"bad header {lines[0]!r}")
    n, m, d = (int(t) for t in head[:3])
    if n < 1 or 2 * m != n * d:
        raise InvalidParameterError(
            f"bad header {lines[0]!r}: need n >= 1, d >= 0 and m = n*d/2"
        )
    directed = head[3] == "D"
    if len(lines) < 1 + m:
        raise InvalidParameterError(f"expected {m} edge lines, found {len(lines) - 1}")
    try:
        pairs = np.array(_pair_tokens(lines[1:1 + m], "edge"), dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise InvalidParameterError("an edge names a vertex beyond 64 bits") from None

    lab = None
    rest = lines[1 + m:]
    if rest:
        if rest[0] != "IDS" or len(rest) != 1 + n:
            raise InvalidParameterError("trailing content is not a valid IDS section")
        tokens = _pair_tokens(rest[1:], "ID")
        ids: list[Optional[int]] = [None] * n
        for ln, v, vid in zip(rest[1:], map(int, tokens[0::2]), tokens[1::2]):
            if v >= n or ids[v] is not None:
                raise InvalidParameterError(f"bad or repeated vertex in ID line {ln!r}")
            ids[v] = int(vid)
        lab = Labelling(ids)

    graph = RegularGraph.from_edges(n, pairs, d=d)
    if directed:
        return Orientation(graph, pairs), lab
    return graph, lab
