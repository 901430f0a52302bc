"""Plain-text graph files.

Format:
    line 1:  n m d F        (F is U for undirected, D for directed)
    m lines: u v            (0-based; tail head when directed)
    optional section:
    IDS
    n lines: v id

Orientations round-trip as directed files; generator family metadata does
not survive a round trip (the format carries structure only).
"""

from __future__ import annotations

import io
from typing import Optional, TextIO, Union

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
    lines = obj.arcs if directed else g.edges()
    target.write(f"{g.n} {g.m} {g.d} {'D' if directed else 'U'}\n")
    for u, v in lines:
        target.write(f"{u} {v}\n")
    if lab is not None:
        if lab.n != g.n:
            raise InvalidParameterError("labelling size does not match graph")
        target.write("IDS\n")
        for v, vid in enumerate(lab.ids):
            target.write(f"{v} {vid}\n")


def graph_to_text(obj: GraphLike, lab: Optional[Labelling] = None) -> str:
    buf = io.StringIO()
    write_graph(buf, obj, lab)
    return buf.getvalue()


def read_graph(source: Union[str, TextIO]) -> tuple[GraphLike, Optional[Labelling]]:
    """Parse a graph file; malformed input raises InvalidParameterError."""
    if isinstance(source, str):
        with open(source, "r", encoding="ascii") as fh:
            return read_graph(fh)
    try:
        lines = [ln.strip() for ln in source if ln.strip()]
    except UnicodeDecodeError:
        raise InvalidParameterError("graph file is not ASCII text") from None
    if not lines:
        raise InvalidParameterError("empty graph file")
    head = lines[0].split()
    if len(head) != 4 or head[3] not in ("U", "D"):
        raise InvalidParameterError(f"bad header {lines[0]!r}")
    try:
        n, m, d = int(head[0]), int(head[1]), int(head[2])
    except ValueError:
        raise InvalidParameterError(f"bad header {lines[0]!r}") from None
    if n < 1 or d < 0 or 2 * m != n * d:
        raise InvalidParameterError(
            f"bad header {lines[0]!r}: need n >= 1, d >= 0 and m = n*d/2"
        )
    directed = head[3] == "D"
    if len(lines) < 1 + m:
        raise InvalidParameterError(f"expected {m} edge lines, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:1 + m]:
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidParameterError(f"bad edge line {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InvalidParameterError(f"bad edge line {ln!r}") from None

    lab = None
    rest = lines[1 + m:]
    if rest:
        if rest[0] != "IDS" or len(rest) != 1 + n:
            raise InvalidParameterError("trailing content is not a valid IDS section")
        ids = [0] * n
        assigned = [False] * n
        for ln in rest[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise InvalidParameterError(f"bad ID line {ln!r}")
            try:
                v, vid = int(parts[0]), int(parts[1])
            except ValueError:
                raise InvalidParameterError(f"bad ID line {ln!r}") from None
            if not 0 <= v < n or assigned[v]:
                raise InvalidParameterError(f"bad or repeated vertex in ID line {ln!r}")
            ids[v] = vid
            assigned[v] = True
        lab = Labelling(ids)

    graph = RegularGraph.from_edges(n, pairs, d=d)
    if directed:
        return Orientation(graph, pairs), lab
    return graph, lab
