import io
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from localcut import (
    LEFT,
    SUITES,
    Labelling,
    NodeProgram,
    make_random_orientation,
    make_random_regular,
    random_labelling,
    write_graph,
)

# Oracle-backed properties can take a while per example; wall-clock deadlines
# only add flakiness on loaded machines.
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def ref_validate_regular(adjacency, d):
    """Set-based check of a simple d-regular adjacency."""
    adj = [tuple(nbrs) for nbrs in adjacency]
    n = len(adj)
    neighbor_sets = []
    for u, nbrs in enumerate(adj):
        seen = set(nbrs)
        if len(nbrs) != d or len(seen) != d:
            return False
        if u in seen:
            return False
        if any(not (0 <= v < n) for v in nbrs):
            return False
        neighbor_sets.append(seen)
    return all(u in neighbor_sets[v] for u in range(n) for v in neighbor_sets[u])


def small_regular_graphs(max_half: int = 8, degrees: tuple[int, ...] = (3, 5)):
    """Seeded random regular graphs small enough for the exact oracles."""

    def build(d: int, half: int, seed: int):
        n = 2 * max(half, (d + 2) // 2 + 1)
        return make_random_regular(n, d, seed=seed)

    return st.builds(
        build,
        st.sampled_from(degrees),
        st.integers(min_value=2, max_value=max_half),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )


def oriented_graphs(max_half: int = 8, degrees: tuple[int, ...] = (3, 5)):
    def orient(g, seed: int):
        return make_random_orientation(g, seed=seed)

    return st.builds(
        orient,
        small_regular_graphs(max_half, degrees),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )


class DefaultReports(dict):
    """Each suite's report at its defaults (seed 0), run on first lookup."""

    def __missing__(self, suite: str) -> dict:
        self[suite] = SUITES[suite]()
        return self[suite]


@pytest.fixture(scope="session")
def default_reports():
    """One run per session of every seed-0 default report that the
    acceptance criteria and the golden file both check."""
    return DefaultReports()


def peak_bytes(fn) -> int:
    """Peak memory tracemalloc sees (numpy's arrays included) while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def retained_bytes(build):
    """build()'s result, and the bytes tracemalloc still sees allocated
    (numpy's arrays included) once build has returned it."""
    tracemalloc.start()
    try:
        obj = build()
        return obj, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def array_attributes(obj) -> list[str]:
    """The names of obj's attributes that hold numpy arrays, sorted."""
    return sorted(k for k, v in vars(obj).items() if isinstance(v, np.ndarray))


def labelling_for(n: int, seed: int) -> Labelling:
    """Either a dense permutation or a sparse sample, depending on the seed."""
    if seed % 2:
        ids = list(range(1, n + 1))
        random.Random(seed).shuffle(ids)
        return Labelling(ids)
    return random_labelling(n, seed=seed)


# --- graph files and their mutations ------------------------------------------

@st.composite
def graph_files(draw):
    """The text of a valid graph file: undirected or directed, with or
    without an IDS section, degrees 0 to 5."""
    seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
    d = draw(st.integers(min_value=0, max_value=5))
    n = draw(st.integers(min_value=d + 1, max_value=16))
    n += (n * d) % 2
    obj = make_random_regular(n, d, seed=draw(seeds))
    if draw(st.booleans()):
        obj = make_random_orientation(obj, seed=draw(seeds))
    lab = labelling_for(n, draw(seeds)) if draw(st.booleans()) else None
    buf = io.StringIO()
    write_graph(buf, obj, lab)
    return buf.getvalue()


FLIP_CHARS = st.one_of(st.sampled_from(list("0123456789 \t\n\r\v\f\x1c\x1f+-_xIDSUD")),
                       st.characters(max_codepoint=255))


def _replace_token(text, draw, make):
    """Replace one whitespace-separated token (drawn) by make(token)."""
    spans = [m.span() for m in re.finditer(r"[^\s]+", text)]
    if not spans:
        return text
    a, b = draw(st.sampled_from(spans))
    return text[:a] + make(text[a:b]) + text[b:]


def _insert_line(text, draw, line):
    lines = text.split("\n")
    i = draw(st.integers(min_value=0, max_value=len(lines)))
    return "\n".join(lines[:i] + [line] + lines[i:])


def _flip(text, draw):
    i = draw(st.integers(min_value=0, max_value=max(len(text) - 1, 0)))
    return text[:i] + draw(FLIP_CHARS) + text[i + 1:]


MUTATIONS = {
    "flip": _flip,
    "crlf": lambda t, draw: t.replace("\n", "\r\n"),
    "blank": lambda t, draw: _insert_line(
        t, draw, draw(st.sampled_from(["", " ", "\t\r", "\x1c", "\x0b \x0c"]))),
    "separator": lambda t, draw: t.replace(" ", draw(st.sampled_from(
        ["\x1c", "\x1d", "\x1e", "\x1f", "\t", " \x1c "])), draw(st.integers(1, 5))),
    "plus": lambda t, draw: _replace_token(t, draw, lambda tok: "+" + tok),
    "wide": lambda t, draw: _replace_token(t, draw, lambda tok: draw(st.sampled_from(
        [tok.zfill(19), tok.zfill(25), str(10 ** 18 + len(tok)), "9" * 19, "1" + "0" * 30]))),
    "huge-id": lambda t, draw: _replace_token(t, draw, lambda tok: str(draw(st.sampled_from(
        [2 ** 63 - 1, 2 ** 63, 2 ** 64 + 5, 10 ** 40])))),
    "drop-ids-line": lambda t, draw: re.sub(r"(?m)^IDS\n", "", t),
    "extra-ids-line": lambda t, draw: _insert_line(t, draw, "IDS"),
}


@st.composite
def mutated_graph_files(draw):
    """A valid graph file after up to three drawn mutations: flipped
    characters, CRLF endings, blank lines, other separators, "+3", tokens of
    19 or more digits, IDs of 2^63 and beyond, a dropped or extra IDS line."""
    text = draw(graph_files())
    for kind in draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3)):
        text = MUTATIONS[kind](text, draw)
    return text


def text_source(text, universal_newlines):
    """A text stream over `text`: as a file opened in text mode would give
    it (ASCII, universal newlines), or as an in-memory string."""
    if universal_newlines:
        return io.TextIOWrapper(io.BytesIO(text.encode("latin-1")), encoding="ascii")
    return io.StringIO(text)


@pytest.fixture
def rng():
    return random.Random(0)


class NodeFault(Exception):
    """Raised by a FaultyProgram node's own step."""


class FaultyProgram(NodeProgram):
    """Sends "1" on every port and outputs LEFT in round 2, except that the
    node with ID i misbehaves in round r when faults[i] == (r, kinds).

    kinds may hold "arity" (one message too many), "bits" (the last port
    sends "111"), "side" (outputs 7) and "raise" (step raises NodeFault(i)).
    """

    def __init__(self, faults: dict):
        self.faults = faults

    def init(self, own_id, degree, port_count):
        return own_id

    def step(self, own_id, round_index, inbound):
        msgs = ["1"] * len(inbound)
        out = LEFT if round_index == 2 else None
        at, kinds = self.faults.get(own_id, (None, ()))
        if round_index == at:
            if "raise" in kinds:
                raise NodeFault(own_id)
            if "bits" in kinds and msgs:
                msgs[-1] = "111"
            if "arity" in kinds:
                msgs.append("1")
            if "side" in kinds:
                out = 7
        return own_id, msgs, out
