"""Text format round trips and malformed-input rejection."""

import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localcut import (
    InvalidParameterError,
    Labelling,
    Orientation,
    RegularGraph,
    identity_labelling,
    make_double_circulant,
    make_id_orientation,
    make_random_orientation,
    make_random_regular,
    orient_clockwise,
    random_labelling,
    read_graph,
    write_graph,
)
from localcut import graphio

from conftest import (array_attributes, mutated_graph_files, oriented_graphs, retained_bytes,
                      small_regular_graphs, text_source)


def graph_to_text(obj, lab=None) -> str:
    """What write_graph writes for a graph or orientation, as a string."""
    buf = io.StringIO()
    write_graph(buf, obj, lab)
    return buf.getvalue()


@given(small_regular_graphs())
@settings(max_examples=30)
def test_undirected_roundtrip(g):
    back, lab = read_graph(io.StringIO(graph_to_text(g)))
    assert back == g
    assert lab is None


@given(oriented_graphs())
@settings(max_examples=30)
def test_directed_roundtrip(orient):
    back, lab = read_graph(io.StringIO(graph_to_text(orient)))
    assert isinstance(back, Orientation)
    assert back.graph == orient.graph
    assert set(map(tuple, back.arcs.tolist())) == set(map(tuple, orient.arcs.tolist()))
    assert lab is None


def test_ids_roundtrip():
    g = make_double_circulant(8, 3)
    lab = random_labelling(g.n, seed=3)
    back, lab2 = read_graph(io.StringIO(graph_to_text(g, lab)))
    assert back == g
    assert lab2 is not None
    assert lab2.ids.tolist() == lab.ids.tolist()


def test_file_roundtrip(tmp_path):
    g = make_double_circulant(12, 5)
    path = str(tmp_path / "g.txt")
    write_graph(path, orient_clockwise(g), identity_labelling(g.n))
    back, lab = read_graph(path)
    assert isinstance(back, Orientation)
    assert back.graph == g
    assert lab.ids.tolist() == list(range(1, g.n + 1))


@pytest.mark.parametrize("id_bound,wide", [(2 ** 50, False), (2 ** 70, True)])
def test_ids_above_n_cubed_roundtrip(id_bound, wide):
    # the format carries no ID bound: 2^50 IDs (16 digits) decode in numpy,
    # 2^70 IDs (22 digits) through Python int into an object array
    g = make_random_regular(2000, 5, seed=3)
    lab = random_labelling(2000, seed=5, id_bound=id_bound)
    o = make_id_orientation(g, lab)
    text = graph_to_text(o, lab)
    back, lab2 = read_graph(io.StringIO(text))
    assert lab2.ids.dtype == (object if wide else np.int64)
    assert lab.max_id > g.n ** 3
    assert lab2 == lab and lab2.id_bound == lab.max_id
    assert back == o and graph_to_text(back, lab2) == text


def test_header_is_frozen():
    g = make_double_circulant(12, 5)
    text = graph_to_text(g)
    assert text.splitlines()[0] == "24 60 5 U"
    assert len(text.splitlines()) == 1 + 60


def test_directed_header_and_arc_order():
    g = make_double_circulant(6, 3)
    orient = make_random_orientation(g, seed=1)
    lines = graph_to_text(orient).splitlines()
    assert lines[0] == "12 18 3 D"
    arcs = [list(map(int, ln.split())) for ln in lines[1:]]
    assert arcs == orient.arcs.tolist()


def test_output_is_deterministic():
    g = make_double_circulant(10, 3)
    assert graph_to_text(g) == graph_to_text(g)


@pytest.mark.parametrize("block_rows", [1, 7])
def test_output_does_not_depend_on_the_block_size(block_rows):
    g = make_double_circulant(12, 5)  # 60 edges, 24 ID lines: 7 splits both
    for obj, lab in ((g, None), (make_random_orientation(g, seed=2), random_labelling(g.n, seed=3))):
        text = graph_to_text(obj, lab)
        with mock.patch.object(graphio, "_BLOCK_ROWS", block_rows):
            assert graph_to_text(obj, lab) == text


class NullSink:
    def write(self, text):
        pass


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw allocated while it ran;
    numpy reports its buffers to tracemalloc, so the count repeats exactly."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def labelled_id_orientation(n, d):
    g = make_random_regular(n, d, seed=1)
    lab = random_labelling(n, seed=2)
    return make_id_orientation(g, lab), lab


def test_file_round_trip_memory_is_bounded():
    # read_graph holds the text, one parse chunk and its output arrays at a
    # time; write_graph holds one block of formatted lines at a time.
    o, lab = labelled_id_orientation(20000, 5)
    text = graph_to_text(o, lab)
    assert len(text) > 2 * graphio._CHUNK  # the parse takes several chunks
    (back, _), peak = traced_peak(read_graph, io.StringIO(text))
    arrays = sum(a.nbytes for a in (back.graph.adj, back.graph.edges(), back.arcs,
                                    back.out_degrees))
    assert peak < 2 * (len(text) + arrays)
    _, small = traced_peak(write_graph, NullSink(), o, lab)
    _, large = traced_peak(write_graph, NullSink(), *labelled_id_orientation(40000, 5))
    assert large < 1.1 * small


@pytest.mark.parametrize("directed", [True, False])
def test_read_graph_keeps_one_array_per_object(directed):
    # at n = 10^5, d = 5 the result retains the adjacency, the arcs of a
    # directed file and the IDs, and little else
    o, lab = labelled_id_orientation(10 ** 5, 5)
    text = graph_to_text(o if directed else o.graph, lab)
    (back, back_lab), kept = retained_bytes(lambda: read_graph(io.StringIO(text)))
    g = back.graph if directed else back
    arrays = g.adj.nbytes + back_lab.ids.nbytes
    assert array_attributes(g) == ["adj"] and array_attributes(back_lab) == ["ids"]
    if directed:
        assert array_attributes(back) == ["arcs"]
        arrays += back.arcs.nbytes
    assert kept <= arrays + 2 ** 19


def test_labelling_size_mismatch(tmp_path):
    g = make_double_circulant(6, 3)
    with pytest.raises(InvalidParameterError):
        graph_to_text(g, identity_labelling(5))
    # a rejected write to a path leaves the file as it was
    path = tmp_path / "g.txt"
    path.write_bytes(b"precious\n")
    with pytest.raises(InvalidParameterError):
        write_graph(str(path), g, identity_labelling(5))
    assert path.read_bytes() == b"precious\n"


@pytest.mark.parametrize("text", [
    "",
    "4 4 2\n0 1\n1 2\n2 3\n3 0\n",           # three-field header
    "4 4 2 X\n0 1\n1 2\n2 3\n3 0\n",          # unknown flag
    "4 four 2 U\n0 1\n1 2\n2 3\n3 0\n",       # non-numeric m
    "4 4 2 U\n0 1\n1 2\n2 3\n",               # fewer edges than header claims
    "4 5 2 U\n0 1\n1 2\n2 3\n3 0\n0 2\n",     # header m disagrees with degree
    "4 4 2 U\n0 1\n1 2 9\n2 3\n3 0\n",        # malformed edge line
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nEXTRA\n",   # junk trailing section
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 1\n1 2\n2 3\n",   # short IDS section
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 1\n0 2\n2 3\n3 4\n",  # repeated vertex
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 1\n1 2\n2 3\n9 4\n",  # vertex out of range
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 1\n1 1\n2 3\n3 4\n",  # duplicate ID value
    "4294967295 0 0 U\nIDS\n",              # 2^32 - 1 ID lines claimed, none given
    "2147483647 2147483647 2 U\n",           # 2^31 - 1 edge lines claimed, none given
])
def test_malformed_input_rejected(text):
    with pytest.raises(InvalidParameterError):
        read_graph(io.StringIO(text))


@pytest.mark.parametrize("text", ["1000000 0 0 U\nIDS\n", "1000000 1000000 2 U\n0 1\n"])
def test_header_counts_do_not_size_arrays_beyond_the_text(text):
    # the parse sizes its edge and ID arrays from the header only once the
    # text could hold that many rows: a short file claiming 10^6 rows must
    # not allocate 8-16 MB before it is rejected
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError):
            read_graph(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_non_integer_id_line_rejected():
    text = "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 x\n1 2\n2 3\n3 4\n"
    with pytest.raises(InvalidParameterError, match="bad ID line"):
        read_graph(io.StringIO(text))


@pytest.mark.parametrize("text,line", [
    ("4 4 2 U\n0 1\n1 2\n2 3\n3 0_0\n", "bad edge line '3 0_0'"),
    ("4 4 2 U\n0 1\n1 2\n2 3\n+3 0\n", "bad edge line '\\+3 0'"),
    ("4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 1_000\n1 2\n2 3\n3 4\n",
     "bad ID line '0 1_000'"),
])
def test_non_plain_integers_rejected(text, line):
    # int() reads "0_0" as 0 and "+3" as 3; the format has plain digits only
    with pytest.raises(InvalidParameterError, match=line):
        read_graph(io.StringIO(text))


def test_non_ascii_file_rejected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes("4 4 2 U\n0 1\n1 2\n2 3\n3 0 \u00e9\n".encode("utf-8"))
    with pytest.raises(InvalidParameterError, match="not ASCII"):
        read_graph(str(path))


@pytest.mark.parametrize("header", ["-1 0 3 U", "0 0 0 U", "4 4 -2 U",
                                    "4294967296 0 0 U", "9223372036854775807 0 0 U"])
def test_inconsistent_header_rejected(header):
    with pytest.raises(InvalidParameterError, match="bad header"):
        read_graph(io.StringIO(header + "\n"))


def test_directed_file_with_both_arc_directions_rejected():
    text = "4 4 2 D\n0 1\n1 0\n2 3\n3 0\n"
    with pytest.raises(InvalidParameterError):
        read_graph(io.StringIO(text))


@pytest.mark.parametrize("first", ["0", "0000000000000000000"])
def test_directed_file_listing_an_edge_both_ways_rejected(first):
    # every degree is 2 and m = nd/2, so only the repeated neighbor tells;
    # a 19-digit token sends the file through the line parser
    text = f"4 4 2 D\n{first} 1\n1 0\n2 3\n3 2\n"
    with pytest.raises(InvalidParameterError, match="neighbor twice"):
        read_graph(io.StringIO(text))


def test_family_metadata_does_not_survive():
    g = make_double_circulant(6, 3)
    back, _ = read_graph(io.StringIO(graph_to_text(g)))
    assert back == g          # equality ignores family on purpose
    assert back.family is None
    assert g.family is not None


@given(st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200),
    st.text(alphabet="0123456789 \t\r\n\x0b\x1cUDIS+", max_size=200),
    mutated_graph_files(),
), st.booleans())
@settings(max_examples=300)
def test_any_input_parses_or_is_invalid(data, universal_newlines):
    if isinstance(data, bytes):
        source = io.TextIOWrapper(io.BytesIO(data), encoding="ascii",
                                  newline=None if universal_newlines else "")
    else:
        source = text_source(data, universal_newlines and data.isascii())
    try:
        obj, lab = read_graph(source)
    except InvalidParameterError:
        return
    g = obj.graph if isinstance(obj, Orientation) else obj
    assert isinstance(g, RegularGraph)
    assert lab is None or (isinstance(lab, Labelling) and lab.n == g.n)
