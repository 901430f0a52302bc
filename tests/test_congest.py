"""Round engine semantics: accounting, congestion, determinism, locality."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from localcut import (
    BitSerializedMedianProgram,
    CongestionError,
    Cut,
    FlipProgram,
    InvalidParameterError,
    LEFT,
    Labelling,
    MedianProgram,
    NodeProgram,
    NonTerminationError,
    RIGHT,
    distributed_flip_step,
    identity_labelling,
    make_circulant,
    make_double_circulant,
    make_random_regular,
    median_cut,
    random_cut,
    random_labelling,
    run,
    run_bit_serialized_median,
)
from localcut.congest import decode_id, encode_id

from conftest import FaultyProgram, NodeFault, labelling_for, small_regular_graphs

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def median_width(lab: Labelling) -> int:
    return max(1, lab.max_id.bit_length())


# --- encoding ----------------------------------------------------------------

def test_encode_decode_roundtrip():
    assert encode_id(5, 4) == "0101"
    assert decode_id("0101") == 5
    assert decode_id(encode_id(0, 3)) == 0
    with pytest.raises(InvalidParameterError):
        encode_id(8, 3)
    with pytest.raises(InvalidParameterError):
        encode_id(-1, 3)


# --- the median program ---------------------------------------------------------

@given(small_regular_graphs(degrees=(3, 5)), seeds)
@settings(max_examples=40)
def test_engine_matches_direct_median(g, seed):
    lab = labelling_for(g.n, seed)
    cut, trace = run(MedianProgram(median_width(lab)), g, lab)
    assert cut == median_cut(g, lab)
    assert trace.rounds_used == 1


def test_median_trace_accounting():
    g = make_double_circulant(6, 3)
    lab = identity_labelling(g.n)  # max id 12 -> 4 bits
    cut, trace = run(MedianProgram(4), g, lab)
    assert trace.rounds_used == 1
    assert trace.max_message_bits == 4
    # every vertex broadcasts once on each of its 3 ports
    assert trace.total_bits == g.n * 3 * 4
    assert trace.bits_per_round == (g.n * 3 * 4, 0)


def test_median_respects_exact_bit_limit():
    g = make_double_circulant(6, 3)
    lab = identity_labelling(g.n)
    cut, trace = run(MedianProgram(4), g, lab, bit_limit=4)
    assert trace.max_message_bits == 4
    assert cut == median_cut(g, lab)


def test_median_over_bit_limit_raises():
    g = make_double_circulant(6, 3)
    lab = identity_labelling(g.n)
    with pytest.raises(CongestionError) as err:
        run(MedianProgram(4), g, lab, bit_limit=3)
    assert err.value.bits == 4
    assert err.value.limit == 3
    assert err.value.round_index == 0
    assert (err.value.node, err.value.port) == (0, 0)


# --- bit-serialized variant ------------------------------------------------------

@given(small_regular_graphs(degrees=(3, 5)), seeds,
       st.integers(min_value=1, max_value=6))
@settings(max_examples=40)
def test_serialized_median_any_chunk_size(g, seed, chunk):
    lab = labelling_for(g.n, seed)
    cut, trace = run_bit_serialized_median(g, lab, chunk)
    assert cut == median_cut(g, lab)
    width = median_width(lab)
    assert trace.rounds_used == -(-width // chunk)
    assert trace.max_message_bits <= chunk


def test_serialized_median_b1_uses_width_rounds():
    g = make_double_circulant(6, 3)
    lab = random_labelling(g.n, seed=9)
    cut, trace = run_bit_serialized_median(g, lab, 1)
    assert trace.rounds_used == median_width(lab)
    assert trace.max_message_bits == 1
    assert cut == median_cut(g, lab)


def test_serialized_median_wide_chunk_is_one_round():
    g = make_double_circulant(6, 3)
    lab = identity_labelling(g.n)
    cut, trace = run_bit_serialized_median(g, lab, 64)
    assert trace.rounds_used == 1


def test_serialized_median_rejects_a_message_holding_the_separator():
    program = BitSerializedMedianProgram(2, 1)
    state, _, _ = program.step(program.init(1, 3, 3), 0, (None,) * 3)
    state, _, out = program.step(state, 1, ("0", "1 ", "1"))
    assert out is None
    with pytest.raises(InvalidParameterError, match="separator"):
        program.step(state, 2, ("1", "0", "1"))
    one_bit = BitSerializedMedianProgram(1, 1)  # " 1" and "" fill two one-bit slots
    state, _, _ = one_bit.step(one_bit.init(1, 3, 2), 0, (None,) * 2)
    with pytest.raises(InvalidParameterError, match="separator"):
        one_bit.step(state, 1, (" 1", ""))
    one_round = MedianProgram(2)
    state, _, _ = one_round.step(one_round.init(1, 1, 1), 0, (None,))
    with pytest.raises(InvalidParameterError, match="separator"):
        one_round.step(state, 1, (" ",))


# --- FLIP program ---------------------------------------------------------------

def test_flip_program_matches_function():
    g = make_random_regular(18, 3, seed=4)
    start = random_cut(g, seed=2)
    prog = FlipProgram(lambda own_id: start.sides[own_id - 1], rounds=4)
    cut, trace = run(prog, g, identity_labelling(g.n))
    expect = start
    for _ in range(4):
        expect = distributed_flip_step(g, expect)
    assert cut == expect
    assert trace.rounds_used == 4
    assert trace.max_message_bits == 1


def test_flip_program_zero_rounds():
    g = make_circulant(8, 2)
    start = Cut.from_left_set(8, [0, 1])
    prog = FlipProgram(lambda own_id: start.sides[own_id - 1], rounds=0)
    cut, trace = run(prog, g, identity_labelling(8))
    assert cut == start
    assert trace.rounds_used == 0
    assert trace.total_bits == 0


def test_one_program_instance_runs_graphs_of_two_degrees():
    # nodes that send the same message share one tuple of it; a tuple built
    # for one degree must not reach the nodes of another
    def start(own_id):
        return own_id % 2

    median, flip = BitSerializedMedianProgram(5, 1), FlipProgram(start, 2)
    for g in (make_random_regular(20, 3, seed=1), make_random_regular(20, 5, seed=2)):
        lab = identity_labelling(g.n)
        assert run(median, g, lab, bit_limit=1) == run(
            BitSerializedMedianProgram(5, 1), g, lab, bit_limit=1)
        assert run(flip, g, lab) == run(FlipProgram(start, 2), g, lab)


def test_flip_program_validates():
    with pytest.raises(InvalidParameterError):
        FlipProgram(lambda own_id: LEFT, rounds=-1)
    g = make_circulant(8, 2)
    bad = FlipProgram(lambda own_id: 7, rounds=1)
    with pytest.raises(InvalidParameterError):
        run(bad, g, identity_labelling(8))


# --- engine contracts -------------------------------------------------------------

def test_engine_deterministic():
    g = make_random_regular(20, 5, seed=6)
    lab = random_labelling(20, seed=8)
    a = run(MedianProgram(median_width(lab)), g, lab)
    b = run(MedianProgram(median_width(lab)), g, lab)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_engine_locality_far_ids_do_not_matter():
    # node 0's output after 1 round only depends on its radius-1 ball
    g = make_double_circulant(6, 3)
    ids = list(range(1, 13))
    lab = Labelling(ids)
    base, _ = run(MedianProgram(median_width(lab)), g, lab)

    far = [v for v in range(12) if v != 0 and v not in g.adj[0]]
    swapped = ids[:]
    swapped[far[0]], swapped[far[1]] = swapped[far[1]], swapped[far[0]]
    moved, _ = run(MedianProgram(median_width(Labelling(swapped))), g,
                   Labelling(swapped))
    assert moved.sides[0] == base.sides[0]


def test_engine_rejects_size_mismatch():
    g = make_circulant(8, 2)
    with pytest.raises(InvalidParameterError):
        run(MedianProgram(4), g, identity_labelling(9))


class _SilentProgram(NodeProgram):
    """Never outputs and never sends; the engine must notice the deadlock."""

    def init(self, own_id, degree, port_count):
        return None

    def step(self, state, round_index, inbound):
        return None, (None,) * len(inbound), None


class _ChattyProgram(NodeProgram):
    """Keeps sending but never outputs; stopped by the round cap."""

    def init(self, own_id, degree, port_count):
        return None

    def step(self, state, round_index, inbound):
        return None, ("1",) * len(inbound), None


def test_engine_detects_deadlock():
    g = make_circulant(8, 2)
    with pytest.raises(NonTerminationError):
        run(_SilentProgram(), g, identity_labelling(8))


def test_engine_round_cap():
    g = make_circulant(8, 2)
    with pytest.raises(NonTerminationError):
        run(_ChattyProgram(), g, identity_labelling(8), max_rounds=10)


class _UnsteppableProgram(NodeProgram):
    def init(self, own_id, degree, port_count):
        return None

    def step(self, state, round_index, inbound):
        raise AssertionError("a node was stepped")


@pytest.mark.parametrize("limits,message", [
    ({"max_rounds": -1}, "max_rounds must be >= 0, got -1"),
    ({"bit_limit": -1}, "bit_limit must be >= 0, got -1"),
])
def test_engine_rejects_negative_limits_before_stepping(limits, message):
    with pytest.raises(InvalidParameterError) as err:
        run(_UnsteppableProgram(), make_circulant(8, 2), identity_labelling(8), **limits)
    assert str(err.value) == message


class _WrongArityProgram(NodeProgram):
    def init(self, own_id, degree, port_count):
        return None

    def step(self, state, round_index, inbound):
        return None, ("1",), LEFT


def test_engine_rejects_wrong_port_arity():
    g = make_circulant(8, 2)
    with pytest.raises(InvalidParameterError):
        run(_WrongArityProgram(), g, identity_labelling(8))


def test_finished_nodes_stay_silent():
    # half the nodes stop a round before the rest; their later bits are zero
    class _StaggeredProgram(NodeProgram):
        def init(self, own_id, degree, port_count):
            return {"id": own_id}

        def step(self, state, round_index, inbound):
            if state["id"] % 2 == 0 and round_index >= 0:
                return state, (None,) * len(inbound), LEFT
            if round_index >= 1:
                return state, (None,) * len(inbound), RIGHT
            return state, ("1",) * len(inbound), None

    g = make_circulant(8, 2)
    cut, trace = run(_StaggeredProgram(), g, identity_labelling(8))
    assert set(cut.sides) == {LEFT, RIGHT}
    # round 0: only odd-id nodes (4 of them) send on 2 ports each
    assert trace.bits_per_round[0] == 4 * 2
    assert trace.bits_per_round[1] == 0


# --- error contract ---------------------------------------------------------------
# FaultyProgram on the 8-cycle (d=2): the node at index v has ID v + 1,
# every healthy message is one bit and the bit limit is 2.

def _faulty_error(faults):
    with pytest.raises(Exception) as err:
        run(FaultyProgram(faults), make_circulant(8, 2), identity_labelling(8),
            bit_limit=2)
    return err.value


def test_faulty_program_without_faults_runs():
    cut, trace = run(FaultyProgram({}), make_circulant(8, 2), identity_labelling(8),
                     bit_limit=1)
    assert set(cut.sides) == {LEFT}
    assert trace.rounds_used == 2
    assert trace.bits_per_round == (16, 16, 16)


@pytest.mark.parametrize("faults,expect", [
    # across nodes: the first faulty node in node order decides
    ({4: (1, {"bits"}), 6: (1, {"bits"})}, (CongestionError, 3)),
    ({3: (1, {"bits"}), 5: (1, {"arity"})}, (CongestionError, 2)),
    ({3: (1, {"bits"}), 5: (1, {"raise"})}, (CongestionError, 2)),
    ({3: (1, {"arity"}), 5: (1, {"bits"})}, "node 2 produced 3 messages for 2 ports"),
    ({3: (1, {"side"}), 5: (1, {"raise"})}, "node 2 output 7, expected a side"),
    ({3: (1, {"raise"}), 5: (1, {"bits"})}, (NodeFault, 3)),
    ({5: (1, {"bits"}), 3: (1, {"raise"})}, (NodeFault, 3)),
    # an earlier round decides before a lower node index
    ({8: (0, {"side"}), 1: (1, {"bits"})}, "node 7 output 7, expected a side"),
    # within one node: wrong arity, then bit limit, then bad side
    ({3: (1, {"arity", "bits"})}, "node 2 produced 3 messages for 2 ports"),
    ({3: (1, {"arity", "side"})}, "node 2 produced 3 messages for 2 ports"),
    ({3: (1, {"bits", "side"})}, (CongestionError, 2)),
    ({3: (1, {"side"})}, "node 2 output 7, expected a side"),
])
def test_first_faulty_node_decides_the_error(faults, expect):
    err = _faulty_error(faults)
    if isinstance(expect, str):
        assert type(err) is InvalidParameterError
        assert str(err) == expect
    elif expect[0] is CongestionError:
        assert type(err) is CongestionError
        assert (err.node, err.port, err.round_index, err.bits, err.limit) == (
            expect[1], 1, 1, 3, 2)
    else:
        assert type(err) is NodeFault
        assert err.args == (expect[1],)


def test_step_exception_propagates_unchanged():
    err = _faulty_error({6: (2, {"raise"})})
    assert type(err) is NodeFault
    assert err.args == (6,)
    assert err.__cause__ is None and err.__context__ is None


# --- pinned outputs ---------------------------------------------------------------

def _pinned_outcomes():
    """Each pinned run's (sides, trace), or (error type, message) if it raised."""
    graphs = [make_circulant(24, 4), make_double_circulant(6, 3),
              make_double_circulant(100, 5), make_random_regular(200, 3, seed=1),
              make_random_regular(150, 5, seed=2), make_random_regular(32, 5, seed=3)]
    for g in graphs:
        for lab in (identity_labelling(g.n), random_labelling(g.n, seed=g.n),
                    random_labelling(g.n, seed=7, id_bound=2 ** 40)):
            side_of = dict(zip(lab.ids.tolist(), random_cut(g, seed=5).sides.tolist()))
            runs = [lambda: run(MedianProgram(median_width(lab)), g, lab)]
            runs += [lambda b=b: run_bit_serialized_median(g, lab, b) for b in (1, 2, 3, 7, 8)]
            runs += [lambda r=r: run(FlipProgram(side_of.__getitem__, r), g, lab, bit_limit=1)
                     for r in (0, 1, 4)]
            for simulate in runs:
                try:
                    cut, trace = simulate()
                except Exception as exc:
                    yield type(exc).__name__, str(exc)
                else:
                    yield cut.sides.tolist(), trace


def test_simulator_outputs_match_the_pinned_digest():
    # sha256 of every cut, RoundTrace and error of the median programs (one
    # chunk and B = 1, 2, 3, 7, 8) and FLIP (0, 1, 4 rounds), computed before
    # the engine and the programs were last optimised; the circulant has even
    # degree, so its median runs pin the odd-degree error
    digest = hashlib.sha256()
    for outcome in _pinned_outcomes():
        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == (
        "874fa3f87ae266a8e5ccdf9d63174ee4d4cdbff624e992f82d70fe2ae9b9dd78")
