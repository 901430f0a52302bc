"""Synchronous message-passing simulation with bit accounting.

Nodes see only their own ID, their degree, and numbered ports; vertex
indices never leak in. Messages are '0'/'1' strings so their bit cost is
just their length. Round r messages are computed from round r-1 state for
every node at once, so execution order cannot matter.

Per node and round the engine only steps the node and stores its state,
outbound tuple and output; the list of running nodes is rebuilt only in a
round where some node output. Whole-round passes then check that every
node sent d messages and, in such a round, that every output is a side.
The outbound tuples are chained into one flat outbox, slot u*d + p for
port p of node u, and delivery is one numpy gather of it at a fixed slot
table, cut into one inbound tuple per node. The round's total and largest
message size are counted in one pass each over the outbox: the length of
its messages joined into one string, and the largest length among its
distinct messages (message by message if one is not a hashable str). Only
when a check or the bit limit fails, or a node raises, are the stepped
nodes checked one by one, so the error names the same node, port and
round as a node-by-node loop would.

A program that outputs during its very first activation, before anything
has been delivered, costs zero rounds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CongestionError,
    InvalidParameterError,
    NonTerminationError,
)
from .graphs import Cut, LEFT, RIGHT, Labelling, RegularGraph


class NodeProgram(ABC):
    """Contract for one node's behavior, replicated across all nodes."""

    @abstractmethod
    def init(self, own_id: int, degree: int, port_count: int):
        """Return the node's initial state."""

    @abstractmethod
    def step(self, state, round_index: int,
             inbound: Sequence[Optional[str]]
             ) -> tuple[object, Sequence[Optional[str]], Optional[int]]:
        """Consume this round's inbound messages.

        Returns (new state, outbound message per port, output side or None).
        At round 0 nothing has been delivered yet and inbound is all None.
        An emitted output is final.
        """


@dataclass(frozen=True)
class RoundTrace:
    """Accounting for one run: rounds, bit totals, per-round bit counts."""

    rounds_used: int
    max_message_bits: int
    total_bits: int
    bits_per_round: tuple[int, ...]


def encode_id(value: int, width: int) -> str:
    """Fixed-width binary; every node sends the same number of bits."""
    if value < 0 or value >= 1 << width:
        raise InvalidParameterError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def decode_id(bits: str) -> int:
    return int(bits, 2)


def run(program: NodeProgram, g: RegularGraph, lab: Labelling,
        bit_limit: Optional[int] = None,
        max_rounds: Optional[int] = None) -> tuple[Cut, RoundTrace]:
    """Execute `program` on every node until all have output.

    bit_limit is the CONGEST(B) cap per message per round; a violation
    raises CongestionError naming the sender, port, and round. Nodes that
    have output are not stepped again (silent afterwards). max_rounds
    defaults to 4n. A negative bit_limit or max_rounds raises
    InvalidParameterError before any node is stepped.

    Nodes are stepped in index order and the first faulty node decides the
    error; within a node the order is wrong arity, then a message over
    bit_limit, then a bad side. Those checks run once per round, after every
    live node has stepped, so in a faulty round the nodes after the first
    faulty one are still stepped before the error is raised (and a node that
    raises still loses to an earlier node's fault).
    """
    if lab.n != g.n:
        raise InvalidParameterError("labelling size does not match graph")
    if max_rounds is None:
        max_rounds = 4 * g.n
    for name, value in (("max_rounds", max_rounds), ("bit_limit", bit_limit)):
        if value is not None and value < 0:
            raise InvalidParameterError(f"{name} must be >= 0, got {value}")
    n, d = g.n, g.d
    # Slot u*d + p is port p of u, which leads to v = adj[u, p]. Its message
    # lands in slot v*d + q with adj[v, q] = u: the rank of key v*n + u.
    rows = np.repeat(np.arange(n, dtype=np.int64), d)
    deliver = np.searchsorted(rows * n + g.adj.ravel(), g.adj.ravel() * n + rows)
    del rows
    states = [program.init(own_id, d, d) for own_id in lab.ids.tolist()]
    outputs: list[Optional[int]] = [None] * n
    step = program.step
    silent = (None,) * d
    inboxes: list[tuple[Optional[str], ...]] = [silent] * n
    live: Sequence[int] = range(n)
    max_bits = 0
    bits_per_round: list[int] = []
    round_index = 0
    while True:
        sent: list = [silent] * n  # each node's outbound; silent once it output
        try:
            for v in live:
                states[v], sent[v], outputs[v] = step(states[v], round_index, inboxes[v])
        except Exception:
            # a fault of a node stepped before v is the error a node-by-node
            # check would raise first
            _check_nodes(sent, outputs, live[:live.index(v)], d, round_index, bit_limit)
            raise
        try:  # d messages from every node, and only sides as outputs?
            running = outputs.count(None)
            looks_ok = set(map(len, sent)) == {d} and (
                running == len(live) or set(outputs) <= {None, LEFT, RIGHT})
        except Exception:  # an outbound without len(), an output that will not
            running, looks_ok = None, False  # compare: left to the exact check
        if not looks_ok:  # raises, or lists each outbound not a tuple or list
            _check_nodes(sent, outputs, live, d, round_index, bit_limit)
        outbox: list[Optional[str]] = list(chain.from_iterable(sent))
        try:  # one pass each while every message is a hashable str
            round_bits = len("".join(filter(None, outbox)))
            round_max = max(map(len, set(outbox) - {None}), default=0)
        except TypeError:
            round_bits = sum(map(len, filter(None, outbox)))
            round_max = max(map(len, filter(None, outbox)), default=0)
        if bit_limit is not None and round_max > bit_limit:
            _check_nodes(sent, outputs, live, d, round_index, bit_limit)
        sent = None  # free the node tuples before delivery
        if running == 0:
            live = []
        elif running != len(live):  # some node output: only the others stay live
            live = [v for v in live if outputs[v] is None]
        max_bits = max(max_bits, round_max)
        bits_per_round.append(round_bits)
        if not live:
            break
        if round_index >= max_rounds:
            raise NonTerminationError(
                f"{len(live)} nodes still running after {max_rounds} rounds"
            )
        if not round_bits and outbox.count(None) == n * d:
            raise NonTerminationError(
                "nodes are waiting but no messages are in flight"
            )
        # deliver is its own inverse (the ports u->v and v->u swap slots), so
        # the inbox is the outbox gathered at deliver, cut into node tuples
        inboxes = None  # free last round's tuples before building the next
        slots = iter(np.fromiter(outbox, object, n * d)[deliver])
        inboxes = list(zip(*[slots] * d))
        round_index += 1

    trace = RoundTrace(
        rounds_used=round_index,
        max_message_bits=max_bits,
        total_bits=sum(bits_per_round),
        bits_per_round=tuple(bits_per_round),
    )
    return Cut(outputs), trace


def _check_nodes(sent: list, outputs: list, stepped: Sequence[int], d: int,
                 round_index: int, bit_limit: Optional[int]) -> None:
    """Raise the first fault of the stepped nodes, node by node: wrong arity,
    then a message over bit_limit, then a bad side. An outbound that is not
    a tuple or list is replaced by its list. An error raised while a node's
    own error is handled supersedes it, so is not chained onto it.
    """
    for v in stepped:
        outbound = sent[v]
        if not isinstance(outbound, (tuple, list)):
            outbound = sent[v] = list(outbound)
        if len(outbound) != d:
            raise InvalidParameterError(
                f"node {v} produced {len(outbound)} messages for {d} ports"
            ) from None
        for port, msg in enumerate(outbound):
            if bit_limit is not None and msg is not None and len(msg) > bit_limit:
                raise CongestionError(v, port, round_index, len(msg), bit_limit) from None
        out = outputs[v]
        if out is not None and out not in (LEFT, RIGHT):
            raise InvalidParameterError(
                f"node {v} output {out!r}, expected a side"
            ) from None


class BitSerializedMedianProgram(NodeProgram):
    """Median rule under CONGEST(B): stream the ID in B-bit chunks.

    Takes ceil(id_width / chunk_bits) rounds; with chunk_bits >= id_width it
    degenerates to the one-round program, `MedianProgram`.

    A node's state is one string: its ID's `id_width` bits, then what it
    received. Each round appends that round's messages, port by port, each
    closed by a space; a silent port (None) brings no bits. Chunks of at
    most 8 bits are sent as one tuple per distinct chunk, shared by every
    node that sends it. At the last step, if every received message is
    exactly one non-space character (one-bit chunks), port p's bits are one
    extended slice of the received text; any other layout is split once at
    the spaces and every port's parts are joined into its neighbour's ID.
    Messages are '0'/'1' strings; one that held a space would shift the
    ports, so a part count other than ports x rounds received raises
    InvalidParameterError.
    """

    def __init__(self, id_width: int, chunk_bits: int):
        if id_width < 1 or chunk_bits < 1:
            raise InvalidParameterError("widths must be >= 1")
        self.id_width = id_width
        self.chunk_bits = chunk_bits
        self._chunks = [slice(lo, min(lo + chunk_bits, id_width))
                        for lo in range(0, id_width, chunk_bits)]
        self.num_chunks = len(self._chunks)
        self._shared: Optional[dict] = {} if chunk_bits <= 8 else None

    def init(self, own_id, degree, port_count):
        if degree % 2 == 0:
            raise InvalidParameterError("median rule needs odd degree")
        return encode_id(own_id, self.id_width)

    def step(self, state, round_index, inbound):
        ports = len(inbound)
        if round_index > 0:
            try:
                state = f"{state}{' '.join(inbound)} "
            except TypeError:  # a silent port brings no bits
                state = f"{state}{' '.join(['' if msg is None else msg for msg in inbound])} "
        if round_index < self.num_chunks:
            chunk = state[self._chunks[round_index]]
            if self._shared is None:
                return state, (chunk,) * ports, None
            msgs = self._shared.get(chunk)
            if msgs is None or len(msgs) != ports:
                msgs = self._shared[chunk] = (chunk,) * ports
            return state, msgs, None
        text = state[self.id_width:]
        received = ports * round_index
        if len(text) == 2 * received and text.count(" ") == received == text[1::2].count(" "):
            # spaces at exactly the odd positions: every message is one character
            parts = [text[p::2 * ports] for p in range(0, 2 * ports, 2)]
        else:
            parts = text.split(" ")
            if len(parts) != received + 1:
                raise InvalidParameterError(
                    "a message held the separator ' '; messages are '0'/'1' strings"
                )
            del parts[-1]  # the empty part after the last separator
            if round_index > 1:  # port p's chunks are every ports-th part from p
                parts = ["".join(parts[p::ports]) for p in range(ports)]
        neighbor_ids = sorted([int(bits, 2) for bits in parts])  # decode_id, inlined
        median = neighbor_ids[len(neighbor_ids) // 2]
        side = LEFT if median > int(state[:self.id_width], 2) else RIGHT
        return state, (None,) * ports, side


class MedianProgram(BitSerializedMedianProgram):
    """One-round median rule: broadcast own ID, then decide from the median.

    The bit-serialized program with a single chunk of `id_width` bits (the
    bitlen of the largest ID in play), so every message is that wide.
    """

    def __init__(self, id_width: int):
        super().__init__(id_width, id_width)


class FlipProgram(NodeProgram):
    """Distributed FLIP for a fixed number of rounds, 1 bit per message.

    The starting side comes from the node's own ID via `initial_side`, the
    only locally available information. A node's state is its side as the
    message it sends, "0" or "1", and every node that sends it shares one
    tuple of it.
    """

    def __init__(self, initial_side: Callable[[int], int], rounds: int):
        if rounds < 0:
            raise InvalidParameterError("rounds must be >= 0")
        self.initial_side = initial_side
        self.rounds = rounds
        self._shared: dict = {}

    def init(self, own_id, degree, port_count):
        side = self.initial_side(own_id)
        if side not in (LEFT, RIGHT):
            raise InvalidParameterError("initial_side must return a side")
        return str(int(side))

    def step(self, state, round_index, inbound):
        ports = len(inbound)
        if round_index > 0 and 2 * inbound.count(state) > ports:
            state = "1" if state == "0" else "0"
        if round_index >= self.rounds:
            return state, (None,) * ports, int(state)
        msgs = self._shared.get(state)
        if msgs is None or len(msgs) != ports:
            msgs = self._shared[state] = (state,) * ports
        return state, msgs, None


def run_bit_serialized_median(g: RegularGraph, lab: Labelling, chunk_bits: int
                              ) -> tuple[Cut, RoundTrace]:
    """Median rule under CONGEST(chunk_bits); B = bitlen(max ID) means 1 round."""
    width = max(1, lab.max_id.bit_length())
    program = BitSerializedMedianProgram(width, chunk_bits)
    return run(program, g, lab, bit_limit=chunk_bits)
