"""Synchronous message-passing simulation with bit accounting.

Nodes see only their own ID, their degree, and numbered ports; vertex
indices never leak in. Messages are '0'/'1' strings so their bit cost is
just their length. Round r messages are computed from round r-1 state for
every node at once, so execution order cannot matter.

The engine keeps one flat outbox per round, slot u*d + p for port p of
node u. Delivery is one numpy gather of that outbox at a fixed slot table,
cut into one inbound tuple per node. Only nodes that have not output yet
are stepped. The round's total and largest message size are counted in one
pass each over the whole outbox: the length of its messages joined into one
string, and the largest length among its distinct messages. An outbox that
holds a message that is not a hashable str is counted message by message
instead. The bit limit is checked against that largest size; only when it
is exceeded, or a node fails otherwise, is the outbox scanned slot by slot,
so the error names the same node, port and round as a port-by-port loop
would.

A program that outputs during its very first activation, before anything
has been delivered, costs zero rounds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
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
    defaults to 4n.

    Nodes are stepped in index order and the first faulty node decides the
    error; within a node the order is wrong arity, then a message over
    bit_limit, then a bad side. Message sizes are checked once per round
    over the whole outbox, so in a round with an oversized message the
    nodes after its sender are still stepped before the error is raised.
    """
    if lab.n != g.n:
        raise InvalidParameterError("labelling size does not match graph")
    if max_rounds is None:
        max_rounds = 4 * g.n
    n, d = g.n, g.d
    # Slot u*d + p is port p of u, which leads to v = adj[u, p]. Its message
    # lands in slot v*d + q with adj[v, q] = u: the rank of key v*n + u.
    rows = np.repeat(np.arange(n, dtype=np.int64), d)
    deliver = np.searchsorted(rows * n + g.adj.ravel(), g.adj.ravel() * n + rows)
    states = [program.init(own_id, d, d) for own_id in lab.ids.tolist()]
    outputs: list[Optional[int]] = [None] * n
    step = program.step
    inboxes: list[tuple[Optional[str], ...]] = [(None,) * d] * n
    live: Sequence[int] = range(n)
    max_bits = 0
    bits_per_round: list[int] = []
    round_index = 0
    while True:
        outbox: list[Optional[str]] = [None] * (n * d)
        running = []
        try:
            for v in live:
                state, outbound, out = step(states[v], round_index, inboxes[v])
                if not isinstance(outbound, (tuple, list)):
                    outbound = list(outbound)
                if len(outbound) != d:
                    raise InvalidParameterError(
                        f"node {v} produced {len(outbound)} messages for {d} ports"
                    )
                states[v] = state
                outbox[v * d:(v + 1) * d] = outbound
                if out is None:
                    running.append(v)
                elif out in (LEFT, RIGHT):
                    outputs[v] = out
                else:
                    raise InvalidParameterError(
                        f"node {v} output {out!r}, expected a side"
                    )
        except Exception:
            # an oversized message from an earlier node (or this node's own,
            # before a bad side) is the error a node-by-node check would raise
            _check_bit_limit(outbox, d, round_index, bit_limit)
            raise
        try:  # one pass each while every message is a hashable str
            round_bits = len("".join(filter(None, outbox)))
            round_max = max(map(len, set(outbox) - {None}), default=0)
        except TypeError:
            round_bits = sum(map(len, filter(None, outbox)))
            round_max = max(map(len, filter(None, outbox)), default=0)
        if bit_limit is not None and round_max > bit_limit:
            _check_bit_limit(outbox, d, round_index, bit_limit)
        max_bits = max(max_bits, round_max)
        bits_per_round.append(round_bits)
        live = running
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


def _check_bit_limit(outbox: list[Optional[str]], d: int, round_index: int,
                     bit_limit: Optional[int]) -> None:
    """Raise CongestionError for the first slot whose message is too long.

    Also called while another node's error is being handled; that error is
    then superseded, so it is not chained onto this one.
    """
    if bit_limit is None:
        return
    for slot, msg in enumerate(outbox):
        if msg is not None and len(msg) > bit_limit:
            node, port = divmod(slot, d)
            raise CongestionError(node, port, round_index, len(msg), bit_limit) from None


class BitSerializedMedianProgram(NodeProgram):
    """Median rule under CONGEST(B): stream the ID in B-bit chunks.

    Takes ceil(id_width / chunk_bits) rounds; with chunk_bits >= id_width it
    degenerates to the one-round program, `MedianProgram`.

    A node keeps what it receives in one string, `state["received"]`: each
    round appends that round's messages, port by port, each closed by a
    space, and a silent port (None) brings no bits. The last step splits
    the string once and joins every port's parts into its neighbour's ID.
    Messages are '0'/'1' strings; one that held a space would shift the
    ports, so a part count other than ports x rounds received raises
    InvalidParameterError.
    """

    def __init__(self, id_width: int, chunk_bits: int):
        if id_width < 1 or chunk_bits < 1:
            raise InvalidParameterError("widths must be >= 1")
        self.id_width = id_width
        self.chunk_bits = chunk_bits
        self.num_chunks = -(-id_width // chunk_bits)

    def init(self, own_id, degree, port_count):
        if degree % 2 == 0:
            raise InvalidParameterError("median rule needs odd degree")
        return {
            "bits": encode_id(own_id, self.id_width),
            "id": own_id,
            "received": "",
        }

    def step(self, state, round_index, inbound):
        ports = len(inbound)
        if round_index > 0:
            try:
                joined = " ".join(inbound)
            except TypeError:  # a silent port brings no bits
                joined = " ".join(["" if msg is None else msg for msg in inbound])
            state["received"] = f"{state['received']}{joined} "
        if round_index < self.num_chunks:
            lo = round_index * self.chunk_bits
            chunk = state["bits"][lo:lo + self.chunk_bits]
            return state, (chunk,) * ports, None
        parts = state["received"].split(" ")
        if len(parts) != ports * round_index + 1:
            raise InvalidParameterError(
                "a message held the separator ' '; messages are '0'/'1' strings"
            )
        del parts[-1]  # the empty part after the last separator
        if round_index > 1:  # port p's chunks are every ports-th part from p
            parts = ["".join(parts[p::ports]) for p in range(ports)]
        neighbor_ids = sorted(map(decode_id, parts))
        median = neighbor_ids[len(neighbor_ids) // 2]
        side = LEFT if median > state["id"] else RIGHT
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
    only locally available information.
    """

    def __init__(self, initial_side: Callable[[int], int], rounds: int):
        if rounds < 0:
            raise InvalidParameterError("rounds must be >= 0")
        self.initial_side = initial_side
        self.rounds = rounds

    def init(self, own_id, degree, port_count):
        side = self.initial_side(own_id)
        if side not in (LEFT, RIGHT):
            raise InvalidParameterError("initial_side must return a side")
        # plain int, so per-node arithmetic stays on Python ints
        return {"side": int(side)}

    def step(self, state, round_index, inbound):
        ports = len(inbound)
        side = state["side"]
        if round_index > 0 and 2 * inbound.count(str(side)) > ports:
            side = state["side"] = 1 - side
        if round_index >= self.rounds:
            return state, (None,) * ports, side
        return state, (str(side),) * ports, None


def run_bit_serialized_median(g: RegularGraph, lab: Labelling, chunk_bits: int
                              ) -> tuple[Cut, RoundTrace]:
    """Median rule under CONGEST(chunk_bits); B = bitlen(max ID) means 1 round."""
    width = max(1, lab.max_id.bit_length())
    program = BitSerializedMedianProgram(width, chunk_bits)
    return run(program, g, lab, bit_limit=chunk_bits)
