"""The fast code against the slow per-vertex code it replaced.

Each reference below is the plain-Python loop that computed the rule when
graphs were tuples of tuples. They read the instance through `.tolist()`
only, and the numpy rule must agree with them exactly, on every degree from
1 to 7 (even degrees included wherever the rule is defined). The round
simulator and its node programs are checked the same way, against the
port-by-port engine and the copy-on-write programs they replaced.
"""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localcut import (
    BitSerializedMedianProgram,
    CongestionError,
    ConstructionError,
    Cut,
    FlipProgram,
    InvalidParameterError,
    LEFT,
    Labelling,
    MedianProgram,
    NodeProgram,
    NonTerminationError,
    Orientation,
    RIGHT,
    RegularGraph,
    check_inequalities,
    check_window_bounds,
    complete_graph,
    cut_size,
    decompose,
    dicut_arcs,
    dicut_size,
    distributed_flip_step,
    identity_labelling,
    is_maximal_cut,
    make_circulant,
    make_double_circulant,
    make_id_orientation,
    make_random_orientation,
    make_random_orientation_union,
    make_random_regular,
    make_random_regular_union,
    max_dicut_exact,
    median_cut,
    oriented_median_cut,
    random_cut,
    random_labelling,
    read_graph,
    run,
    sequential_flip_to_maximal,
    stable_vertices,
    unstable_flip_step,
    window_bound,
    window_edge_counts,
)
from localcut import bounds, graphio, graphs, verify
from localcut.congest import RoundTrace, decode_id, encode_id
from localcut.graphs import same_side_counts
from localcut.verify import _even_n, _report, double_circulant_halves, verify_claim2

from conftest import (FaultyProgram, labelling_for, mutated_graph_files, ref_validate_regular,
                      text_source)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


# --- slow references -----------------------------------------------------------

def ref_cut_size(adj, sides):
    return sum(1 for u, nbrs in enumerate(adj) for v in nbrs
               if u < v and sides[u] != sides[v])


def ref_dicut_arcs(arcs, sides):
    return {(t, h) for t, h in arcs if sides[t] == LEFT and sides[h] == RIGHT}


def ref_median_sides(adj, ids):
    sides = []
    for v, nbrs in enumerate(adj):
        median = sorted(ids[u] for u in nbrs)[len(nbrs) // 2]
        sides.append(LEFT if median > ids[v] else RIGHT)
    return sides


def ref_deficits(arcs, n):
    deficit = [0] * n
    for t, h in arcs:
        deficit[t] += 1
        deficit[h] -= 1
    return deficit


def ref_deficit_sides(arcs, n):
    """Deficit-sign sides, or None when some vertex has deficit 0."""
    deficit = ref_deficits(arcs, n)
    if 0 in deficit:
        return None
    return [LEFT if delta > 0 else RIGHT for delta in deficit]


def ref_same(adj, sides, v):
    return sum(1 for u in adj[v] if sides[u] == sides[v])


def ref_stable(adj, sides):
    return {v for v in range(len(adj)) if any(sides[u] != sides[v] for u in adj[v])}


def ref_unstable_flip(adj, sides):
    stable = ref_stable(adj, sides)
    return [s if v in stable else 1 - s for v, s in enumerate(sides)]


def ref_distributed_flip(adj, sides):
    return [1 - s if 2 * ref_same(adj, sides, v) > len(adj[v]) else s
            for v, s in enumerate(sides)]


def ref_flip_rounds(adj, sides, rounds):
    for _ in range(rounds):
        sides = ref_distributed_flip(adj, sides)
    return list(sides)


def ref_is_maximal(adj, sides):
    return all(2 * ref_same(adj, sides, v) <= len(adj[v]) for v in range(len(adj)))


def ref_sequential_flip(adj, sides, pick):
    """Recount every vertex after each flip; flip the one `pick` chooses."""
    sides, d = list(sides), len(adj[0])
    while True:
        candidates = [v for v in range(len(adj)) if 2 * ref_same(adj, sides, v) > d]
        if not candidates:
            return sides
        v = pick(candidates)
        sides[v] = 1 - sides[v]


def ref_flip_by_scan(g, c, pick):
    """The O(n)-per-flip loop: rebuild the candidate list after each flip."""
    sides = c.sides.copy()
    same = same_side_counts(g, c)
    while True:
        candidates = np.flatnonzero(2 * same > g.d)
        if not candidates.size:
            return sides.tolist()
        v = pick(candidates.tolist())
        sides[v] ^= 1
        same[v] = g.d - same[v]
        nbrs = g.adj[v]
        same[nbrs] += np.where(sides[nbrs] == sides[v], 1, -1)


def ref_decompose(adj, arcs, opt_sides):
    """The set-based flip decomposition, built only from the references above."""
    n, d = len(adj), len(adj[0])
    edges = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v]
    out = [0] * n
    for t, _ in arcs:
        out[t] += 1
    c0 = ref_deficit_sides(arcs, n)
    c1 = ref_unstable_flip(adj, c0)
    c2 = ref_unstable_flip(adj, c1)
    plus = frozenset(v for v in range(n) if c0[v] == LEFT)
    v1 = frozenset(v for v in range(n) if opt_sides[v] == LEFT)
    M = frozenset(v for v in range(n) if (v in v1) != (v in plus))
    M_star = frozenset(v for v in M if abs(2 * out[v] - d) >= 3)
    U0 = frozenset(range(n)) - ref_stable(adj, c0)
    U1 = frozenset(range(n)) - ref_stable(adj, c1)
    m_plus = M & plus
    m_minus = M - plus

    def in_e0(u, v):
        for x, y in ((u, v), (v, u)):
            if x not in plus and y in m_plus:
                return True
            if x in m_minus and y in plus:
                return True
        return (u in m_plus and v in m_plus) or (u in m_minus and v in m_minus)

    E0 = frozenset((u, v) for u, v in edges if in_e0(u, v))
    E1 = frozenset(
        (t, h) for t, h in arcs
        if (t in plus and h in plus and t not in U0 and h in U0)
        or (t not in plus and h not in plus and t in U0 and h not in U0)
    )
    F0 = frozenset(
        (u, v) for u, v in edges
        if u not in M and v not in M and (u in plus) == (v in plus)
    )
    touched = {v for e in E0 for v in e} | {v for a in E1 for v in a}
    M_one = frozenset(v for v in M - M_star if v not in touched)
    return {
        "d": d, "n": n,
        "big_d": sum(out[v] if v in plus else d - out[v] for v in range(n)),
        "opt": len(ref_dicut_arcs(arcs, opt_sides)),
        "cut_sizes": tuple(len(ref_dicut_arcs(arcs, c)) for c in (c0, c1, c2)),
        "M": M, "M_star": M_star, "M_one": M_one, "E0": E0, "E1": E1,
        "F0": F0, "U0": U0, "U1": U1,
    }


def ref_inequalities(dec):
    """(lhs, rhs) of every flip inequality, from the set sizes of ref_decompose."""
    d, n, opt, big_d = dec["d"], dec["n"], dec["opt"], dec["big_d"]
    cut0, cut1, cut2 = dec["cut_sizes"]
    msize, mstar, f0 = len(dec["M"]), len(dec["M_star"]), len(dec["F0"])
    base = opt - (d - 1) // 2 * msize
    e0 = base + len(dec["E0"])
    e1 = e0 + len(dec["E1"])
    u1 = e1 + len(dec["U1"])
    return {
        "eq1": (cut0, big_d - d * n // 2),
        "eq1_half": (big_d - d * n // 2, -(-n // 2)),
        "eq2": (cut0, base),
        "eq2bis": (cut0, e0),
        "eq2ter": (cut1, e1),
        "eq2quater": (cut2, u1),
        "eq3": (big_d - msize, 2 * opt),
        "eq3bis": (big_d - msize - f0, 2 * opt),
        "eq3ter": (big_d - msize - f0 - mstar, 2 * opt),
        "eq2c": (cut2, u1 + mstar),
    }


def ref_run(program, g, lab, bit_limit=None, max_rounds=None):
    """The port-by-port round engine: scatter delivery, per-message counts."""
    if lab.n != g.n:
        raise InvalidParameterError("labelling size does not match graph")
    if max_rounds is None:
        max_rounds = 4 * g.n
    n, d = g.n, g.d
    adj = g.adj.tolist()
    deliver = [v * d + adj[v].index(u) for u in range(n) for v in adj[u]]
    states = [program.init(own_id, d, d) for own_id in lab.ids.tolist()]
    outputs = [None] * n
    inbox = [None] * (n * d)
    max_bits = 0
    bits_per_round = []
    round_index = 0
    while True:
        outbox = [None] * (n * d)
        round_bits = 0
        for v in range(n):
            if outputs[v] is not None:
                continue
            state, outbound, out = program.step(
                states[v], round_index, tuple(inbox[v * d:(v + 1) * d]))
            outbound = list(outbound)
            if len(outbound) != d:
                raise InvalidParameterError(
                    f"node {v} produced {len(outbound)} messages for {d} ports"
                )
            for port, msg in enumerate(outbound):
                if msg is None:
                    continue
                if bit_limit is not None and len(msg) > bit_limit:
                    raise CongestionError(v, port, round_index, len(msg), bit_limit)
                round_bits += len(msg)
                max_bits = max(max_bits, len(msg))
            states[v] = state
            outbox[v * d:(v + 1) * d] = outbound
            if out is not None:
                if out not in (LEFT, RIGHT):
                    raise InvalidParameterError(
                        f"node {v} output {out!r}, expected a side"
                    )
                outputs[v] = out
        bits_per_round.append(round_bits)
        if all(out is not None for out in outputs):
            break
        if round_index >= max_rounds:
            raise NonTerminationError(
                f"{sum(1 for o in outputs if o is None)} nodes still running "
                f"after {max_rounds} rounds"
            )
        inbox = [None] * (n * d)
        for slot, msg in enumerate(outbox):
            if msg is not None:
                inbox[deliver[slot]] = msg
        if outbox.count(None) == n * d:
            raise NonTerminationError(
                "nodes are waiting but no messages are in flight"
            )
        round_index += 1
    return Cut(outputs), RoundTrace(round_index, max_bits, sum(bits_per_round),
                                    tuple(bits_per_round))


class RefBitSerializedMedianProgram(NodeProgram):
    """Median rule in B-bit chunks, copying its state every round."""

    def __init__(self, id_width, chunk_bits):
        self.id_width = id_width
        self.chunk_bits = chunk_bits
        self.num_chunks = -(-id_width // chunk_bits)

    def init(self, own_id, degree, port_count):
        if degree % 2 == 0:
            raise InvalidParameterError("median rule needs odd degree")
        return {
            "bits": encode_id(own_id, self.id_width),
            "id": own_id,
            "received": [""] * port_count,
        }

    def step(self, state, round_index, inbound):
        ports = len(inbound)
        if round_index > 0:
            received = [
                acc + (msg or "") for acc, msg in zip(state["received"], inbound)
            ]
            state = {**state, "received": received}
        if round_index < self.num_chunks:
            lo = round_index * self.chunk_bits
            chunk = state["bits"][lo:lo + self.chunk_bits]
            return state, (chunk,) * ports, None
        neighbor_ids = sorted(decode_id(bits) for bits in state["received"])
        median = neighbor_ids[len(neighbor_ids) // 2]
        side = LEFT if median > state["id"] else RIGHT
        return state, (None,) * ports, side


class RefFlipProgram(NodeProgram):
    """FLIP that decodes every message and copies its state every round."""

    def __init__(self, initial_side, rounds):
        self.initial_side = initial_side
        self.rounds = rounds

    def init(self, own_id, degree, port_count):
        return {"side": int(self.initial_side(own_id))}

    def step(self, state, round_index, inbound):
        ports = len(inbound)
        side = state["side"]
        if round_index > 0:
            same = sum(1 for msg in inbound if decode_id(msg) == side)
            if 2 * same > ports:
                side = 1 - side
            state = {**state, "side": side}
        if round_index >= self.rounds:
            return state, (None,) * ports, side
        return state, (str(side),) * ports, None


class StaggeredProgram(NodeProgram):
    """Nodes finish in different rounds and send messages of 0-2 bits.

    The node with ID i runs i % 4 rounds, leaves port p silent when
    i + p is divisible by 3, and outputs the parity of a port-weighted sum
    of all it received, so a misdelivered message changes the cut.
    """

    def init(self, own_id, degree, port_count):
        return (own_id, 0)

    def step(self, state, round_index, inbound):
        own_id, seen = state
        seen = 3 * seen + sum((p + 1) * len(m) for p, m in enumerate(inbound) if m)
        if round_index >= own_id % 4:
            return (own_id, seen), [None] * len(inbound), seen % 2
        msgs = [None if (own_id + p) % 3 == 0 else "1" * ((own_id + p + round_index) % 3)
                for p in range(len(inbound))]
        return (own_id, seen), msgs, None


class BytesStaggeredProgram(StaggeredProgram):
    """StaggeredProgram whose IDs 1 and 3 mod 4 send bytes and bytearrays.

    Such messages cannot be joined into one string, nor a bytearray hashed,
    so the engine counts their bits message by message.
    """

    def step(self, state, round_index, inbound):
        state, msgs, out = super().step(state, round_index, inbound)
        kind = (None, bytes, None, bytearray)[state[0] % 4]
        if kind:
            msgs = [None if m is None else kind(m, "ascii") for m in msgs]
        return state, msgs, out


def vertex_set(mask):
    return set(np.flatnonzero(mask).tolist())


def row_set(rows, mask):
    """The (u, v) rows a boolean mask over `rows` selects."""
    assert mask.shape == (len(rows),) and mask.dtype == bool
    return set(map(tuple, rows[mask].tolist()))


def ref_pair_tokens(lines, what):
    """The tokens of lines that each hold two plain non-negative integers."""
    tokens = " ".join(lines).split()
    if (len(tokens) != 2 * len(lines) or any(map(str.isdigit, lines))
            or (tokens and not "".join(tokens).isdigit())):
        bad = next(ln for ln in lines
                   if len(ln.split()) != 2 or not all(map(str.isdigit, ln.split())))
        raise InvalidParameterError(f"bad {what} line {bad!r}")
    return tokens


def ref_read_graph(source):
    """The line-by-line parser: strips every line, joins and splits tokens.

    Two lines differ from the original. The one marked "cap" rejects headers
    with n >= 2^32; without it, n = 10^18 with d = 0 made
    RegularGraph.from_edges raise numpy's ValueError. The one marked
    "bound" takes IDs above n^3, since the format carries no ID bound;
    without it, a file written for 2^70 IDs could not be read back.
    """
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
    if not 1 <= n < 2 ** 32 or 2 * m != n * d:  # cap
        raise InvalidParameterError(
            f"bad header {lines[0]!r}: need 1 <= n < 2^32, d >= 0 and m = n*d/2"
        )
    directed = head[3] == "D"
    if len(lines) < 1 + m:
        raise InvalidParameterError(f"expected {m} edge lines, found {len(lines) - 1}")
    try:
        pairs = np.array(ref_pair_tokens(lines[1:1 + m], "edge"), dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise InvalidParameterError("an edge names a vertex beyond 64 bits") from None
    lab = None
    rest = lines[1 + m:]
    if rest:
        if rest[0] != "IDS" or len(rest) != 1 + n:
            raise InvalidParameterError("trailing content is not a valid IDS section")
        tokens = ref_pair_tokens(rest[1:], "ID")
        ids = [None] * n
        for ln, v, vid in zip(rest[1:], map(int, tokens[0::2]), tokens[1::2]):
            if v >= n or ids[v] is not None:
                raise InvalidParameterError(f"bad or repeated vertex in ID line {ln!r}")
            ids[v] = int(vid)
        lab = Labelling(ids, id_bound=max(n ** 3, max(ids)))  # bound
    graph = RegularGraph.from_edges(n, pairs, d=d)
    if directed:
        return Orientation(graph, pairs), lab
    return graph, lab


def ref_window_edge_count(adj, start, length):
    """Edges with both ends among `length` consecutive positions from `start`."""
    n = len(adj)
    window = {(start + i) % n for i in range(length)}
    return sum(1 for v in window for w in adj[v] if w in window) // 2


def ref_pairing_attempt(n, d, rng):
    """One pass of the stub-matching pairing model, one graph at a time, as
    edge keys u*n+v, u < v; None when the leftover stubs get stuck."""
    nd = n * d
    draws = np.frombuffer(rng.getrandbits(64 * nd).to_bytes(8 * nd, "little"), dtype="<u8")
    low = np.uint64((1 << max(nd - 1, 1).bit_length()) - 1)
    order = np.argsort(draws & ~low | np.arange(nd, dtype=np.uint64))
    pairs = (order // max(d, 1)).reshape(-1, 2)
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    keys = lo * n + hi
    keep = lo != hi
    ordered = np.sort(keys)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        seen = set()
        found = np.searchsorted(repeated, keys).clip(max=repeated.size - 1)
        at = np.flatnonzero(repeated[found] == keys)
        for i, key in zip(at.tolist(), keys[at].tolist()):
            keep[i] &= key not in seen
            seen.add(key)
    stubs = pairs[~keep].ravel().tolist()
    if not stubs:
        return keys
    spare = np.zeros(n, dtype=bool)
    spare[stubs] = True
    taken = set(keys[keep & spare[lo] & spare[hi]].tolist())
    extra = []
    while stubs:
        rng.shuffle(stubs)
        leftover = {}
        it = iter(stubs)
        for u, v in zip(it, it):
            if u > v:
                u, v = v, u
            if u != v and u * n + v not in taken:
                taken.add(u * n + v)
                extra.append(u * n + v)
            else:
                leftover[u] = leftover.get(u, 0) + 1
                leftover[v] = leftover.get(v, 0) + 1
        if leftover:
            placeable = any(
                u != v and min(u, v) * n + max(u, v) not in taken
                for u in leftover for v in leftover
            )
            if not placeable:
                return None
        stubs = [v for v, count in leftover.items() for _ in range(count)]
    return np.concatenate([keys[keep], np.array(extra, dtype=keys.dtype)])


def ref_make_random_regular(n, d, seed, max_restarts=1000):
    """The pairing model one graph at a time, restarting from scratch."""
    rng = random.Random(seed)
    for _ in range(max_restarts):
        keys = ref_pairing_attempt(n, d, rng)
        if keys is not None:
            return RegularGraph.from_edges(n, np.stack([keys // n, keys % n], axis=1), d=d)
    raise ConstructionError(
        f"pairing model found no simple graph in {max_restarts} restarts "
        f"(n={n}, d={d}, seed={seed})"
    )


def ref_make_random_orientation(g, seed):
    """A fair getrandbits(1) coin per row (u, v) of edges(): 1 keeps u -> v."""
    rng = random.Random(seed)
    return Orientation(g, [[u, v] if rng.getrandbits(1) else [v, u]
                           for u, v in g.edges().tolist()])


def ref_verify_median_floor(seed, degrees, random_graphs, labellings_per_graph,
                            rule=median_cut):
    """verify_median_floor one (graph, labelling) case at a time."""
    rng = random.Random(seed)
    violations = []
    cases = 0
    for d in degrees:
        graphs = [make_double_circulant(n, d) for n in double_circulant_halves(d)]
        for _ in range(random_graphs):
            n = _even_n(rng, d, 40)
            graphs.append(ref_make_random_regular(n, d, seed=rng.randrange(2 ** 32)))
        for g in graphs:
            floor = bounds.median_floor(g.n, d)
            for _ in range(labellings_per_graph):
                lab = random_labelling(g.n, seed=rng.randrange(2 ** 32))
                size = ref_cut_size(g.adj.tolist(), rule(g, lab).sides.tolist())
                cases += 1
                if Fraction(size) < floor:
                    violations.append(
                        f"d={d} n={g.n} ids={lab.origin}: cut {size} < floor {floor}"
                    )
    return _report("median-floor", cases, violations, 0.0)


def ref_oriented_case(rng, d, max_n):
    n = _even_n(rng, d, max_n)
    g = ref_make_random_regular(n, d, seed=rng.randrange(2 ** 32))
    return ref_make_random_orientation(g, seed=rng.randrange(2 ** 32))


def ref_verify_oriented_ratio(seed, floor_degrees, floor_cases, floor_max_n, ratio_degrees,
                              ratio_cases_per_degree, ratio_max_n, rule=oriented_median_cut):
    """verify_oriented_ratio one orientation at a time, oracle corpus uncached."""
    rng = random.Random(seed)
    violations = []
    cases = 0
    for i in range(floor_cases):
        d = floor_degrees[i % len(floor_degrees)]
        o = ref_oriented_case(rng, d, floor_max_n)
        size = len(ref_dicut_arcs(o.arcs.tolist(), rule(o).sides.tolist()))
        cases += 1
        if 2 * size < o.graph.n:
            violations.append(f"d={d} n={o.graph.n}: dicut {size} < n/2")
    rng = random.Random(seed)
    for d in ratio_degrees:
        for _ in range(ratio_cases_per_degree):
            o = ref_oriented_case(rng, d, ratio_max_n)
            opt, witness = max_dicut_exact(o)
            cut0 = decompose(o, witness).cut_sizes[0]
            ratio = bounds.oriented_ratio(d)
            cases += 1
            if Fraction(cut0) < ratio * opt:
                violations.append(f"d={d} n={o.graph.n}: dicut {cut0} < {ratio} * OPT({opt})")
    return _report("oriented-ratio", cases, violations, 0.0)


def ref_verify_flip_monotonicity(seed, cases, degrees, max_n, flips,
                                 rule=oriented_median_cut, step=unstable_flip_step):
    """verify_flip_monotonicity one flip chain at a time, on sets of vertices and arcs."""
    rng = random.Random(seed)
    violations = []
    for i in range(cases):
        o = ref_oriented_case(rng, degrees[i % len(degrees)], max_n)
        adj, arcs = o.graph.adj.tolist(), o.arcs.tolist()
        c = rule(o)
        stable, cut = ref_stable(adj, c.sides.tolist()), ref_dicut_arcs(arcs, c.sides.tolist())
        for _ in range(flips):
            c = step(o, c)
            stable_next = ref_stable(adj, c.sides.tolist())
            cut_next = ref_dicut_arcs(arcs, c.sides.tolist())
            if not stable <= stable_next:
                violations.append(f"case {i}: stable set shrank")
            if not cut <= cut_next:
                violations.append(f"case {i}: dicut arcs left the cut")
            if len(cut_next) < len(cut):
                violations.append(f"case {i}: dicut size decreased")
            stable, cut = stable_next, cut_next
    return _report("flip-monotonicity", cases, violations, 0.0)



# --- instances -------------------------------------------------------------------

@st.composite
def graphs_with_sides(draw, degrees=tuple(range(1, 8))):
    """A random regular graph (n <= 40), an orientation and a cut of it."""
    d = draw(st.sampled_from(degrees))
    n = draw(st.integers(min_value=d + 1, max_value=40))
    n += (n * d) % 2
    g = make_random_regular(n, d, seed=draw(seeds))
    o = make_random_orientation(g, seed=draw(seeds))
    sides = draw(st.lists(st.sampled_from([LEFT, RIGHT]), min_size=n, max_size=n))
    return o, sides


@given(graphs_with_sides())
@settings(max_examples=150)
def test_cut_rules_match_loops(case):
    o, sides = case
    g, c = o.graph, Cut(sides)
    adj, arcs = g.adj.tolist(), [tuple(a) for a in o.arcs.tolist()]
    assert ref_validate_regular(adj, g.d)
    assert cut_size(g, c) == ref_cut_size(adj, sides)
    assert dicut_size(o, c) == len(ref_dicut_arcs(arcs, sides))
    assert row_set(o.arcs, dicut_arcs(o, c)) == ref_dicut_arcs(arcs, sides)
    assert vertex_set(stable_vertices(g, c)) == ref_stable(adj, sides)
    assert unstable_flip_step(o, c).sides.tolist() == ref_unstable_flip(adj, sides)
    assert distributed_flip_step(g, c).sides.tolist() == ref_distributed_flip(adj, sides)
    assert is_maximal_cut(g, c) is ref_is_maximal(adj, sides)


@given(graphs_with_sides(), seeds)
@settings(max_examples=150)
def test_median_and_deficit_rules_match_loops(case, seed):
    o, _ = case
    g = o.graph
    adj, arcs = g.adj.tolist(), o.arcs.tolist()
    assert o.deficits.tolist() == ref_deficits(arcs, g.n)
    want = ref_deficit_sides(arcs, g.n)
    if want is None:
        with pytest.raises(InvalidParameterError):
            oriented_median_cut(o)
    else:
        assert oriented_median_cut(o).sides.tolist() == want
    if g.d % 2:
        lab = labelling_for(g.n, seed)
        assert median_cut(g, lab).sides.tolist() == ref_median_sides(adj, lab.ids.tolist())


@pytest.mark.parametrize("low", [2 ** 63 - 8, 2 ** 63, 2 ** 64, 2 ** 200])
def test_median_with_ids_beyond_int64(low):
    # from 2^63 on the IDs go into an object array of Python ints, so no
    # comparison wraps or rounds; 2^63 - 8 straddles the int64 limit
    g = make_random_regular(30, 5, seed=2)
    rng = random.Random(low)
    ids = [low + x for x in rng.sample(range(1000), g.n)]
    lab = Labelling(ids, id_bound=2 ** 201)
    assert lab.ids.dtype == (object if lab.max_id >= 2 ** 63 else "int64")
    want = ref_median_sides(g.adj.tolist(), ids)
    assert median_cut(g, lab).sides.tolist() == want
    arcs = make_id_orientation(g, lab).arcs.tolist()
    assert all(ids[t] < ids[h] for t, h in arcs)
    assert ref_deficit_sides(arcs, g.n) == want


# --- flip decomposition --------------------------------------------------------------

@st.composite
def odd_degree_orientations(draw):
    """A random orientation with odd d and n <= 20, plus a cut that plays OPT."""
    d = draw(st.sampled_from([1, 3, 5, 7]))
    n = draw(st.integers(min_value=(d + 2) // 2 + 1, max_value=10)) * 2
    g = make_random_regular(n, d, seed=draw(seeds))
    o = make_random_orientation(g, seed=draw(seeds))
    if draw(st.booleans()):
        return o, max_dicut_exact(o)[1]
    # decompose trusts its witness; the masks must match the sets for any cut
    return o, Cut(draw(st.lists(st.sampled_from([LEFT, RIGHT]), min_size=n, max_size=n)))


@given(odd_degree_orientations())
@settings(max_examples=150)
def test_decomposition_matches_set_reference(case):
    o, opt_cut = case
    g = o.graph
    arcs = [tuple(a) for a in o.arcs.tolist()]
    ref = ref_decompose(g.adj.tolist(), arcs, opt_cut.sides.tolist())
    dec = decompose(o, opt_cut)
    assert (dec.d, dec.n, dec.big_d, dec.opt, dec.cut_sizes) == tuple(
        ref[k] for k in ("d", "n", "big_d", "opt", "cut_sizes"))
    for name in ("M", "M_star", "M_one", "U0", "U1"):
        mask = getattr(dec, name)
        assert mask.shape == (g.n,) and mask.dtype == bool
        assert vertex_set(mask) == ref[name], name
    for name in ("E0", "F0"):
        assert row_set(g.edges(), getattr(dec, name)) == ref[name], name
    assert row_set(o.arcs, dec.E1) == ref["E1"]
    verdicts = check_inequalities(dec)
    assert {k: (v.lhs, v.rhs) for k, v in verdicts.items()} == ref_inequalities(ref)
    assert all(type(v.lhs) is int and type(v.rhs) is int and type(v.holds) is bool
               for v in verdicts.values())


def test_decomposition_masks_are_read_only():
    o = make_id_orientation(complete_graph(4), identity_labelling(4))
    dec = decompose(o, Cut.from_left_set(4, [0, 1]))
    for name in ("M", "M_star", "M_one", "E0", "E1", "F0", "U0", "U1", "deficits", "arcs",
                 "cut_arcs"):
        with pytest.raises(ValueError):
            getattr(dec, name)[0] = True


def lone_ledger(o, witness):
    """The ledger record of one orientation from its own decomposition."""
    dec = decompose(o, witness)
    return {"d": dec.d, "n": dec.n, "opt": dec.opt, "cuts": dec.cut_sizes,
            "verdicts": check_inequalities(dec)}


@pytest.mark.parametrize("witnesses", ["optimal", "random", "mixed"])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_union_ledger_equals_each_components_own(d, witnesses):
    # one decompose and one ledger over a union give every component the
    # counts and verdicts of its own decompose, check_inequalities and
    # ref_decompose, with the oracle's witnesses or with random cuts, which
    # decompose trusts as optimal though most fall short
    rng = random.Random(d)
    ns = [_even_n(rng, d, 16) for _ in range(9)]
    gseeds, oseeds = ([rng.randrange(2 ** 32) for _ in ns] for _ in range(2))
    union = make_random_orientation_union(make_random_regular_union(ns, d, gseeds), ns, oseeds)
    lone, sides = [], []
    for k, (n, gseed, oseed) in enumerate(zip(ns, gseeds, oseeds)):
        o = make_random_orientation(make_random_regular(n, d, seed=gseed), seed=oseed)
        if witnesses == "optimal" or (witnesses == "mixed" and k % 2):
            witness = max_dicut_exact(o)[1]
        else:
            witness = Cut([rng.getrandbits(1) for _ in range(n)])
        lone.append((o, witness, max_dicut_exact(o)[0]))
        sides.append(witness.sides)
    ledgers = bounds._flip_ledgers(decompose(union, Cut(np.concatenate(sides))), ns)
    assert len(ledgers) == len(ns)
    short = 0
    for ledger, (o, witness, opt) in zip(ledgers, lone):
        assert ledger == lone_ledger(o, witness)
        ref = ref_decompose(o.graph.adj.tolist(), [tuple(a) for a in o.arcs.tolist()],
                            witness.sides.tolist())
        assert {k: (v.lhs, v.rhs) for k, v in ledger["verdicts"].items()} == ref_inequalities(ref)
        assert (ledger["opt"], ledger["cuts"]) == (ref["opt"], ref["cut_sizes"])
        assert all(type(v.lhs) is int and type(v.rhs) is int for v in ledger["verdicts"].values())
        short += ledger["opt"] < opt
    assert (short > 0) == (witnesses != "optimal")


def test_ledger_components_must_cover_the_decomposition():
    o = make_id_orientation(complete_graph(4), identity_labelling(4))
    dec = decompose(o, Cut.from_left_set(4, [0, 1]))
    assert bounds._flip_ledgers(dec, [4])[0]["verdicts"] == check_inequalities(dec)
    with pytest.raises(InvalidParameterError, match="components of 6 vertices"):
        bounds._flip_ledgers(dec, [4, 2])


def test_ledger_rejects_arcs_outside_their_components_rows():
    # the ledger cuts the arc rows at the component offsets: arcs shuffled
    # within each component's block keep every record, while arcs shuffled
    # across blocks make a valid Orientation that the ledger refuses; taken
    # as one component, the order of the arcs does not matter
    ns, d = [8, 10, 6, 12], 3
    union = make_random_orientation_union(make_random_regular_union(ns, d, [1, 2, 3, 4]), ns,
                                          [5, 6, 7, 8])
    witness = Cut(np.concatenate([max_dicut_exact(o)[1].sides
                                  for o in verify._components(union, ns)]))
    want = bounds._flip_ledgers(decompose(union, witness), ns)
    rows = [n * d // 2 for n in ns]
    rng = np.random.default_rng(0)
    within = np.concatenate([start + rng.permutation(m)
                             for start, m in zip(np.cumsum([0] + rows), rows)])
    across = rng.permutation(sum(rows))

    def shuffled(order):
        return decompose(Orientation(union.graph, union.arcs[order]), witness)

    assert bounds._flip_ledgers(shuffled(within), ns) == want
    with pytest.raises(InvalidParameterError, match="arcs must be the block of rows"):
        bounds._flip_ledgers(shuffled(across), ns)
    assert check_inequalities(shuffled(across)) == check_inequalities(decompose(union, witness))


@pytest.mark.parametrize("seed", [0, 5])
def test_ratio_records_equal_a_per_case_oracle_and_ledger(seed):
    # the corpus the three oracle suites share, d = 7 included: each record
    # is what the lone orientation gets from the oracle, decompose and
    # check_inequalities
    rng = random.Random(seed)
    cases = [verify._draw_case(rng, d, 16) for d in (3, 5, 7) for _ in range(6)]
    records = verify._ratio_records((3, 5, 7), 6, 16, seed)
    assert len(records) == len(cases)
    for (d, n, gseed, oseed), record in zip(cases, records):
        o = make_random_orientation(make_random_regular(n, d, seed=gseed), seed=oseed)
        opt, witness = max_dicut_exact(o)
        assert record == lone_ledger(o, witness) and record["opt"] == opt


# --- round simulator ---------------------------------------------------------------

def simulated(engine, program, g, lab, **limits):
    """(sides, trace) of a run, or (error type, message, error fields)."""
    try:
        cut, trace = engine(program, g, lab, **limits)
    except Exception as exc:
        return type(exc), str(exc), vars(exc)
    return cut.sides.tolist(), trace


@given(graphs_with_sides(degrees=(1, 3, 5, 7)), seeds, st.integers(min_value=1, max_value=7))
@settings(max_examples=100)
def test_serialized_median_matches_reference_engine(case, seed, chunk):
    g = case[0].graph
    lab = labelling_for(g.n, seed)
    width = max(1, lab.max_id.bit_length())
    want = simulated(ref_run, RefBitSerializedMedianProgram(width, chunk), g, lab,
                     bit_limit=chunk)
    assert want[0] == median_cut(g, lab).sides.tolist()
    assert want[1].rounds_used == -(-width // chunk)
    assert simulated(run, BitSerializedMedianProgram(width, chunk), g, lab,
                     bit_limit=chunk) == want
    assert simulated(run, MedianProgram(width), g, lab) == simulated(
        ref_run, MedianProgram(width), g, lab)


@pytest.mark.parametrize("chunk", range(1, 8))
def test_serialized_median_chunks_of_a_five_bit_width(chunk):
    # IDs 1..30 take 5 bits, which chunks 2, 3 and 4 do not divide
    g = make_random_regular(30, 5, seed=chunk)
    lab = identity_labelling(g.n)
    want = simulated(ref_run, RefBitSerializedMedianProgram(5, chunk), g, lab,
                     bit_limit=chunk)
    assert want[1].rounds_used == -(-5 // chunk)
    assert simulated(run, BitSerializedMedianProgram(5, chunk), g, lab,
                     bit_limit=chunk) == want


@given(graphs_with_sides(), seeds, st.integers(min_value=0, max_value=5))
@settings(max_examples=100)
def test_flip_program_matches_reference_engine(case, seed, rounds):
    o, sides = case
    lab = labelling_for(o.graph.n, seed)
    side_of = dict(zip(lab.ids.tolist(), sides)).__getitem__
    want = simulated(ref_run, RefFlipProgram(side_of, rounds), o.graph, lab, bit_limit=1)
    assert want[0] == ref_flip_rounds(o.graph.adj.tolist(), sides, rounds)
    assert simulated(run, FlipProgram(side_of, rounds), o.graph, lab,
                     bit_limit=1) == want


@given(graphs_with_sides(), seeds, st.sampled_from([None, 1, 2]),
       st.sampled_from([None, 0, 1, 2]))
@settings(max_examples=150)
def test_staggered_program_matches_reference_engine(case, seed, bit_limit, max_rounds):
    g = case[0].graph
    lab = labelling_for(g.n, seed)
    limits = {"bit_limit": bit_limit, "max_rounds": max_rounds}
    assert simulated(run, StaggeredProgram(), g, lab, **limits) == simulated(
        ref_run, StaggeredProgram(), g, lab, **limits)


@given(graphs_with_sides(), seeds, st.sampled_from([None, 1, 2]),
       st.sampled_from([None, 0, 1, 2]))
@settings(max_examples=100)
def test_non_string_messages_count_like_the_reference_engine(case, seed, bit_limit,
                                                             max_rounds):
    g = case[0].graph
    lab = labelling_for(g.n, seed)
    limits = {"bit_limit": bit_limit, "max_rounds": max_rounds}
    assert simulated(run, BytesStaggeredProgram(), g, lab, **limits) == simulated(
        ref_run, BytesStaggeredProgram(), g, lab, **limits)


_fault_kinds = st.sets(st.sampled_from(["arity", "bits", "side", "raise"]), max_size=3)


@given(graphs_with_sides(), st.data())
@settings(max_examples=150)
def test_faulty_programs_raise_what_the_reference_raises(case, data):
    g = case[0].graph
    faults = data.draw(st.dictionaries(
        st.integers(min_value=1, max_value=g.n),
        st.tuples(st.integers(min_value=0, max_value=2), _fault_kinds), max_size=4))
    lab = identity_labelling(g.n)
    assert simulated(run, FaultyProgram(faults), g, lab, bit_limit=2) == simulated(
        ref_run, FaultyProgram(faults), g, lab, bit_limit=2)


def stepped(program, state, round_index, inbound):
    """One step's (state, outbound, output), or (error type, message)."""
    try:
        return program.step(state, round_index, inbound)
    except Exception as exc:
        return type(exc), str(exc)


def received_per_port(received, ports, rounds):
    """Each port's bits in the median program's received text:
    `rounds` rounds of `ports` messages, each message closed by a space."""
    parts = received.split(" ")
    per_round = [parts[i:i + ports] for i in range(0, rounds * ports, ports)]
    assert received == "".join(" ".join(msgs) + " " for msgs in per_round)
    return ["".join(msgs[p] for msgs in per_round) for p in range(ports)]


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=100)
def test_programs_step_like_the_copying_references(width, chunk, ports, data):
    # driven directly, so inbound may hold None (a silent neighbour), which
    # the median program counts as no bits
    own_id = data.draw(st.integers(min_value=0, max_value=2 ** width - 1))
    fast, ref = (BitSerializedMedianProgram(width, chunk),
                 RefBitSerializedMedianProgram(width, chunk))
    pair = [program.init(own_id, 2 * ports + 1, ports) for program in (fast, ref)]
    msg = st.one_of(st.none(), st.text("01", max_size=chunk))
    for r in range(fast.num_chunks + 1):
        inbound = tuple(data.draw(st.lists(msg, min_size=ports, max_size=ports)))
        a, b = stepped(fast, pair[0], r, inbound), stepped(ref, pair[1], r, inbound)
        if isinstance(a[0], type):
            assert a == b
            break
        assert a[1:] == b[1:]
        # the fast state is one string: the ID's bits, then the received text
        bits = a[0][:width]
        assert (bits, decode_id(bits)) == (b[0]["bits"], b[0]["id"])
        assert received_per_port(a[0][width:], ports, r) == b[0]["received"]
        pair = [a[0], b[0]]
    sides = data.draw(st.sampled_from([LEFT, RIGHT]))
    fast, ref = FlipProgram(lambda _: sides, 3), RefFlipProgram(lambda _: sides, 3)
    pair = [program.init(own_id, ports, ports) for program in (fast, ref)]
    for r in range(4):
        inbound = tuple(data.draw(st.lists(st.sampled_from("01"),
                                           min_size=ports, max_size=ports)))
        a, b = fast.step(pair[0], r, inbound), ref.step(pair[1], r, inbound)
        assert a[1:] == b[1:]
        assert a[0] == str(b[0]["side"])  # the fast state is the side's message
        pair = [a[0], b[0]]


# --- sequential flips ------------------------------------------------------------------

@given(graphs_with_sides(), st.sampled_from(["lowest", "highest"]))
@settings(max_examples=100)
def test_sequential_flip_matches_recounting_loop(case, policy):
    o, sides = case
    g = o.graph
    want = ref_sequential_flip(g.adj.tolist(), sides, {"lowest": min, "highest": max}[policy])
    assert sequential_flip_to_maximal(g, Cut(sides), policy).sides.tolist() == want


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("seed", range(21))
def test_heap_policies_match_the_scanning_loop(seed, d):
    n = 100 * (seed % 20 + 1)  # 100 .. 2000
    g = make_random_regular(n, d, seed=seed)
    start = random_cut(g, seed=seed)
    for policy, pick in (("lowest", min), ("highest", max)):
        got = sequential_flip_to_maximal(g, start, policy)
        assert got.sides.tolist() == ref_flip_by_scan(g, start, pick)
        assert is_maximal_cut(g, got)


# --- circulant windows ----------------------------------------------------------------

@given(st.sampled_from([2, 4, 6]), st.integers(min_value=0, max_value=12))
@settings(max_examples=40)
def test_window_edge_counts_match_set_reference(d, extra):
    g = make_circulant(2 * d + 2 * extra, d)
    adj = g.adj.tolist()
    for start in range(g.n):
        counts = window_edge_counts(g, start)
        assert counts.dtype == np.int64
        assert counts.tolist() == [ref_window_edge_count(adj, start, length)
                                   for length in range(g.n + 1)]
        assert window_edge_counts(g, start - g.n).tolist() == counts.tolist()


def test_claim2_rows_match_scalar_checks_on_the_default_grid():
    # verify_claim2's defaults: d in (4, 6), n = 2d, 2d + 4, ... <= 60, r <= 25
    cases = 0
    for d in (4, 6):
        for n in range(2 * d, 61, 4):
            g = make_circulant(n, d)
            adj, window_counts = g.adj.tolist(), window_edge_counts(g, 0)
            grid = {(length, r) for length in range(1, n + 1)
                    for r in range(1, min(length, 25) + 1, 2)}
            rows = set()
            for r in range(1, min(n, 25) + 1, 2):
                lengths, counts, ok = check_window_bounds(window_counts, d, r)
                margin = (r - 1) // 2
                for length, count, holds in zip(lengths.tolist(), counts.tolist(),
                                                ok.tolist()):
                    rows.add((length, r))
                    want = ref_window_edge_count(adj, margin, length - 2 * margin)
                    bound = window_bound(d, length, r)
                    assert (count, holds) == (want, Fraction(want) >= bound)
            assert rows == grid
            cases += len(grid)
    assert cases + 1 == verify_claim2()["cases"] == 8269


# --- seeded generators ------------------------------------------------------------

@pytest.mark.parametrize("seed", range(51))
def test_random_streams_equal_one_bit_draws(seed):
    # one getrandbits(32k) call must yield the bits of k getrandbits(1) calls
    g = make_random_regular(24 + seed % 3 * 2, 3 + seed % 2 * 2, seed=seed)
    rng = random.Random(seed)
    assert random_cut(g, seed).sides.tolist() == [rng.getrandbits(1) for _ in range(g.n)]
    rng = random.Random(seed)
    want = [[u, v] if rng.getrandbits(1) else [v, u] for u, v in g.edges().tolist()]
    assert make_random_orientation(g, seed).arcs.tolist() == want


def test_coin_flips_are_each_generators_one_bit_draws():
    counts = [5, 0, 1, 33, 0, 200, 2]
    seeds = [3, 4, 5, 2 ** 40, 7, 8, 9]
    want = []
    for seed, k in zip(seeds, counts):
        rng = random.Random(seed)
        want += [rng.getrandbits(1) for _ in range(k)]
    got = graphs.coin_flips([random.Random(s) for s in seeds], counts)
    assert got.dtype == np.int8 and got.tolist() == want
    assert graphs.coin_flips([], []).tolist() == []
    assert graphs.coin_flips([random.Random(1)], [0]).tolist() == []


@st.composite
def id_draws(draw):
    """(n, seed, id_bound): n up to 2000, and a bound from n to 2^63 - 1 that
    may be n^3, a power of two, 2^32 +- 1 (where a draw takes a second
    32-bit word) or at most 12n + 22, which reaches both sides of the line
    between random.sample's pool and set methods."""
    n = draw(st.integers(min_value=0, max_value=2000))
    top = 2 ** 63 - 1
    bound = draw(st.one_of(
        st.integers(min_value=n, max_value=12 * n + 22),
        st.integers(min_value=n, max_value=top),
        st.sampled_from([n, n ** 3, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, top]),
        st.integers(min_value=0, max_value=62).map(lambda k: 2 ** k),
    ).filter(lambda b: n <= b <= top))
    return n, draw(seeds), bound


@given(id_draws())
@settings(max_examples=300)
def test_random_ids_are_the_stdlib_sample(case):
    n, seed, id_bound = case
    want = random.Random(seed).sample(range(1, id_bound + 1), n)
    assert random_labelling(n, seed, id_bound).ids.tolist() == want


@pytest.mark.parametrize("n,id_bound", [(100, 10 ** 6), (500, 2 ** 40), (300, 1300)])
def test_random_ids_continue_across_short_batches(monkeypatch, n, id_bound):
    # batches cut to 7 draws make the decode draw again and again; the
    # stream must go on where the last batch ended (1300 > the set method's
    # threshold 1045 at n=300, so many draws repeat)
    monkeypatch.setattr(graphs, "_batch_size", lambda have, n, id_bound, bits: 7)
    want = random.Random(1).sample(range(1, id_bound + 1), n)
    assert random_labelling(n, 1, id_bound).ids.tolist() == want


@st.composite
def id_cases(draw):
    """Up to 30 (n, seed, id_bound) cases for one batch: n up to 60 with the
    default bound n^3, bounds where random.sample takes its pool method,
    bounds from 2^32 on (two 32-bit words per draw) and up to 2^62."""
    def case(n):
        return st.tuples(st.just(n), seeds, st.one_of(
            st.just(n ** 3),
            st.integers(min_value=n, max_value=21 + 4 * n),
            st.integers(min_value=max(n, 2 ** 32 - 2), max_value=2 ** 32 + 2),
            st.integers(min_value=max(n, 1), max_value=2 ** 62),
        ).filter(lambda b: b >= n))
    return draw(st.lists(st.integers(min_value=0, max_value=60).flatmap(case), max_size=30))


def batched_and_sampled(cases):
    ns, case_seeds, bounds_ = (list(x) for x in zip(*cases)) if cases else ([], [], [])
    want = [i for n, s, b in cases for i in random.Random(s).sample(range(1, b + 1), n)]
    return graphs._sampled_ids(ns, case_seeds, bounds_).tolist(), want


@given(id_cases())
@settings(max_examples=150)
def test_batched_ids_are_each_cases_stdlib_sample(cases):
    got, want = batched_and_sampled(cases)
    assert got == want


@given(id_cases())
@settings(max_examples=40)
def test_batched_ids_continue_across_short_batches(cases):
    # batches of 3 draws leave most cases short after their first batch:
    # each must go on drawing where its own stream stopped
    with mock.patch.object(graphs, "_batch_size", lambda have, n, id_bound, bits: 3):
        got, want = batched_and_sampled(cases)
    assert got == want


def test_batched_ids_of_the_median_floor_corpus():
    # the sizes median-floor draws: every case by the set method, a few of
    # them with a repeat among their first n draws
    rng = random.Random(4)
    cases = [(n, rng.randrange(2 ** 32), n ** 3) for n in
             [rng.randrange(4, 21) * 2 for _ in range(300)]]
    repeats = sum(len(set(first_valid_draws(s, n, b))) < n for n, s, b in cases)
    assert 2 <= repeats < len(cases) // 10
    got, want = batched_and_sampled(cases)
    assert got == want


def first_valid_draws(seed, n, id_bound):
    """The first n getrandbits draws of random.Random(seed) below id_bound,
    repeats kept: the draws random.sample's set method looks at first."""
    rng, bits, draws = random.Random(seed), id_bound.bit_length(), []
    while len(draws) < n:
        j = rng.getrandbits(bits)
        if j < id_bound:
            draws.append(j)
    return draws


@pytest.mark.parametrize("n,id_bound,repeat", [
    # seed 1: 907 distinct values among the first 1000 draws; 5000 lies above
    # 4117, the largest population sample takes its pool method for at n=1000
    (1000, 5000, True),
    # seed 1 at the default bound n^3: the first 10^4 draws are distinct
    (10 ** 4, 10 ** 12, False),
    # seed 1 below 10^6: draw 1367 is the first to repeat an earlier one
    (1366, 10 ** 6, False),
    (1367, 10 ** 6, True),
])
def test_random_ids_keep_the_first_draws_unless_one_repeats(n, id_bound, repeat):
    # without a repeat the first n draws are the sample and np.unique never
    # runs; with one it picks the first occurrences
    assert (len(set(first_valid_draws(1, n, id_bound))) < n) == repeat
    want = random.Random(1).sample(range(1, id_bound + 1), n)
    with mock.patch.object(graphs.np, "unique", wraps=np.unique) as unique:
        assert random_labelling(n, 1, id_bound).ids.tolist() == want
    assert unique.called == repeat


# --- union corpora ----------------------------------------------------------------

def construction_outcome(build):
    """What build() returns, or the message of the ConstructionError it raises."""
    try:
        return build()
    except ConstructionError as exc:
        return str(exc)


@st.composite
def union_cases(draw):
    """A degree in {0, 1, 3, 5, 7}, one to five vertex counts from d + 1 up
    (so n = d + 1 comes up), a seed per case and a restart budget."""
    d = draw(st.sampled_from([0, 1, 3, 5, 7]))
    ns = [n + n * d % 2 for n in draw(st.lists(
        st.integers(min_value=d + 1, max_value=d + 12), min_size=1, max_size=5))]
    case_seeds = draw(st.lists(seeds, min_size=len(ns), max_size=len(ns)))
    return d, ns, case_seeds, draw(st.sampled_from([1, 2, 1000]))


def check_union_against_references(d, ns, graph_seeds, max_restarts, orient_seed=0):
    refs = [construction_outcome(lambda n=n, s=s: ref_make_random_regular(n, d, s, max_restarts))
            for n, s in zip(ns, graph_seeds)]
    for n, s, ref in zip(ns, graph_seeds, refs):
        assert construction_outcome(lambda: make_random_regular(n, d, s, max_restarts)) == ref
    errors = [ref for ref in refs if isinstance(ref, str)]
    if errors:  # the first case that runs out of restarts is the one named
        with pytest.raises(ConstructionError) as exc:
            make_random_regular_union(ns, d, graph_seeds, max_restarts)
        assert str(exc.value) == errors[0]
        return
    g = make_random_regular_union(ns, d, graph_seeds, max_restarts)
    orient_seeds = [orient_seed + k for k in range(len(ns))]
    o = make_random_orientation_union(g, ns, orient_seeds)
    first = 0
    for n, ref, orient in zip(ns, refs, orient_seeds):
        last = first + n
        assert g.adj[first:last].tolist() == (ref.adj + first).tolist()
        arcs = ref_make_random_orientation(ref, orient).arcs + first
        assert o.arcs[first * d // 2:last * d // 2].tolist() == arcs.tolist()
        first = last
    assert first == g.n


@given(union_cases(), seeds)
@settings(max_examples=150)
def test_union_components_match_the_one_graph_model(case, orient_seed):
    d, ns, graph_seeds, max_restarts = case
    check_union_against_references(d, ns, graph_seeds, max_restarts, orient_seed)


@pytest.mark.parametrize("n,d", [(12, 3), (10, 5), (14, 7)])
def test_union_replays_every_case_restart(n, d):
    # cases whose first attempt gets stuck sit between cases that do not
    stuck = [s for s in range(300) if ref_pairing_attempt(n, d, random.Random(s)) is None]
    fine = [s for s in range(300) if ref_pairing_attempt(n, d, random.Random(s)) is not None]
    assert len(stuck) >= 3 and len(fine) >= 2
    graph_seeds = [fine[0], stuck[0], stuck[1], fine[1], stuck[2]]
    check_union_against_references(d, [n] * 5, graph_seeds, 1000)
    check_union_against_references(d, [n] * 5, graph_seeds, 1)


def faulty_median_cut(g, lab):
    """Only the local minima of the IDs go LEFT."""
    ids = lab.ids
    return Cut(np.where(ids[g.adj].min(axis=1) > ids, LEFT, RIGHT))


def faulty_deficit_cut(o):
    """The deficit rule with every source and sink on the wrong side."""
    delta = o.deficits
    return Cut(np.where((delta > 0) ^ (abs(delta) == o.graph.d), LEFT, RIGHT))


def faulty_flip_step(o, c):
    """Flips the unstable vertices and every sink as well."""
    flip = (same_side_counts(o.graph, c) == o.graph.d) | (o.deficits == -o.graph.d)
    return Cut(c.sides ^ flip)


REFERENCE_SUITES = {
    "median-floor": (ref_verify_median_floor, {"median_cut": faulty_median_cut},
                     {"rule": faulty_median_cut}),
    "oriented-ratio": (ref_verify_oriented_ratio, {"oriented_median_cut": faulty_deficit_cut},
                       {"rule": faulty_deficit_cut}),
    "flip-monotonicity": (ref_verify_flip_monotonicity, {"unstable_flip_step": faulty_flip_step},
                          {"step": faulty_flip_step}),
}


def union_and_reference_reports(suite, seed, params, faulty, union_stubs):
    """The suite's report and its per-case reference's, less elapsed_s; with
    `faulty`, both run the suite's local rule swapped for a wrong one."""
    reference, patches, rules = REFERENCE_SUITES[suite]
    with mock.patch.dict(vars(verify), {"_UNION_STUBS": union_stubs, **(patches if faulty else {})}):
        got = verify.SUITES[suite](seed=seed, **params)
    want = reference(seed, **params, **(rules if faulty else {}))
    return [{k: v for k, v in report.items() if k != "elapsed_s"} for report in (got, want)]


@st.composite
def suite_runs(draw):
    """A suite with a union corpus, its seed, small parameters, whether its
    rule is faulty, and the stub budget per union (1 gives one case each)."""
    suite = draw(st.sampled_from(sorted(REFERENCE_SUITES)))
    degrees = tuple(draw(st.lists(st.sampled_from([3, 5, 7]), min_size=1, max_size=3)))
    small = st.integers(min_value=0, max_value=12)
    if suite == "median-floor":
        params = {"degrees": degrees, "random_graphs": draw(st.integers(0, 4)),
                  "labellings_per_graph": draw(st.integers(0, 3))}
    elif suite == "oriented-ratio":
        params = {"floor_degrees": degrees, "floor_cases": draw(small),
                  "floor_max_n": draw(st.integers(10, 60)),
                  "ratio_degrees": tuple(draw(st.lists(st.sampled_from([3, 5]), max_size=2))),
                  "ratio_cases_per_degree": draw(st.integers(0, 3)),
                  "ratio_max_n": draw(st.integers(8, 14))}
    else:
        params = {"cases": draw(small), "degrees": degrees,
                  "max_n": draw(st.integers(10, 30)), "flips": draw(st.integers(0, 5))}
    return (suite, draw(seeds), params, draw(st.booleans()),
            draw(st.sampled_from([1, 150, 1 << 14])))


@given(suite_runs())
@settings(max_examples=120)
def test_union_suites_match_per_case_references(run):
    got, want = union_and_reference_reports(*run)
    assert got == want


@pytest.mark.parametrize("suite,params", [
    ("median-floor", {"degrees": (3, 5), "random_graphs": 4, "labellings_per_graph": 2}),
    ("oriented-ratio", {"floor_degrees": (3, 5, 7), "floor_cases": 30, "floor_max_n": 100,
                        "ratio_degrees": (3,), "ratio_cases_per_degree": 2, "ratio_max_n": 12}),
    ("flip-monotonicity", {"cases": 12, "degrees": (3, 5, 7), "max_n": 30, "flips": 4}),
])
@pytest.mark.parametrize("union_stubs", [1, 150, 1 << 14])
def test_faulty_rules_give_the_references_violations(suite, params, union_stubs):
    got, want = union_and_reference_reports(suite, 1, params, True, union_stubs)
    assert got == want
    named = {text.split(":")[0] for text in got["first_violations"]}
    assert 1 < len(named) < got["cases"]  # some cases fail, not all


@pytest.mark.parametrize("seed", [7, 2 ** 40])
@pytest.mark.parametrize("coins", [verify._COINS, 64 * 60])
def test_folklore_blocks_count_each_random_cut(seed, coins):
    # 150 trials at n = 60: one partial block, or 64 + 64 + 22 trials
    trials, n, d = 150, 60, 3
    g = make_random_regular(n, d, seed=seed)
    sizes = [cut_size(g, random_cut(g, seed=seed + 1 + i)) for i in range(trials)]
    with mock.patch.object(verify, "_COINS", coins):
        report = verify.verify_folklore(seed=seed, trials=trials, n=n, d=d)
    assert report["mean"] == round(sum(sizes) / trials, 3)
    assert report["below_045m"] == sum(1 for s in sizes if 20 * s < 9 * g.m)
    assert report["below_045m"] > 0


@pytest.mark.parametrize("trials", [0, -1])
def test_folklore_needs_a_trial(trials):
    # 0 trials would divide by zero in the mean, and fewer would pass on no cuts
    with pytest.raises(InvalidParameterError, match="trials >= 1"):
        verify.verify_folklore(trials=trials)


# --- graph files -----------------------------------------------------------------

def parse_outcome(parser, text, universal_newlines):
    """What a parser makes of `text`: its graph, arcs and IDs, or its error."""
    try:
        obj, lab = parser(text_source(text, universal_newlines))
    except InvalidParameterError as exc:
        return "error", str(exc)
    g = obj.graph if isinstance(obj, Orientation) else obj
    arcs = obj.arcs.tolist() if isinstance(obj, Orientation) else None
    return type(obj), g.adj.tolist(), arcs, None if lab is None else lab.ids.tolist()


# Parse chunk sizes: the default; one line per chunk, so that chunks start
# on blank lines, on the IDS marker and inside the IDS section; and a few
# short lines per chunk, so that the marker also falls inside a chunk.
PARSE_CHUNKS = [graphio._CHUNK, 1, 8]


def assert_parsers_agree(text, universal_newlines):
    want = parse_outcome(ref_read_graph, text, universal_newlines)
    for chunk in PARSE_CHUNKS:
        with mock.patch.object(graphio, "_CHUNK", chunk):
            assert parse_outcome(read_graph, text, universal_newlines) == want, chunk


@given(mutated_graph_files(), st.booleans())
@settings(max_examples=300)
def test_byte_parser_matches_line_parser(text, universal_newlines):
    assert_parsers_agree(text, universal_newlines)


@pytest.mark.parametrize("text", [
    "4 4 2 U\r\n0 1\r\n1 2\r\n2 3\r\n3 0\r\nIDS\r\n0 5\r\n1 6\r\n2 7\r\n3 8\r\n",
    "\n \n4 4 2 D\n\n0 1\n1 2\x1c\n\x1f2\x1d3\n3 0\n  \nIDS \n3 1\n2 2\n1 3\n0 4",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0000000000000000000000\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 9223372036854775808\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 1\n1 2\n2 3\n3 9223372036854775808\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 000000000000000000001\n1 2\n2 3\n3 4\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n+3 0\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\nIDS\n0 1\n1 2\n2 3\n3 4\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\n0 1\n1 2\n2 3\n3 4\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 1\n1 2\n3 3\n3 4\n",
    "4 4 2 U\n0 1 1 2\n\n2 3\n3 0\n",
    "4 4 2 U\n0\n1\n1 2\n2 3\n3 0\n",
    "4 4 2 U\n0 1\n1\x002\n2 3\n3 0\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDSX\n0 1\n1 2\n2 3\n3 4\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS 4\n0 1\n1 2\n2 3\n3 4\n",
    "4 4 2 U\n0 1\n1 2\n2 3\nIDS\n0 1\n1 2\n2 3\n3 4\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\n0 2\nIDS\n0 1\n1 2\n2 3\n3 4\n",
    "1 0 0 U\n",
    "1 0 0 U\nIDS\n0 1\n",
    "1 0 0 U",
    # which fault is named where a text has several, in different sections
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 x\n1 2\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 99999999999999999999\n1 2\n",
    "4 4 2 U\n0 99999999999999999999\n1 2\n2 3\n3 x\n",
    "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 1\n0 2\n2 3\n3 x\n",
    "4 4 2 U\n0\n1\n2\n3\n",
    "1 0 0 U\nIDS\n99999999999999999999 5\n",
])
def test_byte_parser_matches_line_parser_on_edge_cases(text):
    for universal_newlines in (False, True):
        assert_parsers_agree(text, universal_newlines)


def chunked_parse_outcome(text):
    """How read_graph reads `text` against ref_read_graph at every chunk
    size: "parses" if it gives the reference's graph, arcs and IDs,
    "rejected" if it raises the reference's error and message."""
    want = parse_outcome(ref_read_graph, text, False)
    for chunk in PARSE_CHUNKS:
        with mock.patch.object(graphio, "_CHUNK", chunk):
            assert parse_outcome(read_graph, text, False) == want, chunk
    return "rejected" if want[0] == "error" else "parses"


PARSE_BASE = "4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 5\n1 6\n2 7\n3 8\n"
PARSE_SPACES = "\t\v\f\r\x1c\x1d\x1e\x1f"


@pytest.mark.parametrize("row", ["1 2", "2 7"])
@pytest.mark.parametrize("space", PARSE_SPACES)
def test_byte_parser_takes_each_space_byte_around_tokens(row, space):
    x, y = row.split()
    for spaced in (space + row, x + space + y, row + space, space + x + space * 2 + y + space):
        assert chunked_parse_outcome(PARSE_BASE.replace(row, spaced)) == "parses", spaced


@pytest.mark.parametrize("text,outcome", [
    # the last token ends the text, or the edge rows the IDS marker cuts off
    ("4 4 2 U\n0 1\n1 2\n2 3\n3 0", "parses"),
    (PARSE_BASE.rstrip("\n"), "parses"),
    (PARSE_BASE.replace("3 0\n", "3 0 \n"), "parses"),
    ("1 0 0 U\nIDS\n0 7", "parses"),
    ("4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS", "rejected"),
    ("4 4 2 U\n0 1\n1 2\n2 3\n3 0\nIDS\n0 5\n1 6\n2 7", "rejected"),
    # tokens of 18 digits decode in numpy; 19 through Python int
    (PARSE_BASE.replace("3 0", "000000000000000003 0"), "parses"),
    (PARSE_BASE.replace("3 8", "3 999999999999999999"), "parses"),
    (PARSE_BASE.replace("3 0", "0000000000000000003 0"), "parses"),
    (PARSE_BASE.replace("3 8", "3 1000000000000000000"), "parses"),
    # lines of one and of three tokens, an even count overall
    (PARSE_BASE.replace("0 1\n1 2", "0 1 1\n2"), "rejected"),
    (PARSE_BASE.replace("0 1\n1 2", "0\n1 1 2"), "rejected"),
    (PARSE_BASE.replace("2 7\n3 8", "2 7 3\n8"), "rejected"),
    (PARSE_BASE.replace("3 0\n", "3\n0\n"), "rejected"),
    # blank lines, empty or of spaces only, between rows and around the marker
    (PARSE_BASE.replace("\n", "\n\n"), "parses"),
    (PARSE_BASE.replace("\n", "\n \t\x1c\r\n"), "parses"),
    ("\n\n" + PARSE_BASE.replace("IDS", "\n\x0b\nIDS\n\n"), "parses"),
])
def test_byte_parser_gives_the_line_parsers_arrays(text, outcome):
    assert chunked_parse_outcome(text) == outcome


# --- validation -------------------------------------------------------------------

@st.composite
def damaged_adjacencies(draw):
    """A regular adjacency, as lists, with up to two entries overwritten."""
    d = draw(st.sampled_from(range(1, 8)))
    n = draw(st.integers(min_value=d + 1, max_value=40))
    n += (n * d) % 2
    adj = make_random_regular(n, d, seed=draw(seeds)).adj.tolist()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        row = draw(st.integers(min_value=0, max_value=n - 1))
        col = draw(st.integers(min_value=0, max_value=d - 1))
        adj[row][col] = draw(st.integers(min_value=-1, max_value=n))
    if draw(st.booleans()):  # make one row ragged
        row = adj[draw(st.integers(min_value=0, max_value=n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(row[0])
    return adj, d


@given(damaged_adjacencies())
@settings(max_examples=200)
def test_validation_matches_set_reference(case):
    adj, d = case
    valid = ref_validate_regular(adj, d)
    if valid:
        assert RegularGraph(adj, d=d).adj.tolist() == [sorted(r) for r in adj]
    else:
        with pytest.raises(InvalidParameterError):
            RegularGraph(adj, d=d)


@st.composite
def damaged_edge_lists(draw):
    """(n, edges, d): the edges of a regular graph, as pairs in either
    order, with up to four changes. A swap trades the ends of two edges,
    (a, b), (c, d) -> (a, c), (b, d): every degree stays d, but a loop
    appears when a = c and a repeated edge when (b, d) is one already. A
    moved endpoint, a repeated edge or a dropped one leaves uneven degrees."""
    d = draw(st.sampled_from(range(0, 6)))
    n = draw(st.integers(min_value=d + 1, max_value=20))
    n += (n * d) % 2
    edges = [[u, v] if draw(st.booleans()) else [v, u]
             for u, v in make_random_regular(n, d, seed=draw(seeds)).edges().tolist()]
    vertices = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["swap", "swap", "move", "repeat", "drop"]))
        if not edges:
            edges.append([draw(vertices), draw(vertices)])
            continue
        i, j = (draw(st.integers(min_value=0, max_value=len(edges) - 1)) for _ in "ij")
        if kind == "swap" and i != j:
            (a, b), (c, e) = edges[i], edges[j]
            edges[i], edges[j] = [a, c], [b, e]
        elif kind == "move":
            edges[i][draw(st.integers(0, 1))] = draw(vertices)
        elif kind == "repeat":
            edges.append(list(edges[i]))
        elif kind == "drop":
            edges.pop(i)
    return n, edges, draw(st.sampled_from([None, d]))


@given(damaged_edge_lists())
@settings(max_examples=300)
def test_from_edges_matches_set_reference(case):
    # from_edges runs no symmetry test: both directions of each edge go in
    n, edges, d = case
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    valid = ref_validate_regular(adj, len(adj[0]) if d is None else d)
    if valid:
        got = RegularGraph.from_edges(n, edges, d=d)
        assert got.adj.tolist() == [sorted(r) for r in adj]
    else:
        with pytest.raises(InvalidParameterError):
            RegularGraph.from_edges(n, edges, d=d)


@pytest.mark.parametrize("adjacency,defect", [
    ([(1, 7), (0, 2), (1, 0)], "out of range"),
    ([(1, 2), (0, 1), (0, 1)], "own neighbor"),
    ([(1, 1), (0, 0)], "twice"),
    ([(2, 3), (0, 2), (1, 3), (0, 2)], "not symmetric"),
])
def test_each_adjacency_defect_is_rejected(adjacency, defect):
    assert not ref_validate_regular(adjacency, 2)
    with pytest.raises(InvalidParameterError, match=defect):
        RegularGraph(adjacency)


def test_out_of_range_edge_is_rejected():
    with pytest.raises(InvalidParameterError, match="out of range"):
        RegularGraph.from_edges(3, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("arcs", [
    [(0, 1), (1, 2)],                  # edge {0, 2} missing
    [(0, 1), (1, 2), (0, 1)],          # arc repeated, {0, 2} missing
    [(0, 1), (1, 2), (2, 0), (2, 0)],  # arc repeated on top of a full set
    [(0, 1), (1, 0), (1, 2)],          # both directions of one edge
    [(0, 1), (1, 2), (2, 3)],          # vertex 3 out of range
])
def test_orientation_defects_are_rejected(arcs):
    with pytest.raises(InvalidParameterError, match="exactly once"):
        Orientation(complete_graph(3), arcs)


def test_arrays_are_read_only():
    o = make_random_orientation(make_circulant(8, 2), seed=0)
    c = Cut([LEFT] * 8)
    for array in (o.graph.adj, o.graph.edges(), o.arcs, o.out_degrees, o.deficits, c.sides):
        with pytest.raises(ValueError):
            array[0] = 1
