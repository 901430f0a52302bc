import random

import pytest
from hypothesis import settings, strategies as st

from localcut import (
    LEFT,
    Labelling,
    NodeProgram,
    make_random_orientation,
    make_random_regular,
    random_labelling,
)

# Oracle-backed properties can take a while per example; wall-clock deadlines
# only add flakiness on loaded machines.
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


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


def labelling_for(n: int, seed: int) -> Labelling:
    """Either a dense permutation or a sparse sample, depending on the seed."""
    if seed % 2:
        ids = list(range(1, n + 1))
        random.Random(seed).shuffle(ids)
        return Labelling(ids)
    return random_labelling(n, seed=seed)


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
