"""Deterministic local algorithms for large cuts in regular graphs.

The package bundles four layers:

* core types (:mod:`localcut.graphs`) and instance generators
  (:mod:`localcut.generators`),
* the one-round median rule and the zero-round oriented variant with its
  flip post-processing (:mod:`localcut.algorithms`), plus a message-passing
  simulator that charges bits per round (:mod:`localcut.congest`),
* brute-force oracles for exact MaxCut/MaxDiCut (:mod:`localcut.oracle`),
* the guarantee ledger: closed-form floors, the flip decomposition with its
  inequality checks, and batch verification suites (:mod:`localcut.bounds`,
  :mod:`localcut.verify`).
"""

from .algorithms import (
    distributed_flip_step,
    is_maximal_cut,
    median_cut,
    oriented_median_cut,
    oriented_median_plus_flips,
    random_cut,
    sequential_flip_to_maximal,
    stable_vertices,
    unstable_flip_step,
)
from .bounds import (
    FlipDecomposition,
    InequalityVerdict,
    check_inequalities,
    check_window_bounds,
    decompose,
    f_d,
    log_star,
    median_floor,
    oriented_ratio,
    tower,
    two_flip_floor,
    window_bound,
    window_edge_counts,
)
from .congest import (
    BitSerializedMedianProgram,
    FlipProgram,
    MedianProgram,
    NodeProgram,
    RoundTrace,
    run,
    run_bit_serialized_median,
)
from .errors import (
    BudgetError,
    CongestionError,
    ConstructionError,
    InvalidParameterError,
    InvariantError,
    LocalcutError,
    NonTerminationError,
    UnsupportedDegreeError,
)
from .generators import (
    abcd_sets,
    complete_graph,
    make_abcd_instance,
    make_circulant,
    make_double_circulant,
    make_extremal_labelling,
    make_id_orientation,
    make_random_orientation,
    make_random_orientation_union,
    make_random_regular,
    make_random_regular_union,
    make_single_flip_stuck_instance,
    orient_clockwise,
    stuck_sets,
)
from .graphio import read_graph, write_graph
from .graphs import (
    Cut,
    LEFT,
    Labelling,
    Orientation,
    RIGHT,
    RegularGraph,
    component_offsets,
    cut_edges,
    cut_size,
    dicut_arcs,
    dicut_size,
    identity_labelling,
    is_bipartite,
    monochromatic_components,
    random_labelling,
)
from .oracle import (
    enumerate_max_dicuts,
    max_cut_exact,
    max_dicut_exact,
)
from .verify import SUITES

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
