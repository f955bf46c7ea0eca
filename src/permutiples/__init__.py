"""Permutiples: numbers that are integer multiples of their own digit rearrangements.

The pipeline, bottom to top: exact digit arithmetic and witness checking
(digits), the graph of digit pairs any permutiple may use (mothergraph),
the carry state machine those pairs drive (statemachine), the Eulerian
conditions and circuit enumeration that generate permutiple strings
(euler), and brute-force scans that keep the whole pipeline honest
(oracle).  The cli module exposes every stage as a subcommand.
"""

from .digits import (
    CarrySeq,
    DigitVec,
    Params,
    PermutipleWitness,
    WitnessReport,
    carry_sequence,
    digits_of,
    find_permutation,
    value,
    verify_witness,
)
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DigitAlignmentError,
    NotAnLWalkError,
    PermutipleError,
    RejectedPairError,
    UnknownCycleIndexError,
)
from .euler import (
    CircuitCounts,
    ConditionReport,
    EnumerationOptions,
    condition_report,
    count_circuits,
    count_sequences_by_arborescences,
    enumerate_strings,
    find_eulerian_circuit,
)
from .mothergraph import (
    ClassGraph,
    Cycle,
    DigitGraph,
    DigitPair,
    MotherGraph,
    build_mother_graph,
    edge_allowed,
    enumerate_cycles,
    graph_of_witness,
    graph_to_dot,
    is_in_class,
)
from .oracle import (
    EquivalenceReport,
    brute_force_search,
    equivalence_check,
    palintiple_count,
)
from .statemachine import (
    CycleMultiset,
    HSMultigraph,
    LabeledMultiedge,
    PermutipleString,
    build_hs_multigraph,
    cycle_multi_image,
    group_by_transition,
    multigraph_to_dot,
    string_to_witness,
    transition,
    union_images,
)

__version__ = "0.1.0"
