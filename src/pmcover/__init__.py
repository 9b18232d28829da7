"""Exact perfect-matching covering computations for bridgeless cubic graphs.

The package enumerates perfect matchings of cubic multigraphs, computes the
perfect matching index tau and the odd covering index tau_odd, searches
Fulkerson coverings and Fan-Raspaud triples, builds 4-coverings
constructively from good pairs, generates the classical snark families, and
applies the 2-cut, 3-cut and K4 composition operators - all with exact,
deterministic search.
"""

from .compositions import (
    k4_composition,
    tau5odd_example,
    three_cut_join,
    two_cut_join,
)
from .constructions import (
    GoodPairCert,
    check_good_triple,
    find_good_triple,
    four_covering_from_good_pairs,
    pair_odd_cycles,
)
from .coverings import (
    Covering,
    CoveringKind,
    FRStructure,
    OddCoverResult,
    TauResult,
    analyze_graph,
    covering_multiplicities,
    covering_number,
    double_covering,
    even_covering_from_four_covering,
    find_fr_triples,
    fr_structure,
    fulkerson_covering,
    odd_covering_from_four_covering,
    odd_covering_number,
)
from .edge_coloring import is_three_edge_colorable, three_edge_coloring
from .generators import (
    blanusa,
    flower_proof_cycles,
    flower_snark,
    generalized_blanusa,
    goldberg_graph,
    goldberg_proof_cycles,
    is_petersen,
    k4,
    k33,
    permutation_graph,
    petersen,
    prism,
    random_bridgeless_cubic,
    theta,
    two_factor_from_cycles,
)
from .graph6 import iter_graph6_file, parse_graph6, to_graph6
from .graphs import (
    CubicGraph,
    EdgeSet,
    TwoFactor,
    cyclic_connectivity_at_least,
    find_bridges,
    is_perfect_matching,
    two_factor_of,
)
from .matchings import (
    PMCatalog,
    enumerate_perfect_matchings,
    matching_line,
    pm_pair_stats,
)
from .scan import ScanRecord, ScanSummary, run_scan

__version__ = "1.0.0"
