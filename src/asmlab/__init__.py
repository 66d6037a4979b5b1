"""asmlab: a desk-scale genome-assembly modeling laboratory.

The package walks the classic modeling ladder for assembly: common
superstrings, shortest common superstrings, spectrum-constrained
reconstruction, shortest edge-covering walks of de Bruijn graphs, and
safe contigs via maximal unitigs, together with a read simulator and a
three-stage evaluation harness for judging each formulation's usefulness.
"""

from asmlab.graph import (
    DeBruijnGraph,
    Walk,
    build,
    is_edge_covering,
    make_bubble_graph,
    oracle_shortest_edge_covering_walk,
    shortest_edge_covering_walk,
    spell,
    walk_of,
)
from asmlab.sequence import (
    DnaString,
    KmerSpectrum,
    ReadSet,
    is_common_superstring,
    longest_repeat,
    max_overlap,
    spectrum,
    spectrum_of_set,
    spectrum_subset_check,
)
from asmlab.simulate import (
    SimulationProfile,
    correct_reads,
    idealized_reads,
    random_genome,
    uniform_reads,
    unspanned_probability,
)
from asmlab.superstring import diagnose_overcollapse, exact_scs, greedy_scs
from asmlab.unitig import (
    check_safety_preconditions,
    is_safe_bounded,
    maximal_unitigs,
    safety_suite,
    unitig_contigs,
)

__version__ = "0.1.0"

__all__ = [
    "DeBruijnGraph",
    "DnaString",
    "KmerSpectrum",
    "ReadSet",
    "SimulationProfile",
    "Walk",
    "build",
    "check_safety_preconditions",
    "correct_reads",
    "diagnose_overcollapse",
    "exact_scs",
    "greedy_scs",
    "idealized_reads",
    "is_common_superstring",
    "is_edge_covering",
    "is_safe_bounded",
    "longest_repeat",
    "make_bubble_graph",
    "max_overlap",
    "maximal_unitigs",
    "oracle_shortest_edge_covering_walk",
    "random_genome",
    "safety_suite",
    "shortest_edge_covering_walk",
    "spectrum",
    "spectrum_of_set",
    "spectrum_subset_check",
    "spell",
    "unitig_contigs",
    "uniform_reads",
    "unspanned_probability",
    "walk_of",
    "__version__",
]
