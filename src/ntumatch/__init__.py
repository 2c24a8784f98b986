"""Exact core solvers for partitioned matching games with non-transferable
utilities: matching engine, matroid layer, couples algorithms, frontier
solvers, hardness-gadget generators, and an exhaustive oracle."""

from .couples import (
    CouplesGame,
    StrongCoreStructure,
    normalize,
    strong_core_solve,
    strong_core_structure,
    strong_membership,
    weak_construct,
    weak_membership,
)
from .engines import Verdict, solve, verify
from .errors import InputError, InvariantError, MethodError, ResourceLimitError
from .constant_players import (
    AchievableFrontier,
    achievable,
    core_empty,
    core_outcomes,
    frontier,
)
from .games import (
    BlockCertificate,
    Instance,
    MembershipResult,
    core_membership_by_enumeration,
    find_block_for_coalition,
    utility,
)
from .generators import (
    GeneratedInstance,
    X3CInstance,
    attach_special_edge,
    gen_3sat_weak_emptiness,
    gen_example1,
    gen_random,
    gen_x3c_strong,
    gen_x3c_weak,
)
from .graphs import Graph, Matching, coverable, coverage_rank, max_matching
from .matroids import PartitionQuota, matching_with_lower_bounds

__all__ = [
    "AchievableFrontier",
    "BlockCertificate",
    "CouplesGame",
    "GeneratedInstance",
    "Graph",
    "InputError",
    "Instance",
    "InvariantError",
    "Matching",
    "MembershipResult",
    "MethodError",
    "PartitionQuota",
    "ResourceLimitError",
    "StrongCoreStructure",
    "Verdict",
    "X3CInstance",
    "achievable",
    "attach_special_edge",
    "core_empty",
    "core_membership_by_enumeration",
    "core_outcomes",
    "coverable",
    "coverage_rank",
    "find_block_for_coalition",
    "frontier",
    "gen_3sat_weak_emptiness",
    "gen_example1",
    "gen_random",
    "gen_x3c_strong",
    "gen_x3c_weak",
    "matching_with_lower_bounds",
    "max_matching",
    "normalize",
    "solve",
    "strong_core_solve",
    "strong_core_structure",
    "strong_membership",
    "utility",
    "verify",
    "weak_construct",
    "weak_membership",
]
