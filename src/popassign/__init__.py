"""Popular assignments in bipartite instances with one-sided partial-order
preferences: solvers, instance transformations, and independent verification.

The package splits into:

- :mod:`popassign.instance` -- instances, matchings, parsing, validation;
- :mod:`popassign.matching` -- plain combinatorial matching algorithms;
- :mod:`popassign.popular` -- the level-function solver and its certificates;
- :mod:`popassign.variants` -- forced/forbidden edges, margin budgets, penalties;
- :mod:`popassign.reductions` -- reductions to and from related problems;
- :mod:`popassign.oracle` -- brute-force and LP-duality verification tools;
- :mod:`popassign.generate` -- seeded random instance and market documents;
- :mod:`popassign.cli` -- the ``popassign`` command-line frontend.
"""

from .instance import (
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    PrefComparison,
    ValidationReport,
    check_assignment,
    check_matching,
    compare,
    instance_from_document,
    parse_instance,
    serialize_instance,
    validate,
)
from .matching import (
    BipartiteGraph,
    InfeasibleMatchingError,
    WeightedBipartiteGraph,
    max_weight_perfect_matching,
    maximum_matching,
)
from .oracle import (
    CapExceededError,
    CharacterizationSets,
    MarginReport,
    brute_force_margin,
    characterize_weak_rankings,
    delta,
    edge_weight,
    enumerate_matchings,
    enumerate_perfect_matchings,
    is_popular_weak,
    is_popular_with_penalty,
    satisfies_weak_characterization,
    total_vote_with_penalty,
    unpopularity_margin,
    verify_certificate,
    vote_with_penalty,
)
from .popular import (
    DualCertificate,
    LevelFunction,
    NoPerfectMatchingError,
    SolveOutcome,
    certificate_from_levels,
    induced_subgraph,
    make_level_function,
    solve_popular_assignment,
    solve_truncated,
)
from .reductions import (
    Allocation,
    HousingMarket,
    PenaltyMatchingResult,
    ReductionMap,
    add_last_resorts,
    allocation_to_assignment,
    assignment_to_allocation,
    augment_to_perfect,
    extend_to_assignment,
    housing_to_assignment,
    market_from_document,
    parse_market,
    reduce_diversity,
    reduce_penalty_matching,
    solve_penalty_matching,
    weak_to_strict,
)
from .variants import (
    EdgeConstraints,
    KMarginOutcome,
    LoadCapacity,
    lambda_feasible,
    solve_k_margin,
    solve_penalty_assignment,
    solve_with_constraints,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BipartiteGraph",
    "CapExceededError",
    "CharacterizationSets",
    "DualCertificate",
    "EdgeConstraints",
    "HousingMarket",
    "InfeasibleMatchingError",
    "Instance",
    "InstanceError",
    "KMarginOutcome",
    "LevelFunction",
    "LoadCapacity",
    "MarginReport",
    "Matching",
    "MatchingError",
    "NoPerfectMatchingError",
    "PenaltyMatchingResult",
    "PrefComparison",
    "ReductionMap",
    "SolveOutcome",
    "ValidationReport",
    "WeightedBipartiteGraph",
    "add_last_resorts",
    "allocation_to_assignment",
    "assignment_to_allocation",
    "augment_to_perfect",
    "brute_force_margin",
    "certificate_from_levels",
    "characterize_weak_rankings",
    "check_assignment",
    "check_matching",
    "compare",
    "delta",
    "edge_weight",
    "enumerate_matchings",
    "enumerate_perfect_matchings",
    "extend_to_assignment",
    "housing_to_assignment",
    "induced_subgraph",
    "instance_from_document",
    "is_popular_weak",
    "is_popular_with_penalty",
    "lambda_feasible",
    "make_level_function",
    "market_from_document",
    "max_weight_perfect_matching",
    "maximum_matching",
    "parse_instance",
    "parse_market",
    "reduce_diversity",
    "reduce_penalty_matching",
    "satisfies_weak_characterization",
    "serialize_instance",
    "solve_k_margin",
    "solve_penalty_assignment",
    "solve_penalty_matching",
    "solve_popular_assignment",
    "solve_truncated",
    "solve_with_constraints",
    "total_vote_with_penalty",
    "unpopularity_margin",
    "validate",
    "verify_certificate",
    "vote_with_penalty",
    "weak_to_strict",
]
