"""Submodular maximization with exact oracle-query accounting."""

from .cardinality import (
    FillState,
    draw_rank,
    lazy_greedy_improved,
    lazy_greedy_simple,
    random_greedy,
    random_sampling,
    random_sampling_monotone,
    random_sampling_nonmonotone,
    standard_greedy,
)
from .errors import InstanceTooLargeError, InvalidInputError
from .harness import (
    RunConfig,
    RunRecord,
    brute_force_opt,
    generate_instance,
    generate_matroid,
    run_experiment,
    summarize,
)
from .ledger import QueryLedger
from .matroid_algos import (
    CombinedParams,
    CombinedResult,
    LazyGreedyOutcome,
    LazyGreedyState,
    choose_lambda,
    combined_algorithm,
    combined_parameters,
    crude_opt_estimate,
    linear_greedy,
    random_lazy_greedy,
    thresholding_greedy,
)
from .matroids import (
    ContractedMatroid,
    ExplicitMatroid,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    RankCappedMatroid,
    UniformMatroid,
    greedy_basis,
    matroid_rank,
)
from .multilinear import (
    FractionalPoint,
    continuous_greedy,
    estimate_marginal_F,
    estimator_sample_count,
    swap_round,
)
from .oracles import (
    CoverageOracle,
    DirectedCutOracle,
    FacilityLocationOracle,
    ModularOracle,
    ResidualOracle,
    TableOracle,
    ValueOracle,
)

__version__ = "0.1.0"
