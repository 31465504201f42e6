"""Seedable simulations of contextual bias in forensic evidence evaluation.

The package models how task-irrelevant information tilts an analyst's
reported likelihood ratio, how that tilt propagates along chains of
analysts (independently or compounding), and how a trier of fact ends up
with guilt odds inflated by exactly the product of the per-stream tilts.
A bias factor is a plain float log value, one more additive term in the
log odds.

A function that draws once takes a numpy Generator; a replicated
experiment takes a master seed and draws replicate i from
substream(master_seed, i), so results are reproducible bit for bit and
any replicate can be re-created alone.
"""

from .odds import (
    LikelihoodRatio,
    OddsRatio,
    Probability,
    SuspectPool,
    compose_lr,
    odds_to_probability,
    posterior_odds,
    probability_to_odds,
    uniform_prior_odds,
)
from .contextual import (
    MAYFIELD_DELTAS,
    average_bias,
    delta_contextual,
    mayfield_average,
    race_example_delta,
)
from .relevance import (
    Factor,
    FiniteJoint,
    JointSchemaError,
    RelevanceVerdict,
    Verdict,
    ZeroMassEventError,
    builtin_joint_names,
    classify_fixture,
    classify_relevance,
    joint_from_dag_factors,
    load_builtin_joint,
    parse_joint_fixture,
)
from .fingerprints import (
    Cell,
    CellAgreementModel,
    DEFAULT_THRESHOLDS,
    GridFixture,
    ImputationSimParams,
    LatentVector,
    MatchSummary,
    MinutiaVector,
    PrintGrid,
    SourceDecision,
    count_matches,
    decide_source,
    delta_impute_exact,
    exact_delta_quantiles,
    exact_mean_delta,
    imputation_grid_fixture,
    impute_from_reference,
    sample_delta_impute,
    source_lr,
)
from .feedback import (
    BetaPrior,
    DEFAULT_PRIOR,
    FeedbackKind,
    FeedbackRegime,
    PairedFeedbackResult,
    Trajectory,
    conjugate_update,
    convergence_gap,
    run_paired_feedback,
    simulate_feedback,
)
from .propagation import (
    BiasProfile,
    ChainMode,
    PropagationStudy,
    monte_carlo_chains,
)
from .trier import case_report
from .seeding import substream, substream_uniforms, validate_seed
from .config import ConfigError, ParamSpec, PresetSchema
from .outputs import RunManifest, read_manifest, sha256_file, write_manifest
from .presets import PRESETS, Preset, TOOL_VERSION, get_preset, run_preset

__version__ = "0.1.0"
