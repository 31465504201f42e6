"""Seedable simulations of contextual bias in forensic evidence evaluation.

The package models how task-irrelevant information tilts an analyst's
reported likelihood ratio, how that tilt propagates along chains of
analysts (independently or compounding), and how a trier of fact ends up
with guilt odds inflated by exactly the product of the per-stream tilts.
Odds, likelihood ratios and bias factors are plain float log values, so
Bayes' rule in odds form is a sum: the posterior log odds are the prior
log odds plus the log likelihood ratios and the log bias factors.

A function that draws once takes a numpy Generator; a replicated
experiment takes a master seed and draws from its substreams
substream(master_seed, i), so results are reproducible bit for bit.
"""

# Set before the submodule imports: presets reads it as the manifest's
# tool version while this package is still initialising.
__version__ = "0.1.0"

from .odds import log_odds, log_prior_odds, probability
from .contextual import (
    MAYFIELD_DELTAS,
    average_bias,
    delta_contextual,
    mayfield_average,
    race_example_delta,
)
from .relevance import (
    FiniteJoint,
    JointSchemaError,
    RelevanceVerdict,
    Verdict,
    ZeroMassEventError,
    builtin_joint_names,
    classify_relevance,
    load_builtin_joint,
    parse_joint_fixture,
)
from .fingerprints import (
    CellAgreementModel,
    DEFAULT_THRESHOLDS,
    ImputationSimParams,
    SourceDecision,
    bias_factor_percentiles,
    bias_factors,
    count_matches,
    decide_source,
    exact_delta_quantiles,
    exact_mean_delta,
    impute_from_reference,
    parse_grid,
    sample_delta_impute,
)
from .feedback import (
    BetaPrior,
    DEFAULT_PRIOR,
    FeedbackParams,
    FeedbackRegime,
    run_paired_feedback,
    simulate_feedback,
)
from .propagation import (
    BiasProfile,
    ChainMode,
    ChainParams,
    PropagationStudy,
    monte_carlo_chains,
)
from .trier import case_report
from .seeding import substream, substream_uniforms, validate_seed
from .config import ConfigError, ParamSpec, PresetSchema
from .outputs import RunManifest, read_manifest, sha256_file, write_manifest
from .presets import PRESETS, Preset, TOOL_VERSION, get_preset, run_preset
