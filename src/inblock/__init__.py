"""Capacities, cut bounds, and achievable rates for finite-alphabet networks
with in-block memory, plus a Gaussian module certifying the quantize-forward
additive gap."""

from .errors import (
    InBlockError,
    InvalidDistributionError,
    ShapeError,
    SizeError,
    SpecFormatError,
)
from .probability import (
    FiniteDistribution,
    JointBlockDistribution,
    Variable,
    binary_entropy,
    causally_conditioned_entropy,
    conditional_entropy,
    delayed,
    directed_information,
    entropy,
    merge_blocks,
    mixture,
    mutual_information,
)
from .model import (
    SILENT,
    BlockChannel,
    CodeFunction,
    CodeFunctionDistribution,
    Message,
    NetworkSession,
    NodeSpec,
    code_function_count,
    constant_code_functions,
    enumerate_code_functions,
    enumerate_maps,
    induced_channel,
    joint_distribution,
)
from .embeddings import (
    embed_action_channel,
    embed_block_fading,
    embed_relay_without_delay,
    embed_state_channel,
    state_genie_bound,
)
from .cutset import (
    CutBoundReport,
    baik_bound,
    cut_mutual_information,
    cutset_region,
    enumerate_cuts,
    weakened_bound,
)
from .strategies import (
    QfReport,
    RateBound,
    bc_cutset_region,
    bc_deterministic_region,
    bc_marton_region,
    bc_regions,
    cf_rate,
    df_rate,
    identity_quantizer,
    mac_fb_region,
    pdf_rate,
    qf_rate,
    relay_without_delay_bound,
)
from .optimize import (
    OptimizationResult,
    SupportReduction,
    blahut_arimoto,
    maximize_cutset_minimum,
    maximize_point_to_point,
    ptp_support_bound,
    support_reduction,
)
from .gaussian import (
    GaussianNetwork,
    cut_upper_bound,
    gap_bound_per_letter,
    gap_certificate,
    qf_lower_bound,
    whiten,
)
from .specio import channel_to_spec, gaussian_to_spec, parse_spec

__version__ = "0.1.0"
