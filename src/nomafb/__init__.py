"""Max-min NOMA with quantized channel feedback: allocation, quantizers, Monte Carlo."""

from .channel import CHUNK, ChannelParams, ChannelState, StreamSeed, sample_block, sample_channel
from .alloc import (
    PowerAllocation,
    SolverResult,
    alloc_from_rate,
    equal_rate_split,
    max_min_rate_two_user,
    optimal_alpha_two_user,
    outage_conditions,
    sic_rates,
    solve_max_min_k,
    tdma_min_rate,
    two_user_rates,
    varpi,
)
from .quantizer import (
    OUTAGE,
    RATE,
    default_t_outage,
    default_t_rate,
    fle_bits,
    vle_decode,
    vle_encode,
    vle_length,
    vle_rate_bound,
)
from .evaluator import achievable_check, rate_loss_bound
from .harness import (
    ExperimentConfig,
    MetricPoint,
    RunStats,
    estimate_diversity,
    run_experiment,
)

__version__ = "0.1.0"
