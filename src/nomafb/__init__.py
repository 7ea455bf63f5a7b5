"""Max-min NOMA with quantized channel feedback: allocation, quantizers, Monte Carlo."""

from .channel import CHUNK, ChannelParams, sample_block
from .alloc import (
    alloc_from_rate,
    equal_rate_split,
    max_min_rate_two_user,
    outage_conditions,
    sic_rates,
    two_user_rates,
)
from .quantizer import (
    default_t_outage,
    default_t_rate,
    fle_bits,
    vle_decode,
    vle_encode,
)
from .evaluator import rate_loss_bound
from .harness import (
    ExperimentConfig,
    MetricPoint,
    RunStats,
    estimate_diversity,
    run_experiment,
)

__version__ = "0.1.0"
