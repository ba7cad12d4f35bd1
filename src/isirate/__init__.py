"""Achievable-rate bounds and approximations for the discrete-time ISI
channel with i.i.d. finite-alphabet inputs."""

__version__ = "0.1.0"

from .channel import (
    ChannelResponse,
    SpectralSummary,
    channel_b,
    jeong,
    jeong_spaced,
    spectral_summary,
    to_minimum_phase,
    transfer_power,
)
from .scalar import (
    InputDistribution,
    binary_entropy,
    bpsk,
    low_snr_series,
    make_skewed_binary,
    make_trinary,
    mmse,
    mmse_binary,
    mutual_info,
    q_integral,
    q_tail,
)
from .equalizer import (
    DfeDesign,
    design_mmse_dfe,
    two_tap_residual,
)
from .bounds import (
    BoundReport,
    bound_report,
    genie_equal_sigma,
    genie_mmse_lower,
    genie_one_cluster,
    genie_singletons,
    i_mmse_exact,
    i_mmse_mc,
    i_sl,
    i_sow,
    ie_bound,
    ie_conj,
    ie_opt,
    ie_simple,
    slc_gap_series,
    two_tap_gap_leading,
)
from .rate_sim import Trellis, build_trellis, estimate_rate, forward_log_likelihood
from .highsnr import (
    ErrorEventSearch,
    ExponentGap,
    crossover_probe,
    delta_min_sq,
    exponent_gap,
    fano_forney_upper,
    sl_gap_lower,
)
from .montecarlo import RateEstimate

__all__ = [name for name in dir() if not name.startswith("_")]
