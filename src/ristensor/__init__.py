"""RIS-assisted monostatic MIMO sensing via nested tensor decomposition.

A numpy library plus a small CLI that synthesizes the OFDM echo tensor of a
single target observed through a reconfigurable intelligent surface, fits it
with a two-stage alternating-least-squares scheme, and extracts delay,
Doppler, and departure angles with shift-invariance (ESPRIT-style)
estimators.  Monte-Carlo RMSE sweeps and a complexity model round out the
experiment harness.
"""

from .config import ScenarioConfig, default_delay, small_config
from .esprit import extract_parameters
from .estimation import (
    AlsSettings,
    als_stage1,
    als_stage2,
    remove_core_scaling,
    tensorize_factor,
)
from .exceptions import DivergenceError, EmptyCellError, IdentifiabilityError
from .experiment import (
    ExperimentSpec,
    complexity_estimate,
    run_sweep,
    run_trial,
    write_manifest,
    write_results,
)
from .signal_model import (
    TargetParameters,
    add_noise_at_snr,
    build_bs_ris_channel,
    build_dft_codebook,
    build_random_codebook,
    delay_steering,
    doppler_steering,
    generate_echo_tensor,
    generate_pilots,
    pilot_matrix,
    ula_steering,
    upa_steering,
)
from .tensorops import khatri_rao, unvec

__version__ = "0.1.0"
