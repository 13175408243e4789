"""Coarse-grained effective Hamiltonians for an AC-driven two-level system.

Windowed Magnus averages of the driven dynamics, the resulting Stark and
Bloch-Siegert shifts in closed form, exact unitary propagation in lab,
interaction, and rotating frames, and a minimized-fidelity metric validating
the effective models against the exact evolution.
"""
from .errors import (
    AmplitudePole,
    ConfigError,
    DegenerateSplittingWarning,
    DetuningSingularity,
    MagnusError,
    NonHermitianInput,
    NotResonant,
    NotUnitary,
    ResonantStarkWarning,
    UnknownFramePair,
)
from .fidelity import FidelitySample, fidelity_series, min_fidelity, min_fidelity_bruteforce
from .magnus import (
    QuadratureSpec,
    Window,
    f1_numeric,
    f2_numeric,
    h_eff1_analytic,
    h_eff2_analytic,
    h_eff_order2_analytic,
    h_eff_window,
    sinc,
)
from .model import (
    DriveParams,
    Frame,
    h_bar,
    h_cr_interaction,
    h_interaction,
    h_lab,
    h_rw_interaction,
    h_rwa,
    h_rwa_plus_bs,
    u_x,
)
from .pauli import (
    PauliCoeffs,
    Unitary2,
    commutator,
    compose,
    decompose,
    expm_pauli,
)
from .propagation import (
    PropagationSpec,
    floquet_splitting,
    frame_transform,
    propagate,
    propagate_coarse,
    trajectory,
)
from .shifts import (
    RatioCheck,
    RegimeReport,
    Shifts,
    bloch_siegert_prime_shift,
    bloch_siegert_shift,
    compute_shifts,
    h_eff_dispersive,
    h_eff_resonant_bar,
    h_eff_resonant_interaction,
    resonant_splitting,
    stark_shift,
    validate_regime,
)

__version__ = "0.1.0"
