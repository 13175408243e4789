"""Exception and warning types shared across the package."""


class MagnusError(Exception):
    """Base class for all cgmagnus errors."""


class NonHermitianInput(MagnusError):
    """A matrix that must be Hermitian exceeded the Hermiticity tolerance."""


class DetuningSingularity(MagnusError):
    """A closed form with a 1/detuning pole was evaluated too close to resonance."""


class AmplitudePole(MagnusError):
    """Drive amplitude at or beyond the 2*omega pole of the off-diagonal shift."""


class NotResonant(MagnusError):
    """An operation defined only at zero detuning was called with detuning != 0."""


class UnknownFramePair(MagnusError):
    """frame_transform received an object that is not a known Frame."""


class NotUnitary(MagnusError):
    """A matrix failed the unitarity invariant."""


class ConfigError(MagnusError):
    """Scenario configuration failed validation; the message names the field."""


class ResonantStarkWarning(UserWarning):
    """Stark shift requested at (numerically) zero detuning; the value is infinite."""


class DegenerateSplittingWarning(UserWarning):
    """Floquet eigenphases coincide within tolerance; the splitting is ill-conditioned."""
