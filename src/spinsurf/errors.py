"""Exception types raised by the spinsurf package."""


class SpinsurfError(Exception):
    """Base class for all package-specific errors."""


class SurfaceParameterError(SpinsurfError, ValueError):
    """Invalid shape parameters (e.g. torus with R <= rho)."""


class DegenerateMetricError(SpinsurfError, ValueError):
    """Parametrization is singular at the requested point (det g ~ 0)."""


class SingularLayerError(SpinsurfError, ValueError):
    """Normal offset q3 reaches the focal set: rescale factor f <= 0."""


class ExpansionOrderError(SpinsurfError, AssertionError):
    """A thin-layer expansion identity failed its fitted-order check."""


class HermiticityError(SpinsurfError, AssertionError):
    """An assembled operator is not Hermitian to rounding (defect > 1e-12)."""


class NotClosedSurfaceError(SpinsurfError, ValueError):
    """Flux requested on a patch that is not a closed surface."""


class WindingMismatchError(SpinsurfError, ValueError):
    """Gauge phase jumps by a non-multiple of 2*pi across a periodic seam."""


class GridError(SpinsurfError, ValueError):
    """Invalid grid construction or dimension mismatch."""


class PacketTooNarrowError(SpinsurfError, ValueError):
    """Wavepacket width below the resolvable minimum (4 grid spacings)."""


class InvalidWindowError(SpinsurfError, ValueError):
    """Bent-cylinder angular window wraps the period or is out of regime."""


class EigensolverError(SpinsurfError, RuntimeError):
    """Iterative eigensolver failed to converge to the residual contract."""


class ConfigError(SpinsurfError, ValueError):
    """Malformed run configuration."""

    def __init__(self, message, key=None, line=None):
        super().__init__(message)
        self.key = key
        self.line = line
