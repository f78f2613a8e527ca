"""spinsurf: spin-1/2 quantum dynamics on curved surfaces.

Thin-layer effective dynamics for a non-relativistic spin-1/2 particle
confined to a parametrized surface: geometry-induced abelian gauge
potential and pseudo-magnetic field B = hbar K/(2e), non-abelian
spin-orbit gauge field set by the Weingarten map, sparse Hermitian
discretization of the effective Hamiltonian, spectra and conductance of
straight cylinders, and Heisenberg-equation forces plus spin-Hall
wavepacket dynamics on bent cylinders.

Natural units hbar = m = e = 1 throughout; `spinsurf.constants` maps
results to SI.
"""

from .constants import PhysicalScale
from .frames import (AdaptedFrameData, ExpansionReport, FrameFields,
                     adapted_frame_at, expansion_report, frame_at,
                     frame_fields, verify_thin_layer_expansions)
from .gauge import (FluxResult, GaugeFieldSample, curl_matches_w, flux,
                    gauge_transform, pseudo_electric_field, pseudo_field_at,
                    sample_w, soi_radius)
from .hamiltonian import (Grid, HermitianOperator, SpinorField, apply,
                          assemble_H0, assemble_Heff, assemble_Hso,
                          gauge_conjugate, hermiticity_defect,
                          time_reversal_defect)
from .dynamics import (AnalyticForce, BentCylinderSetup, ForceReport,
                       analytic_force, bent_cylinder_operators, evolve,
                       force_equality_report, force_operators,
                       gaussian_wavepacket, spin_hall_run)
from .spectra import (ConductanceCurve, SpectrumResult,
                      cylinder_analytic_spectrum, cylinder_ring_operator,
                      cylinder_thresholds, conductance_curve,
                      degeneracy_clusters, eigensolve)
from .surfaces import SurfacePatch, make_surface, surface_from_config

__version__ = "0.1.0"
