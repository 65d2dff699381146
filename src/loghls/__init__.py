"""loghls: a numerical laboratory for the logarithmic HLS, Onofri and
Lebedev-Milin inequalities, their quadratic stability bounds with
explicit constants, the convex-duality transfer between them, and two
entropy-dissipating flows (heat semigroup on the sphere, critical-mass
radial Keller-Segel)."""

from .entropy import (gibbs_density, half_convexity_gap, log_partition,
                      pinsker_gap, relative_entropy, small_set_delta,
                      strong_young_gap)
from .errors import LogHLSError
from .fields import (CircleField, PlanarDensity, RadialDensity, SphereField,
                     radial_from_profile)
from .flows import (HeatState, KSState, FlowTrajectory, dissipation_check,
                    heat_evolve, heat_run, heat_state, ks_evolve, ks_rate_fit,
                    reverse_entropy)
from .functionals import (dirichlet_energy, half_laplacian_energy,
                          lebedev_milin_functional, log_interaction, onofri_functional,
                          planar_free_energy, planar_free_energy_report,
                          sphere_green_apply, spherical_free_energy)
from .geometry import ConformalParams, conformal_push, lift_T, planar_from_profile
from .grids import (CircleGrid, RadialGrid, SphereGrid, integrate,
                    make_circle_grid, make_radial_grid, make_sphere_grid)
from .optimizers import (CircleOptimizerParams, PlanarOptimizerParams,
                         SearchDiagnostics, SphereOptimizerParams, circle_optimizer,
                         nearest_planar_L1, recenter, sphere_optimizer)
from .specs import RunConfig, format_input_spec, parse_input_spec
from .stability import (ConvexPairSpec, StabilityCertificate,
                        circle_stability_certificate, onofri_stability_certificates,
                        planar_stability_certificate,
                        spherical_stability_certificate, toy_duality_demo)

__version__ = "0.1.0"
