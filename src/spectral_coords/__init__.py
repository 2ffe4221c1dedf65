"""Orthogonal curvilinear coordinate systems from rational spectral data.

The package builds coordinate maps u -> x(u) whose coordinate lines are
mutually orthogonal, starting from algebro-geometric data on reducible
rational curves: pole divisors, essential-singularity markers,
normalization points, gluing rules, and a meromorphic differential that
certifies the construction. A catalog of worked systems, flat-metric
verification tools on exact derivative jets, and an independent
integral-equation route to the rotation coefficients round it out.
"""

from .baker import Solver
from .curve import (ComponentAnsatz, CountingReport, CurvePoint,
                    EssentialTerm, Gluing, InvolutionSpec, Normalization,
                    RegularityReport, SpectralData, arithmetic_genus,
                    check_involution, check_Q_residues, check_regular,
                    same_curve_point, validate_counting)
from .dressing import (Factor, Grid, KernelSpec, LameResult,
                       MarchenkoSolution, PhiEntry, build_F,
                       check_beta_systems, check_F_equations,
                       lame_from_rotation, rotation_from_dressing,
                       solve_marchenko, solve_marchenko_kernel)
from .errors import (CountMismatch, DegenerateParameters, DivisorMismatch,
                     EssentialSingularity, IncompatibleField, InputError,
                     Mismatch, NoIsolation, NonPositive, NonPositiveDiagonal,
                     NotInvolution, PNotFixed, PoleEvaluation,
                     SingularFredholm, SingularSystem, SpectralError,
                     StencilFailure, TailTooFat)
from .gallery import GalleryEntry, build, reference_residual
from .geometry import (FDConfig, FIRST_DERIVATIVE_FD, GeometryReport, Jet,
                       SECOND_DERIVATIVE_FD, SystemResiduals, build_report,
                       check_immersion, check_systems,
                       christoffel_and_riemann, epsilon_invariant, jacobian,
                       jet, lame, metric, rotation, rotation_systems)
from .numerics import (INF, FactoredRational, Infinity, RationalDifferential,
                       is_inf, require_finite, same_point)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
