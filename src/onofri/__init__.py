"""Conformal-group machinery and sharp Onofri-type inequalities on the 2-sphere.

The package provides:

* stereographic geometry and Gauss-Legendre quadrature (:mod:`onofri.sphere`),
* real spherical harmonics with exact spectral energy (:mod:`onofri.harmonics`),
* the conformal group, one type with closed-form Jacobians (:mod:`onofri.mobius`),
* the lift to the proper orthochronous Lorentz group (:mod:`onofri.lorentz`),
* the extremal family (3/4) ln J + c (:mod:`onofri.extremals`),
* the sharp functionals and their conformal transport (:mod:`onofri.functionals`),
* conformal re-centering of the mass measure (:mod:`onofri.normalize`),
* the quantitative stability certificate (:mod:`onofri.stability`).
"""

from .sphere import (
    INFINITY,
    ConvergenceError,
    RefinementPolicy,
    SphericalGrid,
    build_grid,
    cap_area,
    integrate,
    moments,
    stereo_inverse,
    stereo_project,
    unit_point,
)
from .harmonics import (
    GridField,
    HarmonicField,
    Projection,
    analyze,
    coeff_index,
    dirichlet_energy,
    evaluate_at,
    field_from_json,
    field_to_json,
    laplacian,
    synthesize,
)
from .mobius import (
    ConformalMap,
    dilation,
    identity_map,
    inversion,
    jacobian_area_oracle,
    rotation,
    translation,
    translation_to,
)
from .lorentz import (
    hermitian_of,
    homomorphism_check,
    lightcone_residual,
    lorentz_lift,
)
from .extremals import (
    Extremal,
    build_extremal,
    center_of_mass,
    conformal_mass,
    euler_lagrange_residual,
    generator_com,
    generator_mass,
    psi_field,
    psi_values,
    sqrt_jacobian_residual,
)
from .functionals import (
    FunctionalReport,
    cg_bound_slack,
    chang_gui_report,
    chang_gui_value,
    exp_moments,
    onofri_value,
    transform,
)
from .normalize import (
    NormalizationResult,
    normalize,
    recentering_map,
    solve_lambda0,
    solve_x0,
)
from .stability import (
    DistanceResult,
    ManifoldPoint,
    StabilityReport,
    distance_to_manifold,
    grad_distance,
    stability_check,
)

__version__ = "0.1.0"
