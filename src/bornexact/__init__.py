"""bornexact: scattering media for which the first Born approximation is exact.

Media whose transverse Fourier content lies strictly above a threshold
frequency alpha scatter plane waves exactly at first Born order for k <=
alpha and not at all for k <= alpha/2.  This package constructs such media,
evaluates their Born amplitudes in closed form and by quadrature, runs the
momentum-space transfer-matrix pipeline as an independent route to the same
observable, and ships the support-algebra oracles behind the claims.
"""

from .em import (
    ANNULUS_GUARD,
    DetectorDirection,
    IncidentWave,
    free_hamiltonian,
    projector,
    varpi,
    xi_contract,
)
from .medium import (
    BoundsReport,
    GaussErfProfile,
    GaussianControlProfile,
    MediumProfile,
    RationalEnvelopeProfile,
    SupportReport,
    TransverseBox,
    bounds_check,
    profile_from_dict,
    rotate_to_x,
    support_report,
)
from .born import (
    MAGNETIC_SIGN,
    OverlapRegion,
    QuadratureSpec,
    fibonacci_hemisphere,
    first_born_amplitude,
    first_born_amplitudes,
    invisibility_report,
    scaling_check,
    second_born_amplitude,
    second_born_amplitudes,
    support_overlap,
)
from .sampled import SampledProfile, sample_profile
from .transfer import (
    MomentumGrid,
    TransferKernel,
    TSolution,
    amplitude_from_T,
    build_momentum_grid,
    dyson_second_order_norm,
    firstorder_kernel,
    identity_id101_residual,
    solve_T,
    transfer_first_order,
)

__all__ = [
    "ANNULUS_GUARD",
    "BoundsReport",
    "DetectorDirection",
    "GaussErfProfile",
    "GaussianControlProfile",
    "IncidentWave",
    "MAGNETIC_SIGN",
    "MediumProfile",
    "MomentumGrid",
    "OverlapRegion",
    "QuadratureSpec",
    "RationalEnvelopeProfile",
    "SampledProfile",
    "SupportReport",
    "TSolution",
    "TransferKernel",
    "TransverseBox",
    "amplitude_from_T",
    "bounds_check",
    "build_momentum_grid",
    "dyson_second_order_norm",
    "fibonacci_hemisphere",
    "first_born_amplitude",
    "first_born_amplitudes",
    "firstorder_kernel",
    "free_hamiltonian",
    "identity_id101_residual",
    "invisibility_report",
    "profile_from_dict",
    "projector",
    "rotate_to_x",
    "sample_profile",
    "scaling_check",
    "second_born_amplitude",
    "second_born_amplitudes",
    "solve_T",
    "support_report",
    "support_overlap",
    "transfer_first_order",
    "varpi",
    "xi_contract",
]

__version__ = "0.1.0"
