"""Spatiospectral concentration and uncertainty inequalities on model spaces.

The library realizes cut-off and band-limiting operators, concentration
(Slepian-type) eigenproblems, Weyl counting, homogeneity checks, randomized
spectral subsets, and a family of uncertainty inequalities on domains with
closed-form eigenbases: flat tori, the round 2-sphere, finite abelian groups,
and their products.
"""

from .concentration import (
    BandlimitedFunction,
    ConcentrationLevels,
    GramMatrix,
    band_project,
    concentration_levels,
    cutoff,
    gram_matrix,
    masked_band_energy,
    max_concentration,
    restrict_band,
)
from .errors import CoarseQuadratureError, DescriptorError, SpeconError
from .random_spectra import (
    DEFAULT_SEED,
    GmptSplit,
    LambdaQEstimate,
    RandomSubsetSpec,
    estimate_cq,
    generic_subset,
    gmpt_split,
    lq_norm,
    trial_rng,
)
from .regions import (
    BandUnion,
    BoxUnion,
    FiniteSubset,
    ProductRegion,
    Region,
    arc,
    cap,
    empty_region,
    full_region,
    parse_region,
)
from .reports import InequalityReport, reports_to_csv, reports_to_json
from .spaces import (
    BasisElement,
    FiniteGroup,
    ModelSpace,
    ProductSpace,
    Quadrature,
    Sphere2,
    Torus,
    parse_space,
)
from .spectral import (
    Covering,
    SpectralSet,
    check_homogeneity,
    cover_by_unit_intervals,
    local_weyl,
    parse_spectrum,
    sogge_constant_estimate,
    spectrum_ball,
    spectrum_level,
    weyl_count,
)
from .uncertainty import (
    check_covering_uncertainty,
    check_eigenfunction_mass_bound,
    check_generic_subset_uncertainty,
    check_group_uncertainty,
    check_homogeneous_uncertainty,
    check_joint_uncertainty,
    check_projection_bounds,
    check_random_half_uncertainty,
    check_supnorm_uncertainty,
)

__version__ = "0.1.0"
