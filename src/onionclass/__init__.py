"""Hyperdeterminants and onion-structure classification of small state tensors."""

from .scalars import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    GaussianRational,
    QuadExt,
)
from .errors import (
    BadCut,
    BadDimension,
    EmptyEnsemble,
    FamilyMismatch,
    FormatMismatch,
    NoCanonicalRepresentative,
    NotBipartite,
    NotInSection,
    OnionError,
    SizeMismatch,
    UnsupportedFormat,
    WrongFormat,
    ZeroState,
)
from .tensor import (
    LocalOperatorTuple,
    ProductVector,
    StateTensor,
    apply_local,
    cut_rank,
    exact_state,
    flatten,
    float_state,
    from_terms,
    local_operators,
    local_ranks,
    new_state,
    product_vector,
    random_state,
    schmidt_coefficients,
    separability_pattern,
    states_proportional,
    to_float,
)
from .hyperdet import (
    BinaryFormCoefficients,
    HyperdetResult,
    LiftResult,
    binary_form_coeffs,
    concurrence,
    det2,
    det3,
    det322,
    det4,
    generic4_product,
    generic4_state,
    hyperdet,
    pairing,
    schlafli_lift,
    three_tangle,
)
from .singular import (
    SectionFlags,
    SingularityReport,
    cusp_test_3qubit,
    node_test_322,
    node_test_3qubit,
    section_flags,
    section_hessian,
)
from .classify import (
    ClassLabel,
    canonicalize_3qubit,
    class_catalog,
    classify,
    reachability_dag,
    reachable,
    representative,
)
from .mixed import Ensemble, LadderClass, density_matrix, ensemble, ensemble_upper_class
from .oracle import (
    CriticalSearchResult,
    critical_point_search,
    critical_residual,
    identity_check,
    random_rational_state,
)

__version__ = "0.1.0"
