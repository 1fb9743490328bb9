"""Hall algebras of quiver representations over prime fields.

Classical structure constants are computed by subobject enumeration, derived
ones by cone counting over the bounded derived category of a hereditary path
algebra, and both are cross-checked against an independent groupoid-span
realization of the product through a push-forward calculus on locally finite
homotopy types.
"""

from .catalog import Catalog, CatalogEntry, catalog_build
from .derived import (
    ChainMap,
    Complex,
    DerivedClass,
    derived_class_of,
    ext_dim,
    homology,
    mapping_cone,
)
from .errors import (
    EnumerationCapError,
    HallAlgError,
    InputError,
    InvariantError,
    OutOfUniverseError,
)
from .fq import (
    FqMatrix,
    FqScalar,
    FqSubspace,
    enumerate_subspaces,
    gaussian_binomial,
    solve,
)
from .hall import (
    EnumerationCaps,
    HallContext,
    HallElement,
    count_exact_sequences,
    derived_hall_number,
    hall_number_classical,
    multiply,
)
from .lf import (
    BaseChangeSquare,
    Fiber,
    FiniteSupportFn,
    LFType,
    ProperMapData,
    check_base_change,
    lf_product,
    pullback,
    pushforward,
    random_base_change_square,
)
from .quivers import Quiver, a_n_quiver
from .reps import (
    Representation,
    RepMorphism,
    aut_order,
    enumerate_subreps,
    ext1_dim,
    hom_basis,
    is_isomorphic,
    kernel_cokernel,
)
from .span import SpanModel, build_span_model, mu_span
from .verify import orbit_stabilizer_check, verify_suite

__version__ = "0.1.0"
