"""Exact signatures, L-classes and Hodge L-classes of du Val K3 surfaces
and product-covered Calabi-Yau 3-folds."""

from .ade import (
    ADEType,
    Basket,
    DynkinGraph,
    FormSignature,
    SymIntForm,
    cartan_matrix,
    form_signature,
    plumbing_form,
    standard_dynkin_graph,
)
from .wps import (
    CyclicQuotient,
    HypersurfaceFamily,
    NoLinkingMonomial,
    NotDuVal,
    Weights,
    basket,
    quasismooth,
    quotient_points,
    well_formed,
)
from .homology import (
    CoveringMap,
    DimensionMismatch,
    FormalClass,
    Generator,
    SpaceLabel,
    UnknownGenerator,
    fundamental_class,
    hodge_class_tree,
    l_class_surface,
    product_class,
    pushforward,
    transfer,
)
from .threefolds import (
    BoundViolation,
    BsyReport,
    KawamataDiagram,
    NovikovDecomposition,
    SurfaceModel,
    bsy_check,
    novikov_assembly,
    sigma_k3,
    smooth_k3_signature,
    t1_surface,
    threefold_lclass,
)
from .catalog import (
    CatalogRow,
    InvariantViolation,
    ParseError,
    embedded_catalog,
    load_catalog,
    verify_row,
)
from .search import (
    K3Family,
    enumerate_baskets,
    enumerate_k3_hypersurfaces,
    find_signature,
    stabilized_enumeration,
)

__version__ = "0.1.0"
