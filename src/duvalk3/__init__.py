"""Exact signatures, L-classes and Hodge L-classes of du Val K3 surfaces
and product-covered Calabi-Yau 3-folds.

The surface layer (ade, wps, catalog, search) is imported with the package;
the 3-fold layer (homology, threefolds) on first use of one of its names.
"""

from .ade import (
    ADEType, Basket, BoundViolation, DynkinGraph, FormSignature, SymIntForm, cartan_matrix,
    form_signature, plumbing_form, sigma_k3, smooth_k3_signature, standard_dynkin_graph,
)
from .wps import (
    CyclicQuotient, HypersurfaceFamily, NoLinkingMonomial, NotDuVal, Weights, basket,
    quasismooth, quotient_points, well_formed,
)
from .catalog import (
    CatalogRow, InvariantViolation, ParseError, embedded_catalog, load_catalog, verify_row,
)
from .search import (
    K3Family, enumerate_baskets, enumerate_k3_hypersurfaces, find_signature,
    stabilized_enumeration,
)

_LAZY = dict.fromkeys((
    "CoveringMap", "DimensionMismatch", "FormalClass", "Generator", "SpaceLabel",
    "UnknownGenerator", "fundamental_class", "l_class_surface", "product_class",
    "pushforward", "transfer"), "homology") | dict.fromkeys((
    "BsyReport", "KawamataDiagram", "NovikovDecomposition", "SurfaceModel", "bsy_check",
    "novikov_assembly", "t1_surface", "threefold_lclass"), "threefolds")


def __getattr__(name: str):  # PEP 562: called only for names not yet bound
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import threefolds  # noqa: F401  (imports homology too: the whole layer)
    globals()[name] = value = getattr(globals()[_LAZY[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
