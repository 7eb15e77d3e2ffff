"""Novikov bookkeeping and the 3-fold L-class check.

A 3-fold covered by F x E (F a du Val surface with trivial canonical
class, a curve or a point; E a torus) has its class pushed down along a
Hodge and a topological route, which differ only in the fiber class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

# the K3 surface facts live in ade; threefolds re-exports them
from .ade import (
    EXCEPTIONAL_CURVE_BOUND, K3_H11, K3_H20, ADEType, Basket, BoundViolation,
    _check_curve_bound, _require_ints, form_signature, plumbing_form, sigma_k3,
    signature_from_hodge, smooth_k3_signature, standard_dynkin_graph,
)
from .homology import (
    CoveringMap,
    FormalClass,
    Generator,
    SpaceLabel,
    _apply_table,
    fundamental_class,
    l_class_surface,
    product_class,
    product_generator,
    product_space,
    pushforward,
)


@dataclass(frozen=True)
class SurfaceModel:
    """A normal projective surface with trivial canonical class."""

    basket: Basket = Basket()
    q: int = 0
    sigma: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # rejects a bad q or basket at construction
        object.__setattr__(self, "sigma", sigma_k3(self.basket, self.q))


@dataclass(frozen=True)
class KawamataDiagram:
    """A 3-fold X split by a finite cover F x E -> X over its Albanese torus.

    q is the irregularity of X; the fiber is a surface for q = 1, a curve
    for q = 2 and a point for q = 3 (the latter two carry no data).
    """

    q: int
    cover_degree: int
    fiber: SurfaceModel | None = None

    def __post_init__(self) -> None:
        _require_ints("q and cover degree", self.q, self.cover_degree)
        if self.q not in (1, 2, 3):
            raise ValueError(f"3-fold irregularity must be 1, 2 or 3, got {self.q}")
        if self.cover_degree < 1:
            raise ValueError(f"cover degree must be >= 1, got {self.cover_degree}")
        if self.q == 1 and self.fiber is None:
            raise ValueError("q = 1 requires a surface fiber")
        if self.q > 1 and self.fiber is not None:
            raise ValueError(f"q = {self.q} has a {self.fiber_kind} fiber, not a surface")

    @property
    def fiber_kind(self) -> str:
        return {1: "surface", 2: "curve", 3: "point"}[self.q]


class NovikovDecomposition(NamedTuple):
    """Signature bookkeeping for the crepant resolution of a K3 surface.

    Tube and complement signatures add up to the smooth K3 signature;
    coning off the boundary links adds suspensions of signature 0, so the
    singular surface keeps the complement's signature.
    """

    tube_signatures: tuple[int, ...]
    sigma_complement: int

    @property
    def sigma_surface(self) -> int:
        """Signature of the singular surface: the complement's (cones add 0)."""
        return self.sigma_complement


_SMOOTH_K3 = smooth_k3_signature()


@lru_cache(maxsize=None)  # bounded: ADEType admits 128 types under RANK_CAP
def _tube_signature(t: ADEType) -> int:
    """Exact signature of the plumbing form of a tube of type t."""
    return form_signature(plumbing_form(standard_dynkin_graph(t))).sigma


def novikov_assembly(b: Basket) -> NovikovDecomposition:
    """Decompose the K3 resolution signature along a basket.

    Each tube signature is the exact signature of its plumbing form, the
    intersection form of the tube (the negated Cartan matrix of its type),
    computed once per ADE type per process and never read off the rank.
    """
    _check_curve_bound(b.total_d)
    tubes = tuple(map(_tube_signature, b.entries))
    return NovikovDecomposition(tubes, _SMOOTH_K3 - sum(tubes))


# the K3 surface F, X and the two generators of X's classes, built once
_SURFACE = SpaceLabel("F", 4)
_X_SPACE = SpaceLabel("X", 6)
_FUND_X = Generator("[X]", 6, _X_SPACE)
_PUSHED_PT = Generator("p_*[pt_F×E]", 2, _X_SPACE)


@lru_cache(maxsize=None)  # bounded: ADEType admits 128 types under RANK_CAP
def _tree_edges(t: ADEType) -> int:
    return len(standard_dynkin_graph(t).edges)  # the tree's double points


def t1_surface(basket: Basket) -> FormalClass:
    """Hodge L-class of a du Val K3 surface with m = len(basket) singular points.

    Replays the scissor computation by additivity: the resolution and the m
    points give (m - 16)[pt] + [F], and each exceptional tree E_t takes away
    χ_1(E_t)[pt].  As χ_1(P¹) = 0 and each double point counts χ_1(pt) = 1,
    χ_1(E_t) is minus the edges of its Dynkin graph (`standard_dynkin_graph`,
    not the rank).  The result must equal the topological sigma·[pt] + [F].
    """
    curves = len(basket) + sum(map(_tree_edges, basket))
    sigma = smooth_k3_signature() + _check_curve_bound(curves)
    return l_class_surface(sigma, _SURFACE)


def kawamata_cover(q: int, degree: int) -> tuple[SpaceLabel, SpaceLabel, CoveringMap]:
    """Spaces F, E and the covering map p: F x E -> X of a 3-fold with q(X) = q.

    F is the fiber, of dimension 6 - 2q; E is the torus of dimension 2q
    covering the q-dimensional Albanese variety.  Pushforward sends the
    product fundamental class to degree·[X] and, for a surface fiber, the
    point-times-torus class to the named generator p_*[pt_F×E]; the
    transfer table is the unique one compatible with p_* p_! = degree.
    Not cached: `_fiber_fold` is the one per-cover cache.
    """
    f_space = SpaceLabel("F", 6 - 2 * q)
    e_space = SpaceLabel("E", 2 * q)
    fund_e = Generator("[E]", e_space.dim, e_space)
    fund_fe = product_generator(Generator("[F]", f_space.dim, f_space), fund_e)

    push = {fund_fe: FormalClass({_FUND_X: degree})}
    pull = {_FUND_X: FormalClass({fund_fe: 1})}
    if q == 1:
        pt_e = product_generator(Generator("pt", 0, f_space), fund_e)
        push[pt_e] = FormalClass({_PUSHED_PT: 1})
        pull[_PUSHED_PT] = FormalClass({pt_e: degree})

    return f_space, e_space, CoveringMap(
        source=product_space(f_space, e_space),
        target=_X_SPACE,
        degree=degree,
        pushforward_table=push,
        transfer_table=pull,
    )


def threefold_lclass(k: KawamataDiagram) -> FormalClass:
    """L-class of the covered 3-fold.

    For q = 1 this is sigma(F)/degree times the pushed-down point-times-
    torus class plus [X]; for q = 2, 3 only the fundamental class remains.
    """
    if k.q != 1:
        return FormalClass({_FUND_X: 1})
    return FormalClass({_PUSHED_PT: Fraction(k.fiber.sigma, k.cover_degree), _FUND_X: 1})


@dataclass(frozen=True, eq=False)
class BsyReport:
    """Both derivations of the 3-fold class and their comparison."""

    diagram: KawamataDiagram
    fiber_sigma: int
    hodge_route: FormalClass
    topological_route: FormalClass
    expected: FormalClass

    @property
    def passed(self) -> bool:
        return self.hodge_route == self.topological_route == self.expected

    def lines(self) -> list[str]:
        k = self.diagram
        fiber = k.fiber_kind
        if k.q == 1:
            fiber += f" with basket {k.fiber.basket.tokens()}, q(F)={k.fiber.q}"
        return [
            f"q(X) = {k.q}, cover degree {k.cover_degree}, fiber: {fiber}",
            f"sigma(fiber) = {self.fiber_sigma}",
            f"Hodge route:       T(X) = {self.hodge_route}",
            f"topological route: L(X) = {self.topological_route}",
            f"verdict: {'PASS' if self.passed else 'FAIL'}",
        ]


@lru_cache(maxsize=64)  # degrees 1..12 give 36 (q, degree) pairs
def _fiber_fold(q: int, degree: int) -> tuple[SpaceLabel, dict[Generator, FormalClass]]:
    """F and its fiber map c -> p_*(c × [E]) / degree, from the cover's tables."""
    f_space, e_space, cover = kawamata_cover(q, degree)
    torus = fundamental_class(e_space)  # smooth, signature 0 in every dimension
    basis = l_class_surface(1, f_space) if q == 1 else fundamental_class(f_space)
    scale = Fraction(1, degree)
    return f_space, {
        g: pushforward(cover, product_class(FormalClass({g: 1}), torus)).scale(scale)
        for g, _ in basis.items()
    }


def bsy_check(k: KawamataDiagram) -> BsyReport:
    """Derive the 3-fold class along the Hodge and topological routes.

    Each route is one fiber map per cover (`_fiber_fold`, derived from the
    cover's tables): times [E], pushed forward, divided by the degree.  The
    routes differ only in the fiber class.  Topological: the L-class of F.
    Hodge: for a singular (q(F) = 0) surface, the class rebuilt from the
    scissor computation; any other fiber is nonsingular with signature 0.
    Both must equal the closed-form class term for term.
    """
    f_space, fold = _fiber_fold(k.q, k.cover_degree)
    fiber = k.fiber
    surface = fiber is not None
    sigma_f = fiber.sigma if surface else 0
    l_fiber = l_class_surface(sigma_f, f_space) if surface else fundamental_class(f_space)
    singular = surface and fiber.q == 0
    t_fiber = t1_surface(fiber.basket) if singular else fundamental_class(f_space)
    hodge, topological = (_apply_table(fold, c, "fiber") for c in (t_fiber, l_fiber))
    return BsyReport(
        diagram=k,
        fiber_sigma=sigma_f,
        hodge_route=hodge,
        topological_route=topological,
        expected=threefold_lclass(k),
    )
