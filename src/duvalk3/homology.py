"""A formal graded homology-class calculus over exact rationals.

Classes are rational linear combinations of named generators attached to a
labeled space.  Coefficients and scale factors are ints or Fractions; any
other number is refused, never converted.  Covering maps have an int degree
and explicit pushforward and transfer tables; products, pushforwards and
transfers are their bilinear/linear extensions.  Nothing is computed from
chain complexes: the generators and their images are declared per scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .ade import _require_ints

Scalar = Union[int, Fraction]


class DimensionMismatch(ValueError):
    """A class or generator does not fit the dimension of its space."""


class UnknownGenerator(KeyError):
    """A covering map table has no entry for a generator."""


@dataclass(frozen=True)
class SpaceLabel:
    """A named space of even real dimension."""

    name: str
    dim: int

    def __post_init__(self) -> None:
        _require_ints("space dimension", self.dim)
        if self.dim < 0 or self.dim % 2:
            raise ValueError(f"space dimension must be even >= 0, got {self.dim}")


@dataclass(frozen=True)
class Generator:
    """A named homology generator of even degree on a space."""

    label: str
    degree: int
    space: SpaceLabel

    def __post_init__(self) -> None:
        _require_ints("degree", self.degree)
        if self.degree < 0 or self.degree % 2:
            raise ValueError(f"degree must be even >= 0, got {self.degree}")
        if self.degree > self.space.dim:
            raise DimensionMismatch(
                f"degree {self.degree} exceeds dim of {self.space.name}"
            )


class FormalClass:
    """A rational linear combination of generators on one common space.

    Instances are immutable values: arithmetic returns new objects, zero
    coefficients are never stored, the constructor takes ints and Fractions
    only and stores integral ones as int, and equality is exact and term-wise.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Generator, Scalar] = {}) -> None:
        clean: dict[Generator, Scalar] = {}
        space = None
        for gen, c in terms.items():
            if type(c) is not int:
                if type(c) is not Fraction:
                    raise ValueError(f"coefficient of {gen.label} must be an int "
                                     f"or a Fraction, got {c!r}")
                c = c.numerator if c.denominator == 1 else c
            if not c:
                continue
            if space is None:
                space = gen.space
            elif gen.space != space:
                raise ValueError(
                    f"mixed spaces {space.name} and {gen.space.name} in one class"
                )
            clean[gen] = c
        object.__setattr__(self, "_terms", clean)

    @property
    def space(self) -> SpaceLabel | None:
        """The common space, or None for the zero class."""
        for gen in self._terms:
            return gen.space
        return None

    def coefficient(self, gen: Generator) -> Scalar:
        return self._terms.get(gen, 0)

    def items(self) -> list[tuple[Generator, Scalar]]:
        """Terms in deterministic (degree, label) order, for printing and tests."""
        return sorted(self._terms.items(), key=lambda t: (t[0].degree, t[0].label))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "FormalClass") -> "FormalClass":
        acc = dict(self._terms)
        for g, c in other._terms.items():
            acc[g] = acc.get(g, 0) + c
        return FormalClass(acc)

    def scale(self, factor: Scalar) -> "FormalClass":
        if type(factor) not in (int, Fraction):
            raise ValueError(f"scale factor must be an int or a Fraction, got {factor!r}")
        return FormalClass({g: factor * c for g, c in self._terms.items()})

    __rmul__ = scale

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalClass):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for gen, coeff in self.items():
            if coeff == 1:
                parts.append(gen.label)
            elif coeff == -1:
                parts.append(f"-{gen.label}")
            else:
                parts.append(f"{coeff}·{gen.label}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"FormalClass({self})"


def fundamental_class(space: SpaceLabel) -> FormalClass:
    """The class 1·[space] in top degree."""
    return FormalClass({Generator(f"[{space.name}]", space.dim, space): 1})


def l_class_surface(sigma: Scalar, surface: SpaceLabel) -> FormalClass:
    """The L-class sigma·[pt] + [F] of a 4-dimensional rational homology
    manifold with signature sigma."""
    if surface.dim != 4:
        raise DimensionMismatch(
            f"l_class_surface needs a 4-dimensional space, got dim {surface.dim}"
        )
    return FormalClass(
        {
            Generator("pt", 0, surface): sigma,
            Generator(f"[{surface.name}]", 4, surface): 1,
        }
    )


def product_space(a: SpaceLabel, b: SpaceLabel) -> SpaceLabel:
    return SpaceLabel(f"{a.name}×{b.name}", a.dim + b.dim)


def product_generator(g: Generator, h: Generator) -> Generator:
    return Generator(
        f"{g.label}×{h.label}",
        g.degree + h.degree,
        product_space(g.space, h.space),
    )


def product_class(cf: FormalClass, ce: FormalClass) -> FormalClass:
    """Bilinear exterior product; degrees add, labels concatenate."""
    acc: dict[Generator, Scalar] = {}
    for g, cg in cf._terms.items():
        for h, ch in ce._terms.items():
            gen = product_generator(g, h)
            acc[gen] = acc.get(gen, 0) + cg * ch
    return FormalClass(acc)


@dataclass(frozen=True, eq=False)
class CoveringMap:
    """A finite covering with declared pushforward and transfer tables.

    The tables must compose correctly: pushing forward the transfer of any
    tabulated generator multiplies it by the covering degree.  This is
    checked at construction.
    """

    source: SpaceLabel
    target: SpaceLabel
    degree: int
    pushforward_table: Mapping[Generator, FormalClass]
    transfer_table: Mapping[Generator, FormalClass]

    def __post_init__(self) -> None:
        _require_ints("covering degree", self.degree)
        if self.degree < 1:
            raise ValueError(f"covering degree must be >= 1, got {self.degree}")
        if self.source.dim != self.target.dim:
            raise DimensionMismatch("a covering map preserves dimension")
        for gen, image in self.pushforward_table.items():
            self._check_entry(gen, image, self.source, self.target)
        for gen, image in self.transfer_table.items():
            self._check_entry(gen, image, self.target, self.source)
            if pushforward(self, image) != self.degree * FormalClass({gen: 1}):
                raise ValueError(
                    f"transfer table violates p_* p_! = {self.degree}·id at {gen.label}"
                )

    @staticmethod
    def _check_entry(
        gen: Generator, image: FormalClass, dom: SpaceLabel, cod: SpaceLabel
    ) -> None:
        if gen.space != dom:
            raise ValueError(f"table key {gen.label} not on {dom.name}")
        if not image.is_zero and image.space != cod:
            raise ValueError(f"table image of {gen.label} not on {cod.name}")
        for g in image._terms:
            if g.degree != gen.degree:
                raise DimensionMismatch(
                    f"table image of {gen.label} is not degree-preserving"
                )


def _apply_table(
    table: Mapping[Generator, FormalClass], c: FormalClass, what: str
) -> FormalClass:
    acc: dict[Generator, Scalar] = {}
    for gen, coeff in c._terms.items():
        image = table.get(gen)
        if image is None:
            raise UnknownGenerator(f"no {what} entry for {gen.label}")
        for g, v in image._terms.items():
            acc[g] = acc.get(g, 0) + coeff * v
    return FormalClass(acc)


def pushforward(p: CoveringMap, c: FormalClass) -> FormalClass:
    """Linear extension of the pushforward table."""
    if not c.is_zero and c.space != p.source:
        raise ValueError(f"class lives on {c.space.name}, not on {p.source.name}")
    return _apply_table(p.pushforward_table, c, "pushforward")


def transfer(p: CoveringMap, c: FormalClass) -> FormalClass:
    """Linear extension of the transfer table (the wrong-way map)."""
    if not c.is_zero and c.space != p.target:
        raise ValueError(f"class lives on {c.space.name}, not on {p.target.name}")
    return _apply_table(p.transfer_table, c, "transfer")

