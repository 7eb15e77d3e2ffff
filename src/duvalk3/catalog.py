"""The embedded 19-row realization table and its verification harness.

The dataset lists, for every integer between -16 and 2, a weighted K3
family realizing it as a signature.  Eighteen rows are hypersurfaces whose
baskets this library recomputes from scratch; the -12 row is a
codimension-2 complete intersection whose basket is part of the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .ade import EXCEPTIONAL_CURVE_BOUND, Basket, BoundViolation, _require_ints, sigma_k3
from . import wps

_DATA_RESOURCE = "realization_table.txt"


class ParseError(ValueError):
    """A catalog line does not conform to the row grammar."""

    def __init__(self, line_no: int, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason}")


class InvariantViolation(ValueError):
    """A parsed row contradicts the K3 consistency rules."""


@dataclass(frozen=True)
class CatalogRow:
    """One realization-table entry; an inconsistent row cannot be built."""

    name: str
    weights: tuple[int, ...]
    degrees: tuple[int, ...]
    basket: Basket
    sigma: int

    @property
    def codim(self) -> int:
        return len(self.degrees)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        name = self.name  # a name that a catalog line reads back as written
        if name.splitlines() != [name] or name != name.strip() or "|" in name or name[0] == "#":
            raise InvariantViolation(f"name {name!r} must be one non-empty line with no "
                                     "'|', no leading '#' and no surrounding whitespace")
        _require_ints("weights", *self.weights)
        _require_ints("degrees", *self.degrees)
        _require_ints("sigma", self.sigma)
        if any(w < 1 for w in self.weights):
            raise InvariantViolation(f"{self.name}: weights must be positive")
        if any(d < 1 for d in self.degrees):
            raise InvariantViolation(f"{self.name}: degrees must be positive")
        if self.codim not in (1, 2):
            raise InvariantViolation(f"{self.name}: codimension must be 1 or 2")
        if len(self.weights) != len(self.degrees) + 3:
            raise InvariantViolation(
                f"{self.name}: a K3 in codimension {self.codim} needs "
                f"{self.codim + 3} weights"
            )
        if sum(self.degrees) != sum(self.weights):
            raise InvariantViolation(
                f"{self.name}: canonical triviality needs "
                "sum(degrees) = sum(weights)"
            )
        try:
            expected = sigma_k3(self.basket)
        except BoundViolation:
            raise InvariantViolation(
                f"{self.name}: basket exceeds {EXCEPTIONAL_CURVE_BOUND} curves"
            ) from None
        if self.sigma != expected:
            raise InvariantViolation(
                f"{self.name}: sigma {self.sigma} != -16 + total_d = {expected}"
            )

    def format(self, sep: str = " | ") -> str:
        return sep.join(
            (
                self.name,
                ",".join(str(w) for w in self.weights),
                ",".join(str(d) for d in self.degrees),
                self.basket.tokens(),
                str(self.sigma),
            )
        )


def _parse_ints(text: str, line_no: int, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(line_no, f"bad {what} {text!r}") from None
    return values


def load_catalog(source: str) -> list[CatalogRow]:
    """Parse catalog rows from text, enforcing per-row invariants.

    Blank lines and '#' comments are ignored; an empty source yields an
    empty catalog.
    """
    rows: list[CatalogRow] = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 5:
            raise ParseError(line_no, f"expected 5 fields, found {len(fields)}")
        name, weights_text, degrees_text, basket_text, sigma_text = fields
        weights = _parse_ints(weights_text, line_no, "weights")
        degrees = _parse_ints(degrees_text, line_no, "degrees")
        try:
            basket = Basket.parse(basket_text)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        try:
            sigma = int(sigma_text)
        except ValueError:
            raise ParseError(line_no, f"bad sigma {sigma_text!r}") from None
        rows.append(CatalogRow(name, weights, degrees, basket, sigma))
    return rows


@lru_cache(maxsize=1)
def embedded_catalog() -> tuple[CatalogRow, ...]:
    """The realization table shipped with the package."""
    text = (
        resources.files(__package__).joinpath("data", _DATA_RESOURCE).read_text("utf-8")
    )
    return tuple(load_catalog(text))


@dataclass(frozen=True)
class FieldCheck:
    """One recomputed field compared against the stored value."""

    field: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class RowVerification:
    row: CatalogRow
    checks: tuple[FieldCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def mismatches(self) -> list[FieldCheck]:
        return [c for c in self.checks if not c.ok]


def verify_row(row: CatalogRow) -> RowVerification:
    """Recompute a row and report per-field matches.

    A hypersurface row gets its well-formedness, quasismoothness and basket
    recomputed from the weights, then every row its signature from that
    basket (the stored one for codimension 2).  A basket that cannot be
    computed is reported as a mismatch; no row that can be built raises.
    """
    checks: list[FieldCheck] = []
    basket = row.basket
    try:
        if row.codim == 1:
            weights = wps.Weights(row.weights)
            family = wps.HypersurfaceFamily(weights, row.degrees[0])
            checks.append(
                FieldCheck("well_formed", "True", str(wps.well_formed(weights)))
            )
            checks.append(
                FieldCheck("quasismooth", "True", str(wps.quasismooth(family)))
            )
            basket = wps.basket(family)
            checks.append(FieldCheck("basket", row.basket.tokens(), basket.tokens()))
        checks.append(FieldCheck("sigma", str(row.sigma), str(sigma_k3(basket))))
    except ValueError as exc:
        checks.append(FieldCheck("basket", row.basket.tokens(), f"error: {exc}"))
    return RowVerification(row, tuple(checks))
