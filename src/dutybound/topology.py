"""Discrete base space, product-topology machinery, and the projection map.

The base space is the finite set of ethical regimes. It carries the discrete
topology (every subset open), so the full structure over it decomposes into
disjoint labeled slices, one economy per regime. Subsets are represented as
bitmasks over the ordered point list, which keeps power-set enumeration and
closure checking exact and fast for the m <= 16 sizes handled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BaseTooLarge, UnknownBasePoint
from .reporting import CheckReport

MAX_BASE_POINTS = 16


@dataclass(frozen=True)
class BaseSpace:
    """Ordered finite set of regime ids."""

    points: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("base-space point ids must be unique")
        if not 1 <= len(self.points) <= MAX_BASE_POINTS:
            raise BaseTooLarge(len(self.points))

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    def mask_of(self, ids: Iterable[str]) -> int:
        mask = 0
        for y_id in ids:
            try:
                mask |= 1 << self.points.index(y_id)
            except ValueError:
                raise UnknownBasePoint(y_id) from None
        return mask

    def ids_of(self, mask: int) -> frozenset[str]:
        return frozenset(p for i, p in enumerate(self.points) if mask >> i & 1)


@dataclass(frozen=True)
class OpenFamily:
    """A family of subsets of the base space, candidate collection of opens."""

    base: BaseSpace
    masks: frozenset[int]

    @classmethod
    def from_subsets(cls, base: BaseSpace, subsets: Iterable[Iterable[str]]) -> "OpenFamily":
        return cls(base=base, masks=frozenset(base.mask_of(s) for s in subsets))

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self.masks

    def subsets(self) -> list[frozenset[str]]:
        return [self.base.ids_of(m) for m in sorted(self.masks)]


@dataclass(frozen=True)
class ProductBasisElement:
    """A basis element U x V of the product topology: an open base part and an
    open box in the non-negative orthant.

    Intervals are open, except that a lower endpoint of exactly zero is closed
    (the topology of the orthant relative to the ambient space).
    """

    base_part: frozenset[str]
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.intervals:
            if not (lo >= 0 and lo < hi):
                raise ValueError(f"interval ({lo}, {hi}) must satisfy 0 <= lo < hi")

    @property
    def dims(self) -> int:
        return len(self.intervals)

    def contains(self, point: tuple[str, Sequence[float]]) -> bool:
        y_id, coords = point
        if y_id not in self.base_part or len(coords) != self.dims:
            return False
        for c, (lo, hi) in zip(coords, self.intervals):
            at_lo = c >= lo if lo == 0.0 else c > lo
            if not (at_lo and c < hi):
                return False
        return True

    def sample(self, rng) -> tuple[str, tuple[float, ...]]:
        """Draw a random point of this basis element (requires finite boxes)."""
        y_id = sorted(self.base_part)[rng.integers(len(self.base_part))]
        coords = []
        for lo, hi in self.intervals:
            if not math.isfinite(hi):
                raise ValueError("cannot sample from an unbounded interval")
            coords.append(lo + (hi - lo) * rng.uniform(1e-12, 1.0))
        return (y_id, tuple(coords))


def discrete_topology(base: BaseSpace) -> OpenFamily:
    """The full power set: the finest topology, 2^m sets."""
    if base.m > MAX_BASE_POINTS:
        raise BaseTooLarge(base.m)
    return OpenFamily(base=base, masks=frozenset(range(1 << base.m)))


def verify_topology_axioms(family: OpenFamily, base: BaseSpace) -> CheckReport:
    """Check the open-set axioms on a finite family.

    Membership of the empty and total sets, then closure under pairwise union
    and pairwise intersection. Pairwise closure suffices for finite families
    (any finite union/intersection is a fold of pairwise ones), which is the
    honest scope of the check for enumerated bases. Failures are reported
    with the witnessing pair, never raised.
    """
    checked = 0

    checked += 1
    if 0 not in family.masks:
        return CheckReport("topology-axioms", False, witness={"missing": frozenset()},
                           detail="empty set is not a member", checked=checked)
    checked += 1
    if base.full_mask not in family.masks:
        return CheckReport("topology-axioms", False, witness={"missing": base.ids_of(base.full_mask)},
                           detail="total set is not a member", checked=checked)

    # pairs (a, b) in itertools.combinations order, one row of b per a,
    # looked up in a membership table over every mask
    ordered = np.array(sorted(family.masks), dtype=np.int64)
    member = np.zeros(1 << base.m, dtype=bool)
    member[ordered] = True
    for i, a in enumerate(ordered[:-1].tolist()):
        later = ordered[i + 1:]
        has_union = member[a | later]
        has_inter = member[a & later]
        if has_union.all() and has_inter.all():
            checked += 2 * len(later)
            continue
        j = int(np.argmin(has_union & has_inter))
        b = int(later[j])
        op, missing = ("union", a | b) if not has_union[j] else ("intersection", a & b)
        checked += 2 * j + (1 if op == "union" else 2)
        return CheckReport(
            "topology-axioms", False,
            witness={"op": op, "a": base.ids_of(a), "b": base.ids_of(b),
                     "missing": base.ids_of(missing)},
            detail=f"{op} of {set(base.ids_of(a))} and {set(base.ids_of(b))} missing",
            checked=checked)

    return CheckReport("topology-axioms", True, checked=checked,
                       detail=f"{len(family)} sets closed under union and intersection")


def projection(point: tuple[str, object]) -> str:
    """Send (regime, bundle) to its regime. Total; never fails."""
    return point[0]


def preimage_basis(base: BaseSpace, mask: int, fiber_dims: int,
                   family: OpenFamily | None = None) -> list[ProductBasisElement]:
    """Decompose the projection preimage U x D of an open U into basis elements.

    When every singleton of U is open in the family the decomposition is into
    singleton slices {y} x D (the canonical layered form); otherwise the
    preimage is the single block U x D.
    """
    if mask == 0:
        return []
    box = tuple((0.0, math.inf) for _ in range(fiber_dims))
    ids = base.ids_of(mask)
    singles = [base.mask_of([y]) for y in sorted(ids)]
    if family is not None and all(s in family.masks for s in singles):
        return [ProductBasisElement(base_part=frozenset([y]), intervals=box) for y in sorted(ids)]
    return [ProductBasisElement(base_part=ids, intervals=box)]


def projection_continuous(base: BaseSpace, family: OpenFamily, fiber_dims: int) -> CheckReport:
    """Certify that every preimage under the projection is open in the product.

    For each open U the preimage is U x D; it is exhibited as a union of
    basis elements (U itself is open in the family, the whole fiber is an
    open box). Reports the number of preimages checked and the total basis
    decomposition count.
    """
    basis_count = 0
    for mask in sorted(family.masks):
        parts = preimage_basis(base, mask, fiber_dims, family)
        basis_count += len(parts)
        for part in parts:
            if not part.base_part <= base.ids_of(mask):
                return CheckReport("projection-continuity", False,
                                   witness={"open": base.ids_of(mask)},
                                   detail="decomposition escapes the preimage",
                                   checked=len(family.masks))
    return CheckReport(
        "projection-continuity", True, checked=len(family.masks),
        detail=f"{len(family.masks)} preimages checked, {basis_count} basis elements",
        extras={"basis_count": basis_count},
    )
