"""Discrete base space, its open-set checks, and the projection map.

The base space is the finite set of ethical regimes. It carries the discrete
topology (every subset open), so the full structure over it decomposes into
disjoint labeled slices, one economy per regime. Subsets are represented as
bitmasks over the ordered point list, which keeps power-set enumeration and
closure checking exact and fast for the m <= 16 sizes handled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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

    def subsets(self) -> list[frozenset[str]]:
        return [self.base.ids_of(m) for m in sorted(self.masks)]


def discrete_topology(base: BaseSpace) -> OpenFamily:
    """The full power set: the finest topology, 2^m sets."""
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


def projection_continuous(base: BaseSpace, family: OpenFamily) -> CheckReport:
    """Report the projection (regime, bundle) -> regime as continuous.

    It always is: the preimage of an open U is U x D, and U x D is itself a
    basis element of the product topology, so the report always passes.
    ``checked`` is the number of open sets. ``basis_count`` counts each
    non-empty U once per point when every singleton of U is open (the
    canonical layered form, one slice {y} x D per regime), else once.
    """
    open_points = sum(1 << i for i in range(base.m) if 1 << i in family.masks)
    basis_count = sum(mask.bit_count() if mask & ~open_points == 0 else 1
                      for mask in family.masks if mask)
    return CheckReport(
        "projection-continuity", True, checked=len(family.masks),
        detail=f"{len(family.masks)} preimages checked, {basis_count} basis elements",
        extras={"basis_count": basis_count},
    )
