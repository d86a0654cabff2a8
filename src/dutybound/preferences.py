"""Preference relations on finite bundle grids and their utility representations.

A relation is a boolean matrix over a grid of extended-consumption points:
``holds[a, b]`` means point a is weakly preferred to point b. The checkers
verify the rationality axioms (reflexivity, completeness, transitivity) plus
monotonicity, returning a minimal witness on failure. A complete transitive
relation on a finite grid always admits an ordinal representation by integer
ranks; ``construct_ordinal_utility`` builds it and the round trip through
``induced_relation`` is exact.

Two orderings used by the wider model also live here: the lexicographic
priority of perfect-duty compliance over ordinary satisfaction, and the
log-additive utility over goods and imperfect-duty fulfillment whose weights
order duties among themselves and against inclinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NegativeInput, NonFiniteValue, NotComplete, NotTransitive
from .reporting import CheckReport

# Guard inside logarithms at the zero boundary of the orthant; shared with
# the economy module so utilities agree across the package.
EPSILON = 1e-9

MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class ChoiceGrid:
    """A finite sample of one fiber's extended consumption space.

    ``coords`` has one row per point; all coordinates are non-negative and
    rows are unique.
    """

    coords: np.ndarray
    resolution: int = 0

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if coords.ndim != 2:
            raise ValueError("grid coordinates must be a 2-D array (points x dims)")
        if coords.shape[0] > MAX_GRID_POINTS:
            raise ValueError(f"grid has {coords.shape[0]} points, cap is {MAX_GRID_POINTS}")
        if np.any(coords < 0):
            raise NegativeInput("grid coordinates must lie in the non-negative orthant")
        if len(np.unique(coords, axis=0)) != coords.shape[0]:
            raise ValueError("grid points must be unique")

    @classmethod
    def regular(cls, upper: Sequence[float], resolution: int) -> "ChoiceGrid":
        """Evenly spaced lattice from 0 to ``upper`` with ``resolution`` points per axis."""
        axes = [np.linspace(0.0, u, resolution) for u in upper]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        return cls(coords=coords, resolution=resolution)

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    @property
    def dims(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class PreferenceRelation:
    grid: ChoiceGrid
    holds: np.ndarray  # holds[a, b] <=> a weakly preferred to b

    def __post_init__(self):
        holds = np.asarray(self.holds, dtype=bool)
        object.__setattr__(self, "holds", holds)
        n = self.grid.size
        if holds.shape != (n, n):
            raise ValueError(f"relation matrix must be {n}x{n}, got {holds.shape}")


@dataclass(frozen=True)
class OrdinalUtility:
    """Integer ranks representing a relation: rank[a] >= rank[b] iff a >= b."""

    grid: ChoiceGrid
    ranks: np.ndarray


def check_reflexive(rel: PreferenceRelation) -> CheckReport:
    diag = np.diagonal(rel.holds)
    bad = np.flatnonzero(~diag)
    if bad.size:
        i = int(bad[0])
        return CheckReport("reflexivity", False, witness=i,
                           detail=f"point {i} is not weakly preferred to itself",
                           checked=rel.grid.size)
    return CheckReport("reflexivity", True, checked=rel.grid.size)


def check_complete(rel: PreferenceRelation) -> CheckReport:
    n = rel.grid.size
    either = rel.holds | rel.holds.T
    bad = np.argwhere(~either)
    if bad.size:
        a, b = (int(x) for x in bad[0])
        return CheckReport("completeness", False, witness=(a, b),
                           detail=f"points {a} and {b} are incomparable",
                           checked=n * n)
    return CheckReport("completeness", True, checked=n * n)


def check_transitive(rel: PreferenceRelation) -> CheckReport:
    """Find a >= b >= c without a >= c, if any such triple exists.

    Vectorized: two-step reachability is the boolean matrix product; any
    reachable-but-not-direct pair yields a witness triple.
    """
    h = rel.holds
    n = rel.grid.size
    two_step = h @ h  # boolean matmul: OR over k of h[a,k] AND h[k,b]
    gaps = np.argwhere(two_step & ~h)
    if gaps.size:
        a, c = (int(x) for x in gaps[0])
        b = int(np.flatnonzero(h[a] & h[:, c])[0])
        return CheckReport("transitivity", False, witness=(a, b, c),
                           detail=f"{a} >= {b} >= {c} but not {a} >= {c}",
                           checked=n ** 3)
    return CheckReport("transitivity", True, checked=n ** 3)


def check_monotone(rel: PreferenceRelation) -> CheckReport:
    """Componentwise dominance must imply weak preference."""
    c = rel.grid.coords
    ge_all = np.all(c[:, None, :] >= c[None, :, :], axis=2)
    strict_any = np.any(c[:, None, :] > c[None, :, :], axis=2)
    dominates = ge_all & strict_any
    bad = np.argwhere(dominates & ~rel.holds)
    if bad.size:
        a, b = (int(x) for x in bad[0])
        return CheckReport("monotonicity", False, witness=(a, b),
                           detail=f"point {a} dominates {b} componentwise but is not preferred",
                           checked=rel.grid.size ** 2)
    return CheckReport("monotonicity", True, checked=rel.grid.size ** 2)


def construct_ordinal_utility(rel: PreferenceRelation) -> OrdinalUtility:
    """Rank the indifference classes of a complete transitive relation.

    Each point's score is the number of points it weakly dominates; on a
    complete transitive (hence reflexive) relation the score represents the
    relation exactly, and compressing scores to 0..K-1 gives integer ranks
    with the worst class at 0.
    """
    complete = check_complete(rel)
    if not complete.passed:
        raise NotComplete(complete.witness)
    transitive = check_transitive(rel)
    if not transitive.passed:
        raise NotTransitive(transitive.witness)

    scores = rel.holds.sum(axis=1)
    _, ranks = np.unique(scores, return_inverse=True)
    return OrdinalUtility(grid=rel.grid, ranks=ranks.astype(float))


def induced_relation(utility: Callable[[np.ndarray], float] | np.ndarray,
                     grid: ChoiceGrid) -> PreferenceRelation:
    """The relation represented by a utility: a >= b iff u(a) >= u(b).

    ``utility`` is either a callable on coordinate rows or a precomputed
    value array aligned with the grid. The result always satisfies the three
    rationality axioms.
    """
    if callable(utility):
        values = np.array([float(utility(p)) for p in grid.coords])
    else:
        values = np.asarray(utility, dtype=float)
        if values.shape != (grid.size,):
            raise ValueError("value array must align with the grid")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise NonFiniteValue(i, float(values[i]))
    return PreferenceRelation(grid=grid, holds=values[:, None] >= values[None, :])


class ComplianceProfile(NamedTuple):
    """How far an option falls short of its perfect duties, and how much
    ordinary satisfaction it yields."""

    perfect_shortfall: float
    inclination_utility: float


def lexicographic_compare(a: ComplianceProfile, b: ComplianceProfile) -> int:
    """Order compliance profiles: perfect duties first, inclinations second.

    Returns 1 if a is strictly preferred, -1 if b is, 0 on indifference.
    A smaller shortfall always wins regardless of how much utility the other
    option offers; only exact ties fall through to the utility comparison.
    """
    if not (np.isfinite(a.perfect_shortfall) and np.isfinite(b.perfect_shortfall)):
        raise NegativeInput("shortfalls must be finite")
    if a.perfect_shortfall < b.perfect_shortfall:
        return 1
    if a.perfect_shortfall > b.perfect_shortfall:
        return -1
    if a.inclination_utility > b.inclination_utility:
        return 1
    if a.inclination_utility < b.inclination_utility:
        return -1
    return 0


def axiom1_utility(x: Sequence[float], e: Sequence[float],
                   alpha: Sequence[float], beta: Sequence[float],
                   lam: float) -> float:
    """Log-additive utility over goods and imperfect-duty fulfillment.

        sum_i alpha_i ln(x_i + eps)  +  lam * sum_j beta_j ln(1 + e_j)

    The beta weights order imperfect duties among themselves, lam sets their
    weight against ordinary inclinations (lam = 0 is the pure materialist).
    Strictly increasing in every coordinate with a positive weight; the 1+e
    form gives diminishing moral returns and finite value at zero fulfillment.
    """
    x = np.asarray(x, dtype=float)
    e = np.asarray(e, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(x < 0) or np.any(e < 0):
        raise NegativeInput("bundle coordinates")
    if np.any(alpha < 0) or np.any(beta < 0) or lam < 0:
        raise NegativeInput("weights")
    goods_part = float(np.dot(alpha, np.log(x + EPSILON)))
    duty_part = float(np.dot(beta, np.log1p(e))) if e.size else 0.0
    return goods_part + lam * duty_part
