"""Maxim registry and perfect-duty constraint compiler.

Maxims are declared input: each one is classified as either a perfect duty
(an absolute obligation, compiled into a hard feasibility constraint) or an
imperfect duty (a flexible obligation, a dimension of the extended
consumption space). The classification itself is never computed here;
whether a maxim universalizes is a moral question, not an algorithmic one.

Perfect duties compile to three constraint kinds:

* ``FORBID(good)``       -- the good's quantity must equal zero,
* ``REQUIRE_MIN(dim, c)``-- the dimension's quantity must be at least c,
* ``PRIOR_CLAIM(a)``     -- a units of the numeraire are owed before any
                            other expenditure (debts; several claims add up).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Union

from .errors import DuplicateMaxim, MalformedSpec, UnknownMaxim, UnknownReference


class DutyKind(enum.Enum):
    FORBID = "FORBID"
    REQUIRE_MIN = "REQUIRE_MIN"
    PRIOR_CLAIM = "PRIOR_CLAIM"


@dataclass(frozen=True)
class PerfectDutySpec:
    """One perfect duty: an absolute constraint on consumption or income."""

    id: str
    kind: DutyKind
    target: str | None = None   # good or duty dimension (FORBID / REQUIRE_MIN)
    level: float = 0.0          # lower bound (REQUIRE_MIN)
    amount: float = 0.0         # numeraire units owed (PRIOR_CLAIM)
    description: str = ""

    def __post_init__(self):
        path = f"maxims.{self.id}"
        for key in ("level", "amount"):
            value = getattr(self, key)
            if not math.isfinite(value) or value < 0:
                raise MalformedSpec(f"{path}.{key}",
                                    f"must be finite and non-negative, got {value}")
        if self.kind in (DutyKind.FORBID, DutyKind.REQUIRE_MIN) and not self.target:
            raise MalformedSpec(f"{path}.target", f"{self.kind.value} needs a target dimension")


@dataclass(frozen=True)
class ImperfectDutyDef:
    """One imperfect duty: a coordinate of the e-vector, fulfilled to a chosen degree."""

    id: str
    index: int
    unit: str = ""
    normalization_cap: float | None = None

    def __post_init__(self):
        path = f"maxims.{self.id}"
        if self.index < 0:
            raise MalformedSpec(f"{path}.index", f"must be non-negative, got {self.index}")
        if self.normalization_cap is not None and not self.normalization_cap > 0:
            raise MalformedSpec(f"{path}.normalization_cap",
                                f"must be strictly positive, got {self.normalization_cap}")

    def normalized(self, raw: float) -> float:
        """Map a raw fulfillment level onto the 0-1 scale (1 at or above the cap)."""
        if self.normalization_cap is None:
            return raw
        return min(raw / self.normalization_cap, 1.0)


ClassificationRecord = Union[PerfectDutySpec, ImperfectDutyDef]


@dataclass(frozen=True)
class DutyBundle:
    """A point of the base space: a named set of active perfect duties (an era).

    Two bundles compare equal when their labels and active sets agree; the id
    is an address, not part of the identity.
    """

    id: str = field(compare=False)
    label: str
    active: frozenset[str]

    def __init__(self, id: str, label: str, active):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "active", frozenset(active))


@dataclass(frozen=True)
class Constraint:
    """One compiled predicate on a single coordinate of the extended space."""

    kind: DutyKind
    target: str
    level: float = 0.0
    source: str = ""  # id of the perfect duty it came from

    def holds(self, values: Mapping[str, float]) -> bool:
        v = values[self.target]
        if self.kind is DutyKind.FORBID:
            return v == 0.0
        return v >= self.level


@dataclass(frozen=True)
class ConstraintSet:
    """Conjunction of compiled predicates plus the total prior claim on income.

    The empty set is the always-true constraint with zero prior claim.
    """

    constraints: tuple[Constraint, ...] = ()
    prior_claim_total: float = 0.0

    def feasible(self, values: Mapping[str, float]) -> bool:
        return all(c.holds(values) for c in self.constraints)

    def forbidden(self) -> frozenset[str]:
        return frozenset(c.target for c in self.constraints if c.kind is DutyKind.FORBID)

    def lower_bounds(self) -> dict[str, float]:
        bounds: dict[str, float] = {}
        for c in self.constraints:
            if c.kind is DutyKind.REQUIRE_MIN:
                bounds[c.target] = max(bounds.get(c.target, 0.0), c.level)
        return bounds


@dataclass(frozen=True)
class MaximRegistry:
    """The structured ethical system: catalogs plus the maxim partition.

    ``goods`` and ``imperfect_duties`` are the declared catalogs; an
    imperfect maxim's index is its position in the duty catalog, so indices
    form the contiguous range 0..l-1 by construction.
    """

    goods: tuple[str, ...]
    imperfect_duties: tuple[str, ...]
    entries: dict[str, ClassificationRecord]
    bundles: dict[str, DutyBundle] = field(default_factory=dict)


def load_registry(config_tree: Mapping) -> MaximRegistry:
    """Build a registry from a parsed config tree, validating every invariant.

    The ``maxims`` section may be a mapping id -> record or a list of records
    carrying an ``id`` field; the list form preserves duplicates so the
    partition property can be checked rather than silently collapsed.
    """
    goods = tuple(_string_list(config_tree, "goods"))
    duties = tuple(_string_list(config_tree, "imperfect_duties"))
    if len(set(goods)) != len(goods):
        raise MalformedSpec("goods", "duplicate good ids")
    if len(set(duties)) != len(duties):
        raise MalformedSpec("imperfect_duties", "duplicate duty ids")

    entries: dict[str, ClassificationRecord] = {}
    for maxim_id, record in _maxim_items(config_tree.get("maxims", {})):
        if maxim_id in entries:
            raise DuplicateMaxim(maxim_id)
        entries[maxim_id] = _parse_record(maxim_id, record, goods, duties)

    bundles: dict[str, DutyBundle] = {}
    section = config_tree.get("bundles", {})
    if not isinstance(section, Mapping):
        raise MalformedSpec("bundles", "expected a mapping of regime ids to bundles")
    for y_id, spec in section.items():
        path = f"bundles.{y_id}"
        if not isinstance(spec, Mapping):
            raise MalformedSpec(path, "expected a mapping with label/active")
        active = spec.get("active", [])
        if not isinstance(active, list) or not all(isinstance(a, str) for a in active):
            raise MalformedSpec(f"{path}.active", "expected a list of perfect-duty ids")
        for spec_id in active:
            rec = entries.get(spec_id)
            if rec is None or not isinstance(rec, PerfectDutySpec):
                raise UnknownReference(spec_id, path)
        bundles[y_id] = DutyBundle(id=y_id, label=str(spec.get("label", y_id)), active=active)

    return MaximRegistry(goods=goods, imperfect_duties=duties, entries=entries, bundles=bundles)


def classify(registry: MaximRegistry, maxim_id: str) -> ClassificationRecord:
    """Return the unique classification record of a maxim."""
    try:
        return registry.entries[maxim_id]
    except KeyError:
        raise UnknownMaxim(maxim_id) from None


def compile_constraints(bundle: DutyBundle, registry: MaximRegistry) -> ConstraintSet:
    """Compile a bundle's active perfect duties into executable predicates.

    Deterministic: active ids are processed in sorted order, prior claims sum.
    """
    constraints: list[Constraint] = []
    claim_total = 0.0
    for spec_id in sorted(bundle.active):
        rec = registry.entries.get(spec_id)
        if rec is None or not isinstance(rec, PerfectDutySpec):
            raise UnknownReference(spec_id, f"bundle {bundle.id!r}")
        if rec.kind is DutyKind.PRIOR_CLAIM:
            claim_total += rec.amount
        else:
            constraints.append(
                Constraint(kind=rec.kind, target=rec.target, level=rec.level, source=rec.id)
            )
    return ConstraintSet(constraints=tuple(constraints), prior_claim_total=claim_total)


def _is_number(value) -> bool:
    """A JSON number a float holds: an int or a float, not a boolean, NaN or
    infinite, nor an int beyond the largest float. The one number rule of
    the whole config, registry included."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(record: Mapping, key: str, path: str, default: float | None,
            positive: bool = False) -> float | None:
    """``record[key]`` as a float under the number rule, not below zero (nor
    at it, with ``positive``); ``default`` when absent."""
    if key not in record:
        return default
    value = record[key]
    if not _is_number(value):
        raise MalformedSpec(f"{path}.{key}", f"expected a number, got {value!r}")
    if value < 0 or (positive and value == 0):
        sign = "positive" if positive else "non-negative"
        raise MalformedSpec(f"{path}.{key}", f"expected a {sign} number, got {value!r}")
    return float(value)


def _string_list(tree: Mapping, key: str) -> list[str]:
    raw = tree.get(key, [])
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise MalformedSpec(key, "expected a list of strings")
    return raw


def _maxim_items(section) -> list[tuple[str, Mapping]]:
    if isinstance(section, Mapping):
        return [(str(k), v) for k, v in section.items()]
    if isinstance(section, list):
        items = []
        for i, record in enumerate(section):
            if not isinstance(record, Mapping) or "id" not in record:
                raise MalformedSpec(f"maxims[{i}]", "expected a record with an 'id' field")
            items.append((str(record["id"]), record))
        return items
    raise MalformedSpec("maxims", "expected a mapping or a list of records")


def _parse_record(maxim_id, record, goods, duties) -> ClassificationRecord:
    path = f"maxims.{maxim_id}"
    if not isinstance(record, Mapping):
        raise MalformedSpec(path, "expected a mapping")
    cls = record.get("class")
    if cls == "imperfect":
        if maxim_id not in duties:
            raise UnknownReference(maxim_id, f"{path} (not in the imperfect_duties catalog)")
        return ImperfectDutyDef(
            id=maxim_id,
            index=duties.index(maxim_id),
            unit=str(record.get("unit", "")),
            normalization_cap=_number(record, "normalization_cap", path, None, positive=True),
        )
    if cls == "perfect":
        kind_name = record.get("kind")
        try:
            kind = DutyKind(kind_name)
        except ValueError:
            raise MalformedSpec(f"{path}.kind", f"unknown kind {kind_name!r}") from None
        target = record.get("target")
        if kind in (DutyKind.FORBID, DutyKind.REQUIRE_MIN):
            if target is None:
                raise MalformedSpec(f"{path}.target", f"{kind.value} needs a target dimension")
            if target not in goods and target not in duties:
                raise UnknownReference(str(target), path)
        return PerfectDutySpec(
            id=maxim_id,
            kind=kind,
            target=target,
            level=_number(record, "level", path, 0.0),
            amount=_number(record, "amount", path, 0.0),
            description=str(record.get("description", "")),
        )
    raise MalformedSpec(f"{path}.class", f"must be 'perfect' or 'imperfect', got {cls!r}")
