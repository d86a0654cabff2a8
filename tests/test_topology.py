"""Discrete topology, slices, and the projection map."""

import math

import numpy as np
import pytest

from dutybound.errors import BaseTooLarge
from dutybound.topology import (
    BaseSpace,
    OpenFamily,
    discrete_topology,
    projection,
    projection_continuous,
    verify_topology_axioms,
)

from oracles import oracle_family_closed, pairwise_topology_check


def base_of(m):
    return BaseSpace(points=tuple(f"y{i + 1}" for i in range(m)))


class TestDiscreteTopology:
    @pytest.mark.parametrize("m,expected", [(1, 2), (2, 4), (3, 8), (4, 16)])
    def test_power_set_size(self, m, expected):
        assert len(discrete_topology(base_of(m)).masks) == expected

    def test_m2_sets_explicit(self):
        base = base_of(2)
        subsets = {frozenset(s) for s in discrete_topology(base).subsets()}
        assert subsets == {frozenset(), frozenset({"y1"}), frozenset({"y2"}),
                           frozenset({"y1", "y2"})}

    def test_singletons_present_m4(self):
        base = base_of(4)
        fam = discrete_topology(base)
        for y in base.points:
            assert base.mask_of([y]) in fam.masks

    def test_base_too_large(self):
        with pytest.raises(BaseTooLarge):
            BaseSpace(points=tuple(f"y{i}" for i in range(17)))

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            BaseSpace(points=("y1", "y1"))


class TestVerifyAxioms:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_discrete_passes(self, m):
        base = base_of(m)
        assert verify_topology_axioms(discrete_topology(base), base).passed

    def test_indiscrete_passes(self):
        base = base_of(3)
        fam = OpenFamily.from_subsets(base, [[], list(base.points)])
        assert verify_topology_axioms(fam, base).passed

    def test_missing_union_witnessed(self):
        base = base_of(2)
        fam = OpenFamily.from_subsets(base, [[], ["y1"], ["y2"]])
        report = verify_topology_axioms(fam, base)
        assert not report.passed
        assert report.witness["missing"] == frozenset({"y1", "y2"})

    def test_missing_empty_set_witnessed(self):
        base = base_of(2)
        fam = OpenFamily.from_subsets(base, [["y1"], ["y1", "y2"]])
        report = verify_topology_axioms(fam, base)
        assert not report.passed and report.witness["missing"] == frozenset()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_verdicts_match_brute_force_oracle(self, m):
        base = base_of(m)
        rng = np.random.default_rng(17 * m)
        universe = list(range(1 << m))
        for _ in range(60):
            size = int(rng.integers(1, len(universe) + 1))
            masks = set(rng.choice(universe, size=size, replace=False).tolist())
            fam = OpenFamily(base=base, masks=frozenset(masks))
            report = verify_topology_axioms(fam, base)
            closed, _ = oracle_family_closed(masks, base.full_mask)
            assert report.passed == closed
            if not report.passed:
                missing = base.mask_of(report.witness["missing"])
                assert missing not in fam.masks


def union_closure(masks):
    closed = set(masks)
    while True:
        more = {a | b for a in closed for b in closed} - closed
        if not more:
            return closed
        closed |= more


class TestAxiomsMatchPairwiseReference:
    """The row-batched check reports what the pair-by-pair loop reports:
    verdict, witness, detail and the number of checks made."""

    @staticmethod
    def assert_same(fam, base):
        got = verify_topology_axioms(fam, base)
        want = pairwise_topology_check(fam, base)
        assert (got.passed, got.witness, got.detail, got.checked) == \
            (want.passed, want.witness, want.detail, want.checked)
        return got

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_random_families(self, m):
        base = base_of(m)
        rng = np.random.default_rng(101 + m)
        universe = 1 << m
        ops = []
        for k in range(120):
            size = int(rng.integers(1, universe + 1))
            masks = set(rng.choice(universe, size=size, replace=False).tolist())
            if k % 3:
                masks |= {0, base.full_mask}
            if k % 3 == 2:
                # closed under union, so any failure is an intersection
                # of a pair whose union is present
                masks = union_closure(masks)
            report = self.assert_same(OpenFamily(base=base, masks=frozenset(masks)), base)
            ops.append(None if report.passed else report.witness.get("op"))
        if m >= 3:
            assert {"union", "intersection"} <= set(ops)

    def test_intersection_failure_with_union_present(self):
        base = base_of(3)
        fam = OpenFamily.from_subsets(base, [[], ["y1", "y2"], ["y2", "y3"], base.points])
        report = self.assert_same(fam, base)
        assert report.witness == {"op": "intersection", "a": frozenset({"y1", "y2"}),
                                  "b": frozenset({"y2", "y3"}), "missing": frozenset({"y2"})}
        # the empty and total sets, the three pairs with the empty set, then
        # the union and the intersection of the failing pair
        assert report.checked == 2 + 2 * 3 + 2

    def test_discrete_m12_counts_every_pair(self):
        base = base_of(12)
        report = verify_topology_axioms(discrete_topology(base), base)
        assert report.passed
        assert report.checked == 2 + 2 * math.comb(4096, 2)


class TestSlicesAndProjection:
    def test_slices_disjoint_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            bundle = tuple(rng.uniform(0, 10, size=3))
            assert projection(("y1", bundle)) == "y1"
            assert projection(("y2", bundle)) == "y2"
            assert projection(("y1", bundle)) != projection(("y2", bundle))

    def test_projection_total_on_zero_bundle(self):
        assert projection(("y1", (0.0, 0.0))) == "y1"


class TestProjectionContinuity:
    def test_discrete_m3(self):
        base = base_of(3)
        report = projection_continuous(base, discrete_topology(base))
        assert report.passed and report.checked == 8

    def test_indiscrete(self):
        base = base_of(3)
        fam = OpenFamily.from_subsets(base, [[], list(base.points)])
        report = projection_continuous(base, fam)
        assert report.passed and report.checked == 2

    def test_discrete_m4_all_preimages(self):
        base = base_of(4)
        report = projection_continuous(base, discrete_topology(base))
        assert report.passed and report.checked == 16
        # every singleton slice counted: sum over subsets of their size
        assert report.extras["basis_count"] == 4 * 2 ** 3

    def test_some_singletons_open(self):
        """{a} and {b} are open, {c} is not: {a, b} splits into two slices,
        the whole space stays one block."""
        base = BaseSpace(points=("a", "b", "c"))
        fam = OpenFamily.from_subsets(base, [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]])
        assert verify_topology_axioms(fam, base).passed
        report = projection_continuous(base, fam)
        assert report.passed and report.checked == 5
        assert report.extras["basis_count"] == 1 + 1 + 2 + 1
        assert report.detail == "5 preimages checked, 5 basis elements"
