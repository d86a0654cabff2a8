"""Maxim registry, classification, and constraint compilation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutybound.duty import (
    DutyBundle,
    DutyKind,
    ImperfectDutyDef,
    PerfectDutySpec,
    classify,
    compile_constraints,
    load_registry,
)
from dutybound.errors import DuplicateMaxim, MalformedSpec, UnknownMaxim, UnknownReference


def charity_registry():
    return load_registry({
        "goods": ["consumption"],
        "imperfect_duties": ["charitable_giving"],
        "maxims": {
            "repay_debt": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 500.0},
            "charitable_giving": {"class": "imperfect", "unit": "currency"},
        },
        "bundles": {"y1": {"label": "indebted giver", "active": ["repay_debt"]}},
    })


def slave_goods_registry():
    return load_registry({
        "goods": ["grain", "slave_sugar"],
        "imperfect_duties": [],
        "maxims": {
            "no_slave_sugar": {"class": "perfect", "kind": "FORBID", "target": "slave_sugar"},
        },
        "bundles": {
            "free": {"label": "no constraint", "active": []},
            "ban": {"label": "prohibition", "active": ["no_slave_sugar"]},
        },
    })


class TestLoadRegistry:
    def test_charity_registry_valid(self):
        reg = charity_registry()
        assert isinstance(reg.entries["repay_debt"], PerfectDutySpec)
        assert reg.entries["repay_debt"].amount == 500.0
        assert isinstance(reg.entries["charitable_giving"], ImperfectDutyDef)
        assert reg.entries["charitable_giving"].index == 0

    def test_duplicate_maxim_rejected(self):
        with pytest.raises(DuplicateMaxim):
            load_registry({
                "goods": ["g"],
                "imperfect_duties": ["help"],
                "maxims": [
                    {"id": "help", "class": "imperfect"},
                    {"id": "help", "class": "perfect", "kind": "PRIOR_CLAIM", "amount": 1},
                ],
                "bundles": {},
            })

    def test_forbid_on_declared_good_valid(self):
        reg = slave_goods_registry()
        spec = reg.entries["no_slave_sugar"]
        assert spec.kind is DutyKind.FORBID and spec.target == "slave_sugar"

    def test_unknown_target_rejected(self):
        with pytest.raises(UnknownReference):
            load_registry({
                "goods": ["g"],
                "imperfect_duties": [],
                "maxims": {"ban": {"class": "perfect", "kind": "FORBID", "target": "ghost"}},
                "bundles": {},
            })

    def test_malformed_entries_name_their_path(self):
        with pytest.raises(MalformedSpec) as err:
            load_registry({
                "goods": ["g"],
                "imperfect_duties": [],
                "maxims": {"odd": {"class": "perfect", "kind": "NO_SUCH_KIND"}},
                "bundles": {},
            })
        assert "maxims.odd" in err.value.path

    def test_negative_amount_rejected(self):
        with pytest.raises(MalformedSpec):
            load_registry({
                "goods": ["g"],
                "imperfect_duties": [],
                "maxims": {"m": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": -5}},
                "bundles": {},
            })

    def test_bundle_referencing_imperfect_maxim_rejected(self):
        with pytest.raises(UnknownReference):
            load_registry({
                "goods": ["g"],
                "imperfect_duties": ["help"],
                "maxims": {"help": {"class": "imperfect"}},
                "bundles": {"y": {"label": "bad", "active": ["help"]}},
            })

    def test_partition_every_maxim_exactly_one_class(self):
        reg = charity_registry()
        for maxim_id in reg.entries:
            record = classify(reg, maxim_id)
            assert isinstance(record, (PerfectDutySpec, ImperfectDutyDef))
            assert isinstance(record, PerfectDutySpec) != isinstance(record, ImperfectDutyDef)

    def test_normalization_cap_maps_to_unit_scale(self):
        reg = load_registry({
            "goods": ["g"],
            "imperfect_duties": ["hours"],
            "maxims": {"hours": {"class": "imperfect", "unit": "hours",
                                 "normalization_cap": 4.0}},
            "bundles": {},
        })
        duty = reg.entries["hours"]
        assert duty.normalized(0.0) == 0.0
        assert duty.normalized(2.0) == 0.5
        assert duty.normalized(9.0) == 1.0  # saturates at the cap

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(MalformedSpec):
            load_registry({
                "goods": ["g"],
                "imperfect_duties": ["hours"],
                "maxims": {"hours": {"class": "imperfect", "normalization_cap": 0.0}},
                "bundles": {},
            })

    @pytest.mark.parametrize("maxim_id,record,key", [
        ("floor", {"class": "perfect", "kind": "REQUIRE_MIN", "target": "hours",
                   "level": True}, "level"),
        ("floor", {"class": "perfect", "kind": "REQUIRE_MIN", "target": "hours",
                   "level": "0.5"}, "level"),
        ("debt", {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": "3"}, "amount"),
        ("debt", {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 10 ** 400}, "amount"),
        ("hours", {"class": "imperfect", "normalization_cap": False}, "normalization_cap"),
        ("hours", {"class": "imperfect", "normalization_cap": "2"}, "normalization_cap"),
    ], ids=["level-true", "level-text", "amount-text", "amount-beyond-float",
            "cap-false", "cap-text"])
    def test_a_registry_number_that_is_not_a_number_is_named(self, maxim_id, record, key):
        """A boolean, a numeric string or an int no float holds is not read
        as a number; the error names the maxim's key."""
        with pytest.raises(MalformedSpec) as err:
            load_registry({
                "goods": ["g"],
                "imperfect_duties": ["hours"],
                "maxims": {maxim_id: record},
                "bundles": {},
            })
        assert err.value.path == f"maxims.{maxim_id}.{key}"
        assert f"maxims.{maxim_id}.{key}" in str(err.value)

    @pytest.mark.parametrize("maxim_id,record,key", [
        ("floor", {"class": "perfect", "kind": "REQUIRE_MIN", "target": "hours",
                   "level": -1}, "level"),
        ("debt", {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": -0.5}, "amount"),
        ("hours", {"class": "imperfect", "normalization_cap": 0.0}, "normalization_cap"),
    ], ids=["level-negative", "amount-negative", "cap-zero"])
    def test_a_registry_number_out_of_range_is_named(self, maxim_id, record, key):
        """A number below its range is reported at the maxim's key, as a
        number that is not one is."""
        with pytest.raises(MalformedSpec) as err:
            load_registry({
                "goods": ["g"],
                "imperfect_duties": ["hours"],
                "maxims": {maxim_id: record},
                "bundles": {},
            })
        assert err.value.path == f"maxims.{maxim_id}.{key}"

    @pytest.mark.parametrize("make,path", [
        (lambda: PerfectDutySpec(id="floor", kind=DutyKind.REQUIRE_MIN, target="d",
                                 level=float("nan")), "maxims.floor.level"),
        (lambda: PerfectDutySpec(id="floor", kind=DutyKind.REQUIRE_MIN, target="d",
                                 level=-1.0), "maxims.floor.level"),
        (lambda: PerfectDutySpec(id="debt", kind=DutyKind.PRIOR_CLAIM,
                                 amount=float("inf")), "maxims.debt.amount"),
        (lambda: PerfectDutySpec(id="ban", kind=DutyKind.FORBID), "maxims.ban.target"),
        (lambda: ImperfectDutyDef(id="hours", index=-1), "maxims.hours.index"),
        (lambda: ImperfectDutyDef(id="hours", index=0, normalization_cap=float("nan")),
         "maxims.hours.normalization_cap"),
    ], ids=["level-nan", "level-negative", "amount-inf", "target-missing", "index-negative",
            "cap-nan"])
    def test_a_record_built_in_code_names_its_key(self, make, path):
        """A record built without the registry reports its bad field at
        ``maxims.<id>.<key>``, as a config error does."""
        with pytest.raises(MalformedSpec) as err:
            make()
        assert err.value.path == path
        assert f"malformed entry at {path}: " in str(err.value)

    def test_imperfect_indices_contiguous(self):
        reg = load_registry({
            "goods": ["g"],
            "imperfect_duties": ["a", "b", "c"],
            "maxims": {
                "a": {"class": "imperfect"},
                "b": {"class": "imperfect"},
                "c": {"class": "imperfect"},
            },
            "bundles": {},
        })
        indices = sorted(reg.entries[d].index for d in "abc")
        assert indices == [0, 1, 2]


class TestClassify:
    def test_perfect(self):
        reg = charity_registry()
        rec = classify(reg, "repay_debt")
        assert rec.kind is DutyKind.PRIOR_CLAIM and rec.amount == 500.0

    def test_imperfect(self):
        rec = classify(charity_registry(), "charitable_giving")
        assert rec.index == 0

    def test_missing(self):
        with pytest.raises(UnknownMaxim):
            classify(charity_registry(), "missing")


class TestCompileConstraints:
    def test_forbid_compiles_to_zero_predicate(self):
        reg = slave_goods_registry()
        cs = compile_constraints(reg.bundles["ban"], reg)
        assert len(cs.constraints) == 1
        assert cs.feasible({"grain": 1.0, "slave_sugar": 0.0})
        assert not cs.feasible({"grain": 1.0, "slave_sugar": 0.1})

    def test_empty_bundle_always_true(self):
        reg = slave_goods_registry()
        cs = compile_constraints(reg.bundles["free"], reg)
        assert cs.constraints == () and cs.prior_claim_total == 0.0
        assert cs.feasible({"grain": 3.0, "slave_sugar": 9.0})

    def test_prior_claims_sum(self):
        reg = load_registry({
            "goods": ["g"],
            "imperfect_duties": [],
            "maxims": {
                "debt_a": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 500},
                "debt_b": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 300},
            },
            "bundles": {"y": {"label": "debts", "active": ["debt_a", "debt_b"]}},
        })
        cs = compile_constraints(reg.bundles["y"], reg)
        assert cs.prior_claim_total == 800.0

    def test_require_min_lower_bound(self):
        reg = load_registry({
            "goods": ["g"],
            "imperfect_duties": ["rights"],
            "maxims": {
                "rights": {"class": "imperfect"},
                "min_rights": {"class": "perfect", "kind": "REQUIRE_MIN",
                               "target": "rights", "level": 0.25},
            },
            "bundles": {"y": {"label": "min", "active": ["min_rights"]}},
        })
        cs = compile_constraints(reg.bundles["y"], reg)
        assert cs.feasible({"g": 0.0, "rights": 0.25})
        assert not cs.feasible({"g": 0.0, "rights": 0.2})
        assert cs.lower_bounds() == {"rights": 0.25}

    def test_unknown_active_id(self):
        reg = slave_goods_registry()
        bad = DutyBundle(id="x", label="x", active=["nonexistent"])
        with pytest.raises(UnknownReference):
            compile_constraints(bad, reg)


def _shrinkage_registry():
    return load_registry({
        "goods": ["g1", "g2"],
        "imperfect_duties": ["d1"],
        "maxims": {
            "d1": {"class": "imperfect"},
            "ban_g2": {"class": "perfect", "kind": "FORBID", "target": "g2"},
            "min_d1": {"class": "perfect", "kind": "REQUIRE_MIN", "target": "d1", "level": 0.5},
            "min_g1": {"class": "perfect", "kind": "REQUIRE_MIN", "target": "g1", "level": 1.0},
        },
        "bundles": {},
    })


PERFECT_IDS = ["ban_g2", "min_d1", "min_g1"]


@settings(max_examples=200, deadline=None)
@given(
    small=st.sets(st.sampled_from(PERFECT_IDS)),
    extra=st.sets(st.sampled_from(PERFECT_IDS)),
    point=st.tuples(st.floats(0, 3), st.floats(0, 3), st.floats(0, 3)),
)
def test_monotone_shrinkage(small, extra, point):
    """Feasible under a larger duty set implies feasible under any subset."""
    reg = _shrinkage_registry()
    sub = DutyBundle(id="a", label="a", active=small)
    sup = DutyBundle(id="b", label="b", active=small | extra)
    values = dict(zip(["g1", "g2", "d1"], point))
    if compile_constraints(sup, reg).feasible(values):
        assert compile_constraints(sub, reg).feasible(values)


def test_compile_deterministic_across_equal_bundles():
    reg = _shrinkage_registry()
    b1 = DutyBundle(id="first", label="era", active=["ban_g2", "min_d1"])
    b2 = DutyBundle(id="second", label="era", active=["min_d1", "ban_g2"])
    assert b1 == b2  # identity is (label, active set)
    cs1 = compile_constraints(b1, reg)
    cs2 = compile_constraints(b2, reg)
    rng = np.random.default_rng(0)
    for _ in range(100):
        values = dict(zip(["g1", "g2", "d1"], rng.uniform(0, 2, size=3)))
        assert cs1.feasible(values) == cs2.feasible(values)
