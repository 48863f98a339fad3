"""Claim registry: the full green run, filters, generated catalog claims."""

import pytest

from gammagroups import claims
from gammagroups.catalog import CATALOG_NAMES
from gammagroups.claims import Claim, UnknownClaimFilter, registry, run_claims

NAMESPACES = {
    "pauli", "quaternion", "brackets", "weights", "dirac",
    "invariants", "search", "extensions", "delta1", "delta2", "delta3", "catalog",
}


def claim_ids():
    return [c.claim_id for c in registry()]


def claims_selected(pattern):
    return [c for c in claim_ids() if claims._matches(c, pattern)]


class TestRegistry:
    def test_ids_are_unique_and_sorted(self):
        ids = claim_ids()
        assert len(ids) == 73
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_every_namespace_is_present(self):
        assert {claim_id.split(".")[0] for claim_id in claim_ids()} == NAMESPACES

    def test_delta_namespaces_mirror_each_other(self):
        ids = claim_ids()
        for suffix in ("profile", "decomposition", "sixth", "invariants", "realform"):
            owners = [i.split(".")[0] for i in ids if i.endswith("." + suffix)]
            assert owners == ["delta1", "delta2", "delta3"], suffix

    def test_every_catalog_entry_has_two_generated_claims(self):
        generated = {i for i in claim_ids() if i.startswith("catalog.")}
        assert generated == {
            f"catalog.{name}.{kind}" for name in CATALOG_NAMES for kind in ("expected", "checks")
        }


class TestRunClaims:
    def test_full_registry_is_green(self):
        results = run_claims()
        assert len(results) == 73
        assert [r.claim_id for r in results if r.status != "PASS"] == []

    def test_pass_means_computed_equals_expected(self):
        for result in run_claims("pauli.*"):
            assert result.status == "PASS"
            assert result.computed == result.expected

    def test_results_are_sorted_by_id(self):
        ids = [r.claim_id for r in run_claims("delta.*")]
        assert ids == sorted(ids)
        assert len(ids) == 15

    def test_dotted_filters_match_like_globs(self):
        assert len(run_claims("quaternion.*")) == 4
        assert {r.claim_id for r in run_claims("*.order")} == {
            "pauli.order", "quaternion.order", "dirac.order",
        }

    def test_namespace_filters_stop_at_the_name(self):
        # The dotless reading of "x.*" only admits ids that go on with a
        # digit (delta1, delta2, ...), never longer names like q8_c2.
        assert {r.claim_id for r in run_claims("catalog.q8.*")} == {
            "catalog.q8.checks", "catalog.q8.expected",
        }
        assert len(run_claims("catalog.pauli.*")) == 2
        assert len(claims_selected("delta.*")) == 15
        assert claims_selected("pauli.*") == [i for i in claim_ids() if i.startswith("pauli.")]

    def test_unknown_filter_raises(self):
        with pytest.raises(UnknownClaimFilter):
            run_claims("nonexistent.*")

    def test_crashed_claim_fails_instead_of_raising(self, monkeypatch):
        broken = Claim("zzz.crash", "always crashes", 1, lambda: 1 // 0)
        monkeypatch.setattr(claims, "_REGISTRY", claims.registry() + [broken])
        (result,) = run_claims("zzz.*")
        assert result.status == "FAIL"
        assert str(result.computed).startswith("error:")

    def test_result_dicts_hold_the_five_fields(self):
        for result in run_claims():
            assert result.to_dict() == {
                "claim_id": result.claim_id,
                "description": result.description,
                "expected": result.expected,
                "computed": result.computed,
                "status": result.status,
            }

    def test_result_dict_shape(self):
        (result,) = run_claims("pauli.order")
        doc = result.to_dict()
        assert sorted(doc) == [
            "claim_id", "computed", "description", "expected", "status",
        ]
        assert doc["status"] == "PASS"
