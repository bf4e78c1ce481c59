import copy
import json

import pytest

from dcpowersim.config import canonical_hash, load_bundle
from dcpowersim.defaults import default_bundle_doc
from dcpowersim.errors import ConfigurationError

from test_cosim import tiny_doc


class TestCanonicalHash:
    def test_key_order_irrelevant(self):
        a = {"x": 1, "y": {"a": 2, "b": 3}}
        b = {"y": {"b": 3, "a": 2}, "x": 1}
        assert canonical_hash(a) == canonical_hash(b)

    def test_json_round_trip_stable(self):
        doc = default_bundle_doc()
        again = json.loads(json.dumps(doc))
        assert canonical_hash(doc) == canonical_hash(again)

    def test_value_change_changes_hash(self):
        doc = tiny_doc()
        before = canonical_hash(doc)
        doc["llm_templates"]["grid_tick_s"] = 20
        assert canonical_hash(doc) != before


class TestLoadBundle:
    def test_default_document_loads(self):
        bundle = load_bundle(default_bundle_doc())
        assert bundle.batch_groups == ["high", "low", "med"]
        assert len(bundle.llm_templates) == 7
        assert bundle.config_hash == canonical_hash(default_bundle_doc())

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(tiny_doc()))
        bundle = load_bundle(str(path))
        assert bundle.batch_groups == ["tiny"]
        assert bundle.request_groups == ["req"]

    def test_malformed_file_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ConfigurationError, match="bad.json: not valid JSON"):
            load_bundle(str(path))

    def test_schema_version_checked(self):
        doc = tiny_doc()
        doc["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema_version"):
            load_bundle(doc)

    def test_missing_section_reported(self):
        doc = tiny_doc()
        del doc["tokens"]
        with pytest.raises(ConfigurationError, match="tokens"):
            load_bundle(doc)

    def test_all_violations_in_one_error(self):
        doc = tiny_doc()
        doc["llm_templates"]["grid_tick_s"] = 7  # not a divisor of 60
        doc["tokens"]["groups"]["req"]["support_max"] = 0
        doc["batch_arrivals"]["groups"]["tiny"]["dispersion"] = -1.0
        with pytest.raises(ConfigurationError) as err:
            load_bundle(doc)
        message = str(err.value)
        assert "grid_tick_s" in message
        assert "support_max" in message
        assert "dispersion" in message or "tiny" in message
        assert len(message.splitlines()) >= 4  # header plus one line each


class TestCrossReferences:
    def test_arrival_and_job_groups_must_match(self):
        doc = tiny_doc()
        jobs_tiny = doc["batch_jobs"]["groups"].pop("tiny")
        doc["batch_jobs"]["groups"]["other"] = jobs_tiny
        with pytest.raises(ConfigurationError, match="group"):
            load_bundle(doc)

    def test_every_job_group_needs_a_power_template(self):
        doc = tiny_doc()
        doc["power_templates"]["nodes"] = []
        with pytest.raises(ConfigurationError, match="template"):
            load_bundle(doc)

    def test_request_and_token_groups_must_match(self):
        doc = tiny_doc()
        tokens_req = doc["tokens"]["groups"].pop("req")
        doc["tokens"]["groups"]["other"] = tokens_req
        with pytest.raises(ConfigurationError, match="group"):
            load_bundle(doc)

    def test_every_batch_group_needs_an_intraday_profile(self):
        doc = tiny_doc()
        del doc["batch_arrivals"]["groups"]["tiny"]["intraday"]
        with pytest.raises(ConfigurationError):
            load_bundle(doc)


class TestFieldValidation:
    def test_split_shares_must_sum_to_one(self):
        doc = tiny_doc()
        doc["llm_templates"]["split_shares"] = [0.5, 0.6]
        with pytest.raises(ConfigurationError, match="split_shares"):
            load_bundle(doc)

    def test_duplicate_template_ids_rejected(self):
        doc = tiny_doc()
        doc["llm_templates"]["templates"].append(
            copy.deepcopy(doc["llm_templates"]["templates"][0])
        )
        with pytest.raises(ConfigurationError, match="duplicate"):
            load_bundle(doc)

    def test_histogram_token_outside_support(self):
        doc = tiny_doc()
        doc["tokens"]["groups"]["req"] = {
            "support_max": 5,
            "histogram": {"9": 10},
        }
        with pytest.raises(ConfigurationError, match="support"):
            load_bundle(doc)

    def test_bad_calendar_epoch(self):
        doc = tiny_doc()
        doc["calendar"]["epoch"] = "not-a-date"
        with pytest.raises(ConfigurationError, match="calendar"):
            load_bundle(doc)
