import copy
import json

import numpy as np
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


def _group_level_node(doc, group):
    nodes = doc["power_templates"]["nodes"]
    return next(n for n in nodes if n["group"] == group and "limit_s" not in n)


# (edit to the default bundle, where its one problem is reported)
SINGLE_PROBLEMS = {
    "job-gpus-zero": (
        lambda d: d["batch_jobs"]["groups"]["low"]["time_limits"][0]["gpus"][0]
        .update(gpus=0),
        "batch_jobs.groups.low: ",
    ),
    "job-gpu-count-negative": (
        lambda d: d["batch_jobs"]["groups"]["low"]["time_limits"][0]["gpus"][0]
        .update(count=-1),
        "batch_jobs.groups.low: ",
    ),
    "job-limit-count-negative": (
        lambda d: d["batch_jobs"]["groups"]["low"]["time_limits"][0].update(count=-1),
        "batch_jobs.groups.low: ",
    ),
    "job-limit-no-gpus": (
        lambda d: d["batch_jobs"]["groups"]["low"]["time_limits"][0].update(gpus=[]),
        "batch_jobs.groups.low: ",
    ),
    "no-intraday": (
        lambda d: d["batch_arrivals"]["groups"]["low"].pop("intraday"),
        "batch_arrivals.groups.low: ",
    ),
    "token-support-zero": (
        lambda d: d["tokens"]["groups"]["Code"].update(support_max=0),
        "tokens.groups.Code: ",
    ),
    "request-dispersion-negative": (
        lambda d: d["inference_arrivals"]["groups"]["Code"].update(dispersion=-1),
        "inference_arrivals.groups.Code: ",
    ),
    "group-node-phi": (
        lambda d: _group_level_node(d, "low").update(ar1_phi=2),
        "power_templates.nodes[",
    ),
}


def _jobs_limit(doc, group):
    return doc["batch_jobs"]["groups"][group]["time_limits"][0]


def _no_edges_row(doc):
    rows = doc["power_templates"]["runtime_bin_edges_log"]
    rows.append({"group": "low", "limit_s": 3600, "gpus": 1})
    assert len(rows) == 2


# (edits to the default bundle, the problem lines they give: each entry is
# checked and reports its first problem under its own location)
PER_ENTRY_PROBLEMS = {
    "A-batch-jobs": (
        [
            lambda d: _jobs_limit(d, "low").pop("limit_s"),
            lambda d: _jobs_limit(d, "med")["gpus"][0].update(gpus=0),
        ],
        ["batch_jobs.groups.low: missing key 'limit_s'", "batch_jobs.groups.med: "],
    ),
    "B-inference-arrivals": (
        [
            lambda d: d["inference_arrivals"]["groups"]["Code"].update(dispersion="x"),
            lambda d: d["inference_arrivals"]["groups"]["ConvQ1"].update(dispersion=-1),
        ],
        ["inference_arrivals.groups.Code: ", "inference_arrivals.groups.ConvQ1: "],
    ),
    "C-llm-templates": (
        [
            lambda d: d["llm_templates"]["templates"][0].update(max_batch="x"),
            lambda d: d["llm_templates"]["templates"][1].update(rho_kw=-1),
        ],
        ["llm_templates.templates[0]: ", "llm_templates.templates[1]: "],
    ),
    "D-power-nodes": (
        [
            lambda d: d["power_templates"]["nodes"][0].update(ar1_phi="x"),
            lambda d: d["power_templates"]["nodes"][1].update(ar1_phi=2),
        ],
        ["power_templates.nodes[0]: ", "power_templates.nodes[1]: "],
    ),
    "E-batch-arrivals": (
        [
            lambda d: d["batch_arrivals"]["groups"]["low"]["intraday"].update(
                reference_hour="x"
            ),
            lambda d: d["batch_arrivals"]["groups"]["med"].update(dispersion=-1),
        ],
        ["batch_arrivals.groups.low: intraday: ", "batch_arrivals.groups.med: "],
    ),
    "F-tokens": (
        [
            lambda d: d["tokens"]["groups"]["Code"]["histogram"].update(x=1),
            lambda d: d["tokens"]["groups"]["ConvQ1"].update(support_max=0),
        ],
        ["tokens.groups.Code: ", "tokens.groups.ConvQ1: "],
    ),
    "G-bin-edges": (
        [_no_edges_row],
        ["power_templates.runtime_bin_edges_log[1]: missing key 'edges'"],
    ),
    "two-tokens-outside-support": (
        [lambda d: d["tokens"]["groups"]["Code"]["histogram"].update({"0": 1, "9999": 1})],
        ["tokens.groups.Code: token "],
    ),
}


NAN = float("nan")

# a NaN (json.load reads a bare NaN) and the location it is reported under
NAN_VALUES = {
    "histogram-count": (
        lambda d: d["tokens"]["groups"]["Code"]["histogram"].update({"40": NAN}),
        "tokens.groups.Code.histogram.40",
    ),
    "dispersion": (
        lambda d: d["inference_arrivals"]["groups"]["Code"].update(dispersion=NAN),
        "inference_arrivals.groups.Code.dispersion",
    ),
    "rho-kw": (
        lambda d: d["llm_templates"]["templates"][0].update(rho_kw=NAN),
        "llm_templates.templates[0].rho_kw",
    ),
    # int(nan) raises in the group's loader; that is not a second line
    "integer-limit": (
        lambda d: d["batch_jobs"]["groups"]["low"]["time_limits"][0].update(limit_s=NAN),
        "batch_jobs.groups.low.time_limits[0].limit_s",
    ),
}


class TestNaN:
    @pytest.mark.parametrize("case", sorted(NAN_VALUES))
    def test_nan_is_reported_at_its_path(self, case):
        edit, where = NAN_VALUES[case]
        doc = default_bundle_doc()
        edit(doc)
        with pytest.raises(ConfigurationError) as err:
            load_bundle(doc)
        assert str(err.value).splitlines()[1:] == [f"{where}: NaN is not allowed"]

    def test_every_nan_and_every_other_problem_reported(self):
        doc = default_bundle_doc()
        for edit, _ in NAN_VALUES.values():
            edit(doc)
        doc["inference_arrivals"]["groups"]["ConvQ1"]["dispersion"] = -1
        with pytest.raises(ConfigurationError) as err:
            load_bundle(doc)
        problems = str(err.value).splitlines()[1:]
        assert sorted(problems) == sorted(
            [f"{where}: NaN is not allowed" for _, where in NAN_VALUES.values()]
            + ["inference_arrivals.groups.ConvQ1: group 'ConvQ1': "
               "dispersion must be nonnegative"]
        )

    def test_nan_in_a_list_names_its_index(self):
        doc = default_bundle_doc()
        doc["power_templates"]["nodes"][0]["minute_mean"][3] = NAN
        with pytest.raises(ConfigurationError) as err:
            load_bundle(doc)
        assert str(err.value).splitlines()[1:] == [
            "power_templates.nodes[0].minute_mean[3]: NaN is not allowed"
        ]


class TestCrossReferences:
    @pytest.mark.parametrize("case", sorted(PER_ENTRY_PROBLEMS))
    def test_each_entry_reports_its_first_problem(self, case):
        edits, starts = PER_ENTRY_PROBLEMS[case]
        doc = default_bundle_doc()
        for edit in edits:
            edit(doc)
        with pytest.raises(ConfigurationError) as err:
            load_bundle(doc)
        header, *problems = str(err.value).splitlines()
        assert header == "invalid configuration:"
        assert len(problems) == len(starts), problems
        for problem, start in zip(problems, starts):
            assert problem.startswith(start), problems

    @pytest.mark.parametrize("case", sorted(SINGLE_PROBLEMS))
    def test_failed_group_is_reported_once(self, case):
        edit, where = SINGLE_PROBLEMS[case]
        doc = default_bundle_doc()
        edit(doc)
        with pytest.raises(ConfigurationError) as err:
            load_bundle(doc)
        header, *problems = str(err.value).splitlines()
        assert header == "invalid configuration:"
        assert len(problems) == 1, problems
        assert problems[0].startswith(where)

    def test_mismatch_reported_next_to_unrelated_error(self):
        doc = default_bundle_doc()
        jobs = doc["batch_jobs"]["groups"]
        jobs["other"] = jobs.pop("low")
        doc["inference_arrivals"]["groups"]["Code"]["dispersion"] = -1
        with pytest.raises(ConfigurationError) as err:
            load_bundle(doc)
        assert str(err.value).splitlines()[1:] == [
            "inference_arrivals.groups.Code: group 'Code': dispersion must be nonnegative",
            "bundle: batch arrival groups ['high', 'low', 'med'] != "
            "job model groups ['high', 'med', 'other']",
            "power_templates: no group-level template for 'other'",
        ]

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

    @pytest.mark.parametrize(
        "shares", [[1.5, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0], [0.5] * 7], ids=["negative", "sum"]
    )
    def test_split_shares_must_be_a_distribution(self, shares):
        doc = default_bundle_doc()  # seven templates
        doc["llm_templates"]["split_shares"] = shares
        with pytest.raises(ConfigurationError) as err:
            load_bundle(doc)
        assert str(err.value).splitlines()[1:] == [
            "llm_templates: split_shares must be nonnegative and sum to 1"
        ]

    def test_scalar_tpot_applies_to_every_speed_class(self):
        doc = tiny_doc()
        doc["llm_templates"]["templates"][0]["tpot_s"] = 2.0
        (template,) = load_bundle(doc).llm_templates
        assert template.tpot_s == {"F": 2.0, "M": 2.0, "S": 2.0}

    def test_dense_histogram_loads_like_sparse(self):
        doc = default_bundle_doc()
        for g_doc in doc["tokens"]["groups"].values():
            dense = [0] * g_doc["support_max"]
            for token, count in g_doc["histogram"].items():
                dense[int(token) - 1] = count
            g_doc["histogram"] = dense
        sparse = load_bundle(default_bundle_doc()).token_dists
        loaded = load_bundle(doc).token_dists
        assert sorted(loaded) == sorted(sparse)
        for group, dist in sparse.items():
            assert np.array_equal(loaded[group].pmf, dist.pmf)

    def test_dense_histogram_length_must_match_support(self):
        doc = tiny_doc()
        doc["tokens"]["groups"]["req"] = {"support_max": 5, "histogram": [1, 2, 3]}
        with pytest.raises(ConfigurationError) as err:
            load_bundle(doc)
        assert str(err.value).splitlines()[1:] == [
            "tokens.groups.req: dense histogram length must equal support_max"
        ]

    def test_negative_histogram_count_names_its_group(self):
        doc = default_bundle_doc()
        doc["tokens"]["groups"]["ConvQ1"]["histogram"]["5"] = -1
        with pytest.raises(ConfigurationError) as err:
            load_bundle(doc)
        assert str(err.value).splitlines()[1:] == [
            "tokens.groups.ConvQ1: histogram counts must be nonnegative"
        ]

    def test_bad_calendar_epoch(self):
        doc = tiny_doc()
        doc["calendar"]["epoch"] = "not-a-date"
        with pytest.raises(ConfigurationError, match="calendar"):
            load_bundle(doc)
