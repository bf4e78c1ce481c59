import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcpowersim.config import canonical_hash, load_bundle
from dcpowersim.defaults import default_bundle_doc
from dcpowersim.errors import ConfigurationError

from test_cosim import tiny_doc


def reference_hash(doc) -> str:
    """The definition ``canonical_hash`` keeps: SHA-256 of one json.dumps."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _DictSubclass(dict):
    pass


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# lists that are equal as floats but not as bits, or not as JSON
LOOKALIKE_LISTS = [
    [0.0, 1.5], [-0.0, 1.5], [math.nan, 2.0], [math.inf, 2.0], [-math.inf, 2.0],
    [1.0, 1.0], [1.0, 1], [1.0, True], [1.0, np.float64(1.0)],
]


@st.composite
def json_docs(draw):
    """Nested dicts, lists and tuples with text keys and scalar leaves that
    reuse a few float lists, as the same objects and as copies, with one
    dict keyed by ints and one dict subclass among them."""
    pool = draw(st.lists(st.lists(FLOATS, max_size=6), min_size=1, max_size=4))
    pool += LOOKALIKE_LISTS
    shared = st.sampled_from(pool)
    leaves = (
        st.none() | st.booleans() | st.integers() | FLOATS
        | FLOATS.map(np.float64) | st.text(max_size=6)
        | shared | shared.map(list) | shared.map(tuple)
    )
    keys = st.text(max_size=6)
    tree = st.recursive(
        leaves,
        lambda children: (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(keys, children, max_size=4)
        ),
        max_leaves=25,
    )
    doc = draw(st.dictionaries(keys, tree, max_size=5))
    doc[draw(st.text(max_size=3))] = draw(st.dictionaries(st.integers(), tree, max_size=3))
    doc[draw(st.text(max_size=3))] = _DictSubclass(draw(st.dictionaries(keys, tree, max_size=3)))
    return doc


class TestCanonicalHash:
    @settings(deadline=None)
    @given(json_docs())
    def test_matches_one_json_dumps(self, doc):
        assert canonical_hash(doc) == reference_hash(doc)

    @pytest.mark.parametrize("make", [default_bundle_doc, tiny_doc])
    def test_bundles_match_one_json_dumps(self, make):
        doc = make()
        assert canonical_hash(doc) == reference_hash(doc)

    def test_default_document_hash_is_pinned(self):
        assert canonical_hash(default_bundle_doc()) == (
            "b1cb53d0441152e04de79a74debcab15e9f2995f91640034a34bf78c954d6fd6"
        )

    def test_default_document_shares_no_list(self):
        def lists(node):
            if isinstance(node, list):
                yield node
            if isinstance(node, (dict, list)):
                for item in node.values() if isinstance(node, dict) else node:
                    yield from lists(item)

        first, second = default_bundle_doc(), default_bundle_doc()
        assert first == second
        ids = [id(x) for doc in (first, second) for x in lists(doc)]
        assert len(ids) == len(set(ids))
        nodes = first["power_templates"]["nodes"]
        before = copy.deepcopy(nodes)
        nodes[0]["minute_mean"][0] += 1.0
        assert nodes[1:] == before[1:]
        assert second["power_templates"]["nodes"] == before

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
    "H-grid-and-group": (
        [
            lambda d: d["batch_jobs"]["quantile_grid"].reverse(),
            lambda d: _jobs_limit(d, "low").update(limit_s=-60),
        ],
        [
            "batch_jobs.quantile_grid: must be 2+ ascending points inside (0, 1)",
            "batch_jobs.groups.low: group 'low': time limit -60 must be positive",
        ],
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


def _intraday(doc):
    return doc["batch_arrivals"]["groups"]["low"]["intraday"]


def _low_quantiles(doc):
    return doc["batch_jobs"]["groups"]["low"]["runtime_log_quantiles"]


def _node(doc):
    """A leaf power template node: group 'low', time limit 3600 s."""
    return doc["power_templates"]["nodes"][1]


def _template(doc):
    return doc["llm_templates"]["templates"][0]


def _timezones(**plan):
    return lambda d: d["batch_arrivals"].update(timezones=plan)


# (edit to the default bundle, the one line it gives): a case for each
# check a document can reach; a value every group shares is reported once,
# under its own path
DOCUMENT_CHECKS = {
    "alr-mean-length": (
        lambda d: _intraday(d).update(alr_mean=[0.0]),
        "batch_arrivals.groups.low: intraday: alr_mean must have 23 entries",
    ),
    "alr-var-length": (
        lambda d: _intraday(d).update(alr_var=[1.0]),
        "batch_arrivals.groups.low: intraday: alr_var must have 23 entries",
    ),
    "alr-var-negative": (
        lambda d: _intraday(d)["alr_var"].__setitem__(0, -1.0),
        "batch_arrivals.groups.low: intraday: alr_var entries must be nonnegative",
    ),
    "reference-hour": (
        lambda d: _intraday(d).update(reference_hour=24),
        "batch_arrivals.groups.low: intraday: reference_hour must lie in [0, 24)",
    ),
    "zone-offsets-repeat": (
        _timezones(offsets_hours=[0, 0]),
        "batch_arrivals.timezones: timezone offsets must be distinct",
    ),
    "zone-shares-length": (
        _timezones(offsets_hours=[0, 8], shares=[1.0]),
        "batch_arrivals.timezones: shares and offsets differ in length",
    ),
    "zone-share-negative": (
        _timezones(offsets_hours=[0, 8], shares=[1.5, -0.5]),
        "batch_arrivals.timezones: zone shares must be nonnegative",
    ),
    "time-limit-negative": (
        lambda d: _jobs_limit(d, "low").update(limit_s=-60),
        "batch_jobs.groups.low: group 'low': time limit -60 must be positive",
    ),
    "no-time-limits": (
        lambda d: d["batch_jobs"]["groups"]["low"].update(time_limits=[]),
        "batch_jobs.groups.low: no time limits configured",
    ),
    "grid-descending": (
        lambda d: d["batch_jobs"]["quantile_grid"].reverse(),
        "batch_jobs.quantile_grid: must be 2+ ascending points inside (0, 1)",
    ),
    "grid-two-dimensional": (
        lambda d: d["batch_jobs"].update(quantile_grid=[[0.1, 0.2], [0.3, 0.4]]),
        "batch_jobs.quantile_grid: must be 2+ ascending points inside (0, 1)",
    ),
    "grid-reaches-one": (
        lambda d: d["batch_jobs"]["quantile_grid"].__setitem__(-1, 1.0),
        "batch_jobs.quantile_grid: must be 2+ ascending points inside (0, 1)",
    ),
    "curve-length": (
        lambda d: _low_quantiles(d).update(group=[0.0, 1.0]),
        "batch_jobs.groups.low: group 'low': quantile curve length must match the grid",
    ),
    "curve-decreasing": (
        lambda d: _low_quantiles(d)["group"].reverse(),
        "batch_jobs.groups.low: group 'low': quantile curves must be nondecreasing",
    ),
    "node-no-minutes": (
        lambda d: _node(d).update(minute_mean=[], minute_std=[], minute_p5=[], minute_p95=[]),
        "power_templates.nodes[1]: template ('low', 3600): "
        "needs at least one minute of statistics",
    ),
    "node-std-length": (
        lambda d: _node(d)["minute_std"].pop(),
        "power_templates.nodes[1]: template ('low', 3600): "
        "minute_std length must match minute_mean",
    ),
    "node-std-negative": (
        lambda d: _node(d)["minute_std"].__setitem__(0, -1.0),
        "power_templates.nodes[1]: template ('low', 3600): minute_std must be nonnegative",
    ),
    "node-band": (
        lambda d: _node(d)["minute_p5"].__setitem__(0, _node(d)["minute_mean"][0] + 1.0),
        "power_templates.nodes[1]: template ('low', 3600): band must satisfy p5 <= mean <= p95",
    ),
    "node-support-negative": (
        lambda d: _node(d).update(support_count=-1),
        "power_templates.nodes[1]: template ('low', 3600): support_count must be nonnegative",
    ),
    "node-no-group": (
        lambda d: _node(d).pop("group"),
        "power_templates.nodes[1]: template node needs at least a group",
    ),
    "node-duplicate": (
        lambda d: d["power_templates"]["nodes"].append(copy.deepcopy(_node(d))),
        "power_templates.nodes[25]: duplicate template key ('low', 3600)",
    ),
    "bin-edges-descending": (
        lambda d: d["power_templates"]["runtime_bin_edges_log"][0]["edges"].reverse(),
        "power_templates.runtime_bin_edges_log[0]: edges must be ascending with 2+ points",
    ),
    "noise-factor-negative": (
        lambda d: d["power_templates"].update(noise_factor=-1.0),
        "power_templates: invalid power synthesis configuration",
    ),
    "rate-table-shape": (
        lambda d: d["inference_arrivals"]["groups"]["Code"]["log_rate_weekday"].pop(),
        "inference_arrivals.groups.Code: group 'Code': log_rate_table must have shape (96, 2)",
    ),
    "calibration-negative": (
        lambda d: d["inference_arrivals"].update(calibration_factor=-1.0),
        "inference_arrivals.calibration_factor: must be nonnegative",
    ),
    "tokens-no-histogram": (
        lambda d: d["tokens"]["groups"]["Code"].pop("histogram"),
        "tokens.groups.Code: needs either a pmf or a histogram",
    ),
    "pool-support-differs": (
        lambda d: d["tokens"]["groups"]["ConvQ1"].update(support_max=1000),
        "tokens.pools.conversation: pool members must share one support_max",
    ),
    "pmf-length": (
        lambda d: d["tokens"]["groups"]["Code"].update(pmf=[1.0]),
        "tokens.groups.Code: pmf length must equal support_max",
    ),
    "pmf-negative": (
        lambda d: d["tokens"]["groups"]["Code"].update(support_max=2, pmf=[1.5, -0.5]),
        "tokens.groups.Code: pmf entries must be nonnegative",
    ),
    "histogram-no-mass": (
        lambda d: d["tokens"]["groups"]["Code"].update(histogram={}),
        "tokens.pools.code: histogram has no mass",
    ),
    "no-serving-templates": (
        lambda d: d["llm_templates"].update(templates=[]),
        "llm_templates: no serving templates configured",
    ),
    "gpus-per-instance-zero": (
        lambda d: _template(d).update(gpus_per_instance=0),
        "llm_templates.templates[0]: template 'T1': gpus_per_instance must be positive",
    ),
    "max-batch-zero": (
        lambda d: _template(d).update(max_batch=0),
        "llm_templates.templates[0]: template 'T1': max_batch must be positive",
    ),
    "speed-class-unknown": (
        lambda d: _template(d).update(speed_class="Q"),
        "llm_templates.templates[0]: template 'T1': speed_class must be one of ('F', 'M', 'S')",
    ),
    "tpot-class-unknown": (
        lambda d: _template(d)["tpot_s"].update(Q=0.1),
        "llm_templates.templates[0]: template 'T1': unknown speed class 'Q'",
    ),
    "tpot-zero": (
        lambda d: _template(d)["tpot_s"].update(F=0.0),
        "llm_templates.templates[0]: template 'T1': tpot for class 'F' must be positive",
    ),
}


@pytest.mark.parametrize("case", sorted(DOCUMENT_CHECKS))
def test_each_document_check_gives_one_line(case):
    edit, line = DOCUMENT_CHECKS[case]
    doc = default_bundle_doc()
    edit(doc)
    with pytest.raises(ConfigurationError) as err:
        load_bundle(doc)
    assert str(err.value).splitlines() == ["invalid configuration:", line]


def test_default_documents_share_no_list_or_dict():
    """Editing one default document leaves the next one as it was."""

    def containers(node, found):
        if isinstance(node, (dict, list)):
            found.add(id(node))
            for child in node.values() if isinstance(node, dict) else node:
                containers(child, found)
        return found

    first, second = default_bundle_doc(), default_bundle_doc()
    assert not containers(first, set()) & containers(second, set())
