import copy
import datetime as dt
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessmg.data import SERIES, DataFormatError, HistoricalDay, make_demo_dataset
from hessmg.scenario import (ScenarioModel, build_scenario, cluster_weights,
                             extract_features, fit_transition, kmeans,
                             sample_sequence, select_representatives,
                             standardize, stationary_distribution)


def _day(price, demand, pv, date=dt.date(2021, 6, 1)):
    n = len(price)
    return HistoricalDay(date, np.asarray(price, float),
                         np.asarray(demand, float), np.zeros(n),
                         np.asarray(pv, float))


class TestFeatures:
    def test_constant_day(self):
        day = _day([50.0] * 24, [2.0] * 24, [0.0] * 24)
        f = extract_features(day)
        assert f.tolist() == [50, 0, 50, 50, 2, 0, 2, 2, 0, 0, 0, 0]

    def test_ramp_population_std(self):
        day = _day(list(range(24)), [0.0] * 24, [0.0] * 24)
        f = extract_features(day)
        assert f[0] == pytest.approx(11.5)
        # frozen oracle: sqrt(sum((x-mean)^2)/n) for x = 0..23
        assert f[1] == pytest.approx(6.922186552431729, abs=1e-12)

    def test_signal_blocks_are_price_demand_pv(self):
        day = _day([10.0] * 24, [3.0] * 24, [0.5] * 24)
        f = extract_features(day)
        assert f[0] == 10.0 and f[4] == 3.0 and f[8] == 0.5

    def test_demand_block_sums_both_loads(self):
        day = HistoricalDay(dt.date(2021, 1, 1), np.zeros(24),
                            np.full(24, 1.5), np.full(24, 0.5), np.zeros(24))
        assert extract_features(day)[4] == 2.0

    def test_standardize(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(50, 12))
        x[:, 3] = 7.0  # constant column stays finite
        z = standardize(x)
        keep = [j for j in range(12) if j != 3]
        assert np.all(np.abs(z[:, keep].mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z[:, keep].std(axis=0) - 1) < 1e-9)
        assert np.all(z[:, 3] == 0.0)


def _blobs(n_per=20, sep=50.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n_per, 12))
    b = rng.normal(sep, 1.0, size=(n_per, 12))
    x = np.vstack([a, b])
    truth = np.array([0] * n_per + [1] * n_per)
    return x, truth


class TestKmeans:
    def test_single_cluster_is_mean(self):
        x = np.random.default_rng(1).normal(size=(13, 12))
        centroids, labels = kmeans(x, 1, seed=0)
        assert np.all(labels == 0)
        np.testing.assert_allclose(centroids[0], x.mean(axis=0))

    def test_two_blobs_recovered(self):
        x, truth = _blobs()
        _, labels = kmeans(x, 2, seed=0)
        # label permutation is arbitrary; compare the partition
        assert (np.all(labels == truth) or np.all(labels == 1 - truth))

    def test_one_point_per_cluster_zero_objective(self):
        x = np.random.default_rng(2).normal(size=(6, 12))
        centroids, labels = kmeans(x, 6, seed=0)
        d2 = ((x - centroids[labels]) ** 2).sum()
        assert d2 == pytest.approx(0.0, abs=1e-18)

    def test_deterministic(self):
        x, _ = _blobs(seed=3)
        a = kmeans(x, 3, seed=11)
        b = kmeans(x, 3, seed=11)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_w_out_of_range(self):
        x = np.zeros((4, 12))
        with pytest.raises(ValueError):
            kmeans(x, 5, seed=0)

    def test_w_above_the_distinct_rows(self):
        x = np.repeat(np.random.default_rng(4).normal(size=(2, 12)), 5, axis=0)
        assert len(kmeans(x, 2, seed=0)[0]) == 2
        with pytest.raises(ValueError, match="clusters <= 2, got 3: the 10 rows hold 2 "):
            kmeans(x, 3, seed=0)
        day = make_demo_dataset(seed=0, n_days=1)[0]
        days = [_day(day.price, day.demand_ch, day.pv_cf, day.date + dt.timedelta(days=i))
                for i in range(10)]
        with pytest.raises(ValueError, match="clusters <= 1, got 3: the 10 rows hold 1 "):
            build_scenario(days, w=3, t_syn=2, seed=0)


class TestRepresentatives:
    def test_singleton_cluster(self):
        x = np.array([[0.0], [10.0]])
        c = np.array([[0.0], [10.0]])
        labels = np.array([0, 1])
        assert select_representatives(x, c, labels).tolist() == [0, 1]

    def test_tie_goes_to_lower_index(self):
        x = np.array([[1.0], [-1.0], [9.0]])
        c = np.array([[0.0], [9.0]])
        labels = np.array([0, 0, 1])
        reps = select_representatives(x, c, labels)
        assert reps[0] == 0  # both members at distance 1

    def test_blob_medoid_matches_brute_force(self):
        x, _ = _blobs(seed=4)
        centroids, labels = kmeans(x, 2, seed=0)
        reps = select_representatives(x, centroids, labels)
        for w in range(2):
            members = np.flatnonzero(labels == w)
            dist = np.linalg.norm(x[members] - centroids[w], axis=1)
            assert reps[w] == members[np.argmin(dist)]


def test_cluster_weights_counting():
    pi = cluster_weights(np.array([0, 0, 1, 1, 1, 1]))
    np.testing.assert_allclose(pi, [1 / 3, 2 / 3])
    assert pi.sum() == 1.0
    assert cluster_weights(np.array([0, 0])).tolist() == [1.0]


class TestTransition:
    def test_single_state(self):
        assert fit_transition(np.array([0, 0, 0])).tolist() == [[1.0]]

    def test_alternating(self):
        a = fit_transition(np.array([0, 1, 0, 1, 0]))
        assert a.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 5, size=200)
        a = fit_transition(labels)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(a >= 0)

    def test_unseen_predecessor_gets_uniform_row(self):
        a = fit_transition(np.array([0, 0, 1]))  # state 1 never a predecessor
        assert a[1].tolist() == [0.5, 0.5]


class TestSampleSequence:
    def test_single_cluster(self):
        seq = sample_sequence(np.array([[1.0]]), np.array([1.0]), 30, seed=0)
        assert seq.tolist() == [0] * 30

    def test_deterministic(self):
        a_mat = np.array([[0.9, 0.1], [0.5, 0.5]])
        pi = np.array([0.6, 0.4])
        assert np.array_equal(sample_sequence(a_mat, pi, 40, 7),
                              sample_sequence(a_mat, pi, 40, 7))

    def test_coverage_repair(self):
        # strongly absorbing chain: state 1 is unlikely to ever appear
        a_mat = np.array([[1.0, 0.0], [1.0, 0.0]])
        pi = np.array([1.0, 0.0])
        seq = sample_sequence(a_mat, pi, 10, seed=0)
        assert set(seq.tolist()) == {0, 1}
        assert seq[-1] == 1  # repaired at the tail

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="cannot cover"):
            sample_sequence(np.eye(3), np.full(3, 1 / 3), 2, seed=0)

    def test_long_run_matches_stationary_distribution(self):
        a_mat = np.array([[0.8, 0.15, 0.05],
                          [0.2, 0.6, 0.2],
                          [0.3, 0.3, 0.4]])
        pi0 = np.full(3, 1 / 3)
        seq = sample_sequence(a_mat, pi0, 100_000, seed=1)
        freq = np.bincount(seq, minlength=3) / len(seq)
        target = stationary_distribution(a_mat)
        assert np.abs(freq - target).sum() < 0.02


class TestBuildScenario:
    def test_case_study_shape(self):
        days = make_demo_dataset(seed=0, n_days=120)
        sc = build_scenario(days, w=20, t_syn=30, seed=0)
        assert sc.n_clusters == 20 and len(sc.sequence) == 30
        assert len(sc.synthetic_days) == 30

    def test_each_day_its_own_cluster(self):
        days = make_demo_dataset(seed=2, n_days=6)
        sc = build_scenario(days, w=6, t_syn=6, seed=0)
        assert sorted(sc.labels.tolist()) == list(range(6))
        assert set(sc.sequence.tolist()) == set(range(6))

    def test_same_seed_identical(self):
        days = make_demo_dataset(seed=4, n_days=40)
        assert build_scenario(days, 5, 12, seed=9) == build_scenario(days, 5, 12, seed=9)

    def test_json_round_trip(self):
        days = make_demo_dataset(seed=4, n_days=30)
        sc = build_scenario(days, 4, 10, seed=1)
        again = ScenarioModel.from_json(sc.to_json())
        assert again == sc
        assert set(json.loads(sc.to_json())) == {"labels", "rep_days", "sequence",
                                                 "representatives"}

    def test_label_outside_the_clusters_rejected(self):
        sc = build_scenario(make_demo_dataset(seed=4, n_days=10), 2, 4, seed=1)
        fields = {"labels": sc.labels, "rep_days": sc.rep_days, "sequence": sc.sequence,
                  "representatives": sc.representatives}
        for bad in (7, 2, -1):
            labels = sc.labels.copy()
            labels[-1] = bad
            with pytest.raises(ValueError, match=f"labels name cluster {bad}, outside 0..1"):
                ScenarioModel(**{**fields, "labels": labels})


@settings(max_examples=20, deadline=None)
@given(w=st.integers(1, 6), extra_days=st.integers(0, 6), seed=st.integers(0, 2**16))
def test_scenario_round_trip_and_derived_statistics(w, extra_days, seed):
    """A built scenario reads back equal from its JSON, and its weights and
    transition matrix are the ones its labels give."""
    days = make_demo_dataset(seed=seed % 7, n_days=12)
    sc = build_scenario(days, w, w + extra_days, seed)
    assert ScenarioModel.from_json(sc.to_json()) == sc
    assert sc.n_clusters == w and len(sc.sequence) == w + extra_days
    assert np.array_equal(sc.weights, np.bincount(sc.labels) / len(sc.labels))
    assert sc.transition.shape == (w, w)
    np.testing.assert_allclose(sc.transition.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def _truncate_second_representative(raw):
    raw["representatives"][1] = {k: v[:12] if isinstance(v, list) else v
                                 for k, v in raw["representatives"][1].items()}


def _set(key, value):
    return lambda raw: raw.__setitem__(key, value)


class TestScenarioJson:
    """from_json checks what it reads and raises ValueError, which `python
    -O` keeps, for each inconsistency."""

    @pytest.fixture(scope="class")
    def raw(self):
        days = make_demo_dataset(seed=4, n_days=10)
        return json.loads(build_scenario(days, 2, 4, seed=1).to_json())

    @pytest.mark.parametrize("edit, match", [
        (lambda raw: raw["labels"].__setitem__(-1, 7), "cluster 7, outside 0..1"),
        (lambda raw: raw["labels"].__setitem__(0, -1), "cluster -1, outside 0..1"),
        (_set("sequence", [0, 1, 2, 1]), "sequence index outside the representatives"),
        (_set("sequence", [0, 1, -1, 1]), "sequence index outside the representatives"),
        (_set("sequence", [0, 0, 0, 0]), "does not visit every cluster"),
        (_truncate_second_representative, "representatives differ in length"),
        (lambda raw: raw["representatives"].pop(), "cluster 1, outside 0..0"),
        (lambda raw: raw["rep_days"].reverse(), "not a day of its own cluster"),
        (_set("rep_days", [0, 999]), "not a day of its own cluster"),
        (lambda raw: [d.update(dict.fromkeys(SERIES, [])) for d in raw["representatives"]],
         "representatives hold no steps"),
        (lambda raw: [d.update({name: d[name][:7] for name in SERIES})
                      for d in raw["representatives"]],
         "representatives hold 7 steps a day, which does not divide 1440"),
    ])
    def test_inconsistent_scenario_rejected(self, raw, edit, match):
        edited = copy.deepcopy(raw)
        edit(edited)
        with pytest.raises(ValueError, match=match):
            ScenarioModel.from_json(json.dumps(edited))

    @pytest.mark.parametrize("edit, match", [
        (lambda raw: raw.pop("representatives"), "scenario: missing field 'representatives'"),
        (_set("n_clusters", 2), "scenario: unknown field 'n_clusters'"),
        (lambda raw: raw["representatives"][1].pop("pv_cf"),
         "scenario: missing field 'representatives[1].pv_cf'"),
        (lambda raw: raw.clear(), "scenario: missing field 'labels'"),
        (_set("representatives", 5), "scenario: field 'representatives' is not a list of objects"),
        (lambda raw: raw["representatives"].append(3),
         "scenario: field 'representatives' is not a list of objects"),
        (_set("n_clusters", "2"), "scenario: unknown field 'n_clusters'"),
        (_set("n_clusters", True), "scenario: unknown field 'n_clusters'"),
        (_set("labels", "0101"), "scenario: field 'labels' is not a list of integers"),
        (_set("sequence", [0, 1, 0.5, 1]), "scenario: field 'sequence' is not a list of integers"),
        (_set("weights", [0.5, "0.5"]), "scenario: unknown field 'weights'"),
        (_set("transition", [[1.0, 0.0], 1.0]), "scenario: unknown field 'transition'"),
        (lambda raw: raw.pop("labels"), "scenario: missing field 'labels'"),
        (lambda raw: raw["labels"].__setitem__(0, True),
         "scenario: field 'labels' is not a list of integers"),
        (_set("rep_days", [0, 1.0]), "scenario: field 'rep_days' is not a list of integers"),
        (lambda raw: raw["representatives"][0].__setitem__("price", "12.0"),
         "scenario: field 'representatives[0].price' is not a list of numbers"),
        (lambda raw: raw["representatives"][1].__setitem__("date", 20210101),
         "scenario: field 'representatives[1].date' is not a string"),
        (lambda raw: raw["representatives"][1].__setitem__("date", "2021-13-01"),
         "scenario: field 'representatives[1].date' is not an ISO date"),
        (_set("clusters", 2), "scenario: unknown field 'clusters'"),
        (lambda raw: raw["representatives"][0].__setitem__("demand", []),
         "scenario: unknown field 'representatives[0].demand'"),
    ], ids=["representatives", "n_clusters", "day pv_cf", "empty object",
            "representatives int", "representative int", "n_clusters string",
            "n_clusters bool", "labels string", "sequence float", "weights string",
            "transition row number", "labels", "labels bool", "rep_days float",
            "day price string", "day date number",
            "day date invalid", "unknown field", "day unknown field"])
    def test_missing_field_named(self, raw, edit, match):
        edited = copy.deepcopy(raw)
        edit(edited)
        with pytest.raises(ValueError, match=re.escape(match)):
            ScenarioModel.from_json(json.dumps(edited))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="scenario is not a JSON object"):
            ScenarioModel.from_json("[1, 2]")

    def test_non_finite_representative_rejected(self, raw):
        edited = copy.deepcopy(raw)
        edited["representatives"][0]["price"][3] = float("nan")
        with pytest.raises(DataFormatError, match="non-finite price"):
            ScenarioModel.from_json(json.dumps(edited))

    def test_consistent_scenario_accepted(self, raw):
        assert ScenarioModel.from_json(json.dumps(raw)).n_clusters == 2

    def test_older_layout_names_its_first_removed_field(self, raw):
        # the layout that also stored what the labels give
        older = {"n_clusters": 2, "centroids": [[0.0] * 12] * 2, **raw,
                 "weights": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]}
        with pytest.raises(ValueError, match=re.escape("scenario: unknown field 'n_clusters'")):
            ScenarioModel.from_json(json.dumps(older))
