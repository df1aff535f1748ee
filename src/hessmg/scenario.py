"""Representative-day synthesis.

Historical days are summarized by per-signal statistics, clustered with
k-means, and reduced to one representative day per cluster. A first-order
Markov chain fitted on the historical label sequence then generates the
synthetic optimization period.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass

import numpy as np

from .data import (INTEGER, NUMBER, OBJECT, SERIES, STRING, HistoricalDay, check_object,
                   list_of)

KMEANS_RESTARTS = 10     # seeded k-means++/Lloyd runs; the best one is kept
LLOYD_MAX_ITER = 300
LLOYD_TOL = 1e-12        # relative objective decrease that ends Lloyd
STATIONARY_MAX_ITER = 10_000
STATIONARY_TOL = 1e-14   # L1 change of the power iterate that ends it


def extract_features(days: list[HistoricalDay]) -> np.ndarray:
    """One row of features per day: mean/std/max/min of price, demand, and
    PV, each reduced over the steps of a (days x steps) array.

    Standard deviations are population statistics. Demand is the sum of
    charger and warehouse load. Every day holds the same number of steps.
    """
    if not days:
        raise ValueError("no historical days to summarize")
    signals = (np.array([d.price for d in days]),
               np.array([d.demand_ch + d.demand_wh for d in days]),
               np.array([d.pv_cf for d in days]))
    features = np.column_stack([reduce(signal, axis=1) for signal in signals
                                for reduce in (np.mean, np.std, np.max, np.min)])
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ValueError(f"{days[finite.argmin()].date}: non-finite feature")
    return features


def standardize(features: np.ndarray) -> np.ndarray:
    """Z-score each feature column; constant columns are left at zero."""
    mu = features.mean(axis=0)
    sigma = features.std(axis=0)
    safe = np.where(sigma > 0, sigma, 1.0)
    return (features - mu) / safe


def _kmeans_pp_init(x, w, rng):
    """k-means++ seeding: spread initial centroids by squared distance."""
    n = len(x)
    centroids = np.empty((w, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, w):
        total = d2.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
        else:
            centroids[j] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd(x, centroids):
    """Lloyd iterations; empty clusters are reseeded to the farthest point."""
    prev_obj = np.inf
    for _ in range(LLOYD_MAX_ITER):
        d2 = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        obj = d2[np.arange(len(x)), labels].sum()
        if obj > prev_obj + 1e-9 * max(1.0, abs(prev_obj)):
            raise RuntimeError(
                f"k-means objective increased from {prev_obj:.12g} to {obj:.12g}")
        for j in range(len(centroids)):
            members = x[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                centroids[j] = x[np.argmax(d2[np.arange(len(x)), labels])]
        if prev_obj - obj <= LLOYD_TOL * max(1.0, abs(prev_obj)):
            break
        prev_obj = obj
    d2 = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    obj = d2[np.arange(len(x)), labels].sum()
    return centroids, labels, obj


def kmeans(features: np.ndarray, w: int, seed: int):
    """Cluster standardized feature rows into w groups.

    Best of KMEANS_RESTARTS seeded k-means++/Lloyd runs; deterministic for a
    fixed seed. Returns (centroids, labels). More clusters than distinct
    rows would leave one empty, so `w` may not exceed their number.
    """
    x = np.asarray(features, dtype=float)
    distinct = len(np.unique(x, axis=0))
    if not 1 <= w <= distinct:
        why = f": the {len(x)} rows hold {distinct} distinct ones" if distinct < len(x) else ""
        raise ValueError(f"need 1 <= clusters <= {distinct}, got {w}{why}")
    best = None
    for restart in range(KMEANS_RESTARTS):
        rng = np.random.default_rng((seed, restart))
        centroids, labels, obj = _lloyd(x, _kmeans_pp_init(x, w, rng))
        if best is None or obj < best[2]:
            best = (centroids, labels, obj)
    return best[0], best[1]


def select_representatives(features, centroids, labels) -> np.ndarray:
    """Index of the day closest to each centroid; ties go to the lowest index."""
    d2 = np.sum((features - centroids[labels]) ** 2, axis=1)
    order = np.lexsort((d2, labels))    # by label, then distance, then index
    clusters, first = np.unique(labels[order], return_index=True)
    empty = np.setdiff1d(np.arange(len(centroids)), clusters)
    if len(empty):
        raise ValueError(f"cluster {empty[0]} is empty")
    return order[first]


def cluster_weights(labels) -> np.ndarray:
    """Empirical cluster probabilities: each cluster's share of the labels."""
    return np.bincount(labels) / len(labels)


def fit_transition(labels) -> np.ndarray:
    """Row-normalized day-to-day transition counts over the label sequence.

    A cluster never seen as a predecessor gets a uniform outgoing row.
    """
    w = int(np.max(labels)) + 1
    counts = np.zeros((w, w))
    np.add.at(counts, (labels[:-1], labels[1:]), 1.0)
    rows = counts.sum(axis=1, keepdims=True)
    out = np.where(rows > 0, counts / np.where(rows > 0, rows, 1.0), 1.0 / w)
    return out


def sample_sequence(transition, weights, t_syn: int, seed: int) -> np.ndarray:
    """Sample a t_syn-day cluster label sequence from the fitted chain.

    The initial state is drawn from `weights`. Every cluster must appear at
    least once; when the raw sample misses some, the last occurrences of the
    currently most frequent label are overwritten by the missing clusters in
    ascending order.
    """
    w = len(weights)
    if t_syn < w:
        raise ValueError(f"cannot cover all clusters: t_syn={t_syn} < clusters={w}")
    rng = np.random.default_rng(seed)
    seq = np.empty(t_syn, dtype=int)
    seq[0] = rng.choice(w, p=weights)
    for t in range(1, t_syn):
        seq[t] = rng.choice(w, p=transition[seq[t - 1]])
    for missing in sorted(set(range(w)) - set(seq.tolist())):
        counts = np.bincount(seq, minlength=w)
        donor = int(np.argmax(counts))
        seq[np.flatnonzero(seq == donor)[-1]] = missing
    return seq


# field -> its JSON type
_NUMBERS = list_of("a list of numbers", NUMBER)
_INTEGERS = list_of("a list of integers", INTEGER)
_SCENARIO_FIELDS = {
    "labels": _INTEGERS, "rep_days": _INTEGERS, "sequence": _INTEGERS,
    "representatives": list_of("a list of objects", OBJECT),
}
_ARRAYS = ("labels", "rep_days", "sequence")
_DAY_FIELDS = {"date": STRING, **dict.fromkeys(SERIES, _NUMBERS)}


@dataclass
class ScenarioModel:
    """The clustering of the historical days and the sampled synthetic day
    sequence: only what cannot be derived. The cluster count, weights and
    transition matrix follow from these fields; building an inconsistent
    scenario raises ValueError."""

    labels: np.ndarray           # cluster of each historical day
    rep_days: np.ndarray         # historical index of each cluster representative
    sequence: np.ndarray         # t_syn cluster labels
    representatives: list[HistoricalDay]  # one per cluster, index-aligned

    def __post_init__(self):
        self.validate()

    @property
    def n_clusters(self) -> int:
        return len(self.representatives)

    @property
    def weights(self) -> np.ndarray:
        """pi_w, each cluster's share of the historical days."""
        return cluster_weights(self.labels)

    @property
    def transition(self) -> np.ndarray:
        """(W, W) row-stochastic day-to-day transition matrix."""
        return fit_transition(self.labels)

    @property
    def synthetic_days(self) -> list[HistoricalDay]:
        return [self.representatives[j] for j in self.sequence]

    def validate(self):
        """Raise ValueError unless the fields fit together: W >= 1
        representatives, all of one nonzero step count that divides the
        1440 minutes of a day, labels that name clusters 0..W-1 only, each
        representative a day of its own cluster, and a sequence that visits
        every cluster and no other index."""
        w = len(self.representatives)
        if w < 1:
            raise ValueError("scenario holds no representatives")
        lengths = {len(d.price) for d in self.representatives}
        if len(lengths) != 1:
            raise ValueError("representatives differ in length")
        (steps,) = lengths
        if steps == 0:
            raise ValueError("representatives hold no steps")
        if 1440 % steps:
            raise ValueError(f"representatives hold {steps} steps a day, "
                             "which does not divide 1440")
        outside = self.labels[(self.labels < 0) | (self.labels >= w)]
        if len(outside):
            raise ValueError(f"labels name cluster {outside[0]}, outside 0..{w - 1}")
        if self.sequence.ndim != 1 or np.any((self.sequence < 0) | (self.sequence >= w)):
            raise ValueError("sequence index outside the representatives")
        if set(self.sequence.tolist()) != set(range(w)):
            raise ValueError("sequence does not visit every cluster")
        if (self.rep_days.shape != (w,)
                or np.any((self.rep_days < 0) | (self.rep_days >= len(self.labels)))
                or np.any(self.labels[self.rep_days] != np.arange(w))):
            raise ValueError("a representative is not a day of its own cluster")

    def to_json(self) -> str:
        raw = {name: getattr(self, name) for name in _ARRAYS}
        raw["representatives"] = [
            {"date": d.date.isoformat(), **{name: getattr(d, name) for name in SERIES}}
            for d in self.representatives]
        return json.dumps(raw, indent=2, default=np.ndarray.tolist)  # arrays as lists

    @classmethod
    def from_json(cls, text: str) -> "ScenarioModel":
        """Read a scenario written by `to_json`; raises ValueError (or
        DataFormatError for a day) when a field is missing or unknown, has
        another JSON type or its contents do not fit together."""
        raw = json.loads(text)
        check_object(raw, _SCENARIO_FIELDS, "scenario", required=_SCENARIO_FIELDS)
        reps = []
        for i, d in enumerate(raw["representatives"]):
            check_object(d, _DAY_FIELDS, "scenario", f"representatives[{i}].",
                         required=_DAY_FIELDS)
            try:
                date = dt.date.fromisoformat(d["date"])
            except ValueError as exc:
                raise ValueError(f"scenario: field 'representatives[{i}].date' "
                                 f"is not an ISO date ({exc})") from None
            reps.append(HistoricalDay(date, **{name: np.array(d[name]) for name in SERIES}))
        return cls(**{name: np.array(raw[name], dtype=int) for name in _ARRAYS},
                   representatives=reps)

    def __eq__(self, other):
        if not isinstance(other, ScenarioModel):
            return NotImplemented
        return (all(np.array_equal(getattr(self, a), getattr(other, a)) for a in _ARRAYS)
                and self.representatives == other.representatives)


def build_scenario(days: list[HistoricalDay], w: int, t_syn: int, seed: int) -> ScenarioModel:
    """Full pipeline: features -> k-means -> representatives -> chain -> sample."""
    features = standardize(extract_features(days))
    centroids, labels = kmeans(features, w, seed)
    reps = select_representatives(features, centroids, labels)
    sequence = sample_sequence(fit_transition(labels), cluster_weights(labels), t_syn, seed)
    return ScenarioModel(labels=labels, rep_days=reps, sequence=sequence,
                         representatives=[days[i] for i in reps])


def stationary_distribution(transition) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix by power iteration."""
    pi = np.full(len(transition), 1.0 / len(transition))
    for _ in range(STATIONARY_MAX_ITER):
        nxt = pi @ transition
        if np.abs(nxt - pi).sum() < STATIONARY_TOL:
            return nxt
        pi = nxt
    return pi
