"""Quality evaluation of flow estimates against simulated ground truth.

The paper evaluates query *performance*; with a simulator we can also
measure how well the probabilistic flows track reality.  Given a
:class:`~repro.datagen.dataset.Dataset` (which carries ground-truth
trajectories), this module computes:

* **occupancy truth** — how many objects actually were in each POI at a
  time point / during a window;
* **ranking agreement** — precision@k and Spearman rank correlation of the
  flow ranking vs the truth ranking;
* **presence calibration** — presence values are probabilities ("object o
  is in POI p with probability φ"); a reliability table bins predictions
  and compares each bin's mean against the empirical frequency, the
  standard calibration diagnostic.

These metrics quantify the model's documented coarseness (symbolic
tracking uses no negative information, so flows smear toward central
locations — see ``examples/shopping_mall.py``) instead of hand-waving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core.engine import FlowEngine
from .core.states import interval_contexts, snapshot_contexts
from .datagen.dataset import Dataset
from .geometry import near_zero

__all__ = [
    "CalibrationBin",
    "snapshot_truth",
    "interval_truth",
    "precision_at_k",
    "spearman_correlation",
    "snapshot_presence_calibration",
    "interval_presence_calibration",
]


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------


def snapshot_truth(dataset: Dataset, t: float) -> dict[str, int]:
    """How many objects truly are inside each POI at time ``t``."""
    counts: dict[str, int] = {}
    for trajectory in dataset.trajectories:
        if not trajectory.t_start <= t <= trajectory.t_end:
            continue
        position = trajectory.position_at(t)
        for poi in dataset.pois:
            if poi.polygon.contains(position):
                counts[poi.poi_id] = counts.get(poi.poi_id, 0) + 1
    return counts


def interval_truth(
    dataset: Dataset, t_start: float, t_end: float, step: float = 5.0
) -> dict[str, int]:
    """How many objects truly visited each POI during the window."""
    counts: dict[str, int] = {}
    for trajectory in dataset.trajectories:
        for poi in dataset.pois:
            if trajectory.ever_inside(poi.polygon, t_start, t_end, step=step):
                counts[poi.poi_id] = counts.get(poi.poi_id, 0) + 1
    return counts


# ----------------------------------------------------------------------
# Ranking agreement
# ----------------------------------------------------------------------


def precision_at_k(
    predicted: Mapping[str, float], truth: Mapping[str, int], k: int
) -> float:
    """Fraction of the predicted top-k that is in the true top-k.

    Ties are broken by key for determinism.  ``k`` is clamped to the
    number of keys available.
    """
    if k < 1:
        raise ValueError("k must be positive")
    keys = sorted(set(predicted) | set(truth))
    if not keys:
        return 1.0
    k = min(k, len(keys))
    top_predicted = set(
        sorted(keys, key=lambda key: (-predicted.get(key, 0.0), key))[:k]
    )
    top_truth = set(sorted(keys, key=lambda key: (-truth.get(key, 0), key))[:k])
    return len(top_predicted & top_truth) / k


def spearman_correlation(
    predicted: Mapping[str, float], truth: Mapping[str, int]
) -> float:
    """Spearman rank correlation over the union of keys (0.0 if degenerate)."""
    keys = sorted(set(predicted) | set(truth))
    if len(keys) < 2:
        return 0.0
    a = np.array([predicted.get(key, 0.0) for key in keys], dtype=float)
    b = np.array([float(truth.get(key, 0)) for key in keys], dtype=float)

    def ranks(values: np.ndarray) -> np.ndarray:
        order = np.argsort(values, kind="stable")
        result = np.empty(len(values), dtype=float)
        result[order] = np.arange(len(values), dtype=float)
        # Average ranks of ties.
        for value in np.unique(values):
            mask = values == value
            result[mask] = result[mask].mean()
        return result

    ra, rb = ranks(a), ranks(b)
    if near_zero(float(ra.std())) or near_zero(float(rb.std())):
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


# ----------------------------------------------------------------------
# Presence calibration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationBin:
    """One reliability-diagram bin."""

    lower: float
    upper: float
    count: int
    mean_predicted: float
    empirical_frequency: float

    @property
    def gap(self) -> float:
        """Calibration error of this bin (prediction minus reality)."""
        return self.mean_predicted - self.empirical_frequency


def _calibrate(
    pairs: list[tuple[float, bool]], bins: int
) -> list[CalibrationBin]:
    if bins < 1:
        raise ValueError("bins must be positive")
    edges = np.linspace(0.0, 1.0, bins + 1)
    result = []
    predictions = np.array([p for p, _ in pairs], dtype=float)
    outcomes = np.array([o for _, o in pairs], dtype=float)
    for i in range(bins):
        low, high = float(edges[i]), float(edges[i + 1])
        if i == bins - 1:
            mask = (predictions >= low) & (predictions <= high)
        else:
            mask = (predictions >= low) & (predictions < high)
        count = int(mask.sum())
        if count == 0:
            continue
        result.append(
            CalibrationBin(
                lower=low,
                upper=high,
                count=count,
                mean_predicted=float(predictions[mask].mean()),
                empirical_frequency=float(outcomes[mask].mean()),
            )
        )
    return result


def snapshot_presence_calibration(
    dataset: Dataset,
    engine: FlowEngine,
    times: Sequence[float],
    bins: int = 10,
) -> list[CalibrationBin]:
    """Reliability of snapshot presence as a probability.

    For every (object, POI) pair at every probe time, the predicted
    presence is compared with whether the object truly was in the POI.
    Pairs with zero predicted presence and a false outcome are skipped
    (they are trivially correct and would swamp the first bin).
    """
    pairs: list[tuple[float, bool]] = []
    for t in times:
        for context in snapshot_contexts(engine.artrees, t):
            # Regions and sample counts go through the engine's evaluation
            # context, so calibration sees exactly the cached counts the
            # queries use (and reuses them instead of re-deriving).
            region = engine.ctx.snapshot_region(context)
            fingerprint = engine.ctx.snapshot_fingerprint(context)
            truth_position = dataset.trajectory_of(context.object_id).position_at(t)
            for poi in dataset.pois:
                count = engine.ctx.count(region, poi, fingerprint)
                actually_inside = poi.polygon.contains(truth_position)
                if count == 0 and not actually_inside:
                    continue
                presence = count / engine.ctx.estimator.sample_count(poi)
                pairs.append((presence, actually_inside))
    return _calibrate(pairs, bins)


def interval_presence_calibration(
    dataset: Dataset,
    engine: FlowEngine,
    windows: Sequence[tuple[float, float]],
    bins: int = 10,
    step: float = 5.0,
) -> list[CalibrationBin]:
    """Reliability of interval presence as a visit probability."""
    pairs: list[tuple[float, bool]] = []
    for t_start, t_end in windows:
        for context in interval_contexts(engine.artrees, t_start, t_end):
            uncertainty = engine.ctx.interval_uncertainty(context)
            fingerprint = engine.ctx.interval_fingerprint(uncertainty)
            trajectory = dataset.trajectory_of(context.object_id)
            for poi in dataset.pois:
                count = engine.ctx.count(uncertainty.region, poi, fingerprint)
                visited = trajectory.ever_inside(
                    poi.polygon, t_start, t_end, step=step
                )
                if count == 0 and not visited:
                    continue
                presence = count / engine.ctx.estimator.sample_count(poi)
                pairs.append((presence, visited))
    return _calibrate(pairs, bins)
