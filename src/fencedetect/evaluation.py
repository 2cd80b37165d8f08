"""Match detected events against ground truth and score the result."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MatchResult:
    """One-to-one ``(detection, truth)`` index pairs, and the unmatched indices of each side."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_detections: tuple[int, ...]
    unmatched_truths: tuple[int, ...]
    tolerance_s: float

    @property
    def tp(self) -> int:
        return len(self.pairs)

    @property
    def fp(self) -> int:
        return len(self.unmatched_detections)

    @property
    def fn(self) -> int:
        return len(self.unmatched_truths)


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f_measure: float
    accuracy: float
    tn: int


def _sorted_times(times: Sequence[float], what: str) -> list[float]:
    values = np.asarray(times, dtype=np.float64).tolist()
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be sorted ascending by time")
    return values


def match_events(
    detected_s: Sequence[float],
    truth_s: Sequence[float],
    tolerance_s: float,
) -> MatchResult:
    """Greedy chronological one-to-one matching of detection and truth times.

    Truths are scanned in order and each takes the earliest still-unmatched
    detection within ``tolerance_s`` seconds. Whatever remains unpaired on
    either side counts as a false positive or false negative. Both inputs
    must already be sorted ascending.
    """
    if not tolerance_s >= 0:  # NaN too
        raise ValueError(f"tolerance_s must be nonnegative, got {tolerance_s!r}")
    detected = _sorted_times(detected_s, "detections")
    truth = _sorted_times(truth_s, "ground truth")

    pairs = []
    false_pos = []
    false_neg = []
    j = 0
    for i, t in enumerate(truth):
        # detections too early for this truth are too early for all later ones
        while j < len(detected) and detected[j] < t - tolerance_s:
            false_pos.append(j)
            j += 1
        if j < len(detected) and detected[j] <= t + tolerance_s:
            pairs.append((j, i))
            j += 1
        else:
            false_neg.append(i)
    false_pos.extend(range(j, len(detected)))
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_detections=tuple(false_pos),
        unmatched_truths=tuple(false_neg),
        tolerance_s=tolerance_s,
    )


def metrics_from_counts(tp: int, fp: int, fn: int, tn: int = 0) -> Metrics:
    """Precision, recall, F-measure and accuracy, with 0 for empty ratios."""
    if min(tp, fp, fn, tn) < 0:
        raise ValueError("counts must be nonnegative")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f_measure = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    total = tp + tn + fp + fn
    accuracy = (tp + tn) / total if total else 0.0
    return Metrics(
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        accuracy=accuracy,
        tn=tn,
    )


def compute_metrics(match: MatchResult, tn: int = 0) -> Metrics:
    return metrics_from_counts(match.tp, match.fp, match.fn, tn)


def count_tn(
    window_start: np.ndarray,
    is_event: np.ndarray,
    truth_s: Sequence[float],
    tolerance_s: float,
    window_len: int = 6016,
    sample_rate_hz: float = 6000.0,
) -> int:
    """Count quiet windows that were rightly quiet.

    A true negative is an unflagged window (one entry of ``window_start``
    and ``is_event`` each) whose span, widened by the tolerance on both
    sides, contains no ground-truth event. Event lists alone cannot provide
    this count, hence the window granularity.
    """
    times = np.sort(np.asarray(truth_s, dtype=np.float64))
    starts = np.asarray(window_start)[~np.asarray(is_event, dtype=bool)]
    lo = starts / sample_rate_hz - tolerance_s
    hi = (starts + window_len) / sample_rate_hz + tolerance_s
    # the first truth at or after each lo; none, or one past hi, leaves the span clear
    first = np.searchsorted(times, lo)
    clear = (first == len(times)) | (np.append(times, np.inf)[first] > hi)
    return int(np.count_nonzero(clear))


def metrics_payload(match: MatchResult, metrics: Metrics) -> dict:
    """The canonical JSON-ready summary of one evaluation."""
    return {
        "tp": match.tp,
        "fp": match.fp,
        "fn": match.fn,
        "tn": metrics.tn,
        "precision": metrics.precision,
        "recall": metrics.recall,
        "f_measure": metrics.f_measure,
        "accuracy": metrics.accuracy,
        "tolerance_s": match.tolerance_s,
    }
