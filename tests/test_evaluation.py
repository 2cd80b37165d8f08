import json
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fencedetect import cli
from fencedetect.evaluation import count_tn, match_events, metrics_from_counts


def test_match_within_tolerance():
    result = match_events([100.0], [100.5], 1.0)
    assert (result.tp, result.fp, result.fn) == (1, 0, 0)


def test_match_empty_detections():
    result = match_events([], [5.0], 1.0)
    assert (result.tp, result.fp, result.fn) == (0, 0, 1)


def test_match_greedy_takes_earliest():
    result = match_events([10.0, 10.2], [10.1], 0.5)
    assert (result.tp, result.fp) == (1, 1)
    assert result.pairs == ((0, 0),)
    assert result.unmatched_detections == (1,)
    assert result.unmatched_truths == ()


def test_match_rejects_unsorted():
    with pytest.raises(ValueError):
        match_events([2.0, 1.0], [], 0.5)
    with pytest.raises(ValueError):
        match_events([], [2.0, 1.0], 0.5)


@pytest.mark.parametrize("detected, truth, side", [
    ([float("nan"), 1.0], [0.5, 1.0], "detections"),
    ([0.5, 1.0], [1.0, float("nan")], "ground truth"),
])
def test_match_rejects_nan_times_naming_the_side(detected, truth, side):
    with pytest.raises(ValueError, match=f"NaN time in {side}"):
        match_events(detected, truth, 0.1)


def test_match_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        match_events([], [], -1.0)


def test_match_rejects_nan_tolerance():
    with pytest.raises(ValueError, match="tolerance_s"):
        match_events([1.0], [1.0], float("nan"))


def test_match_duplicate_truths_one_to_one():
    result = match_events([1.0], [1.0, 1.0], 0.5)
    assert (result.tp, result.fn) == (1, 1)
    assert result.pairs == ((0, 0),) and result.unmatched_truths == (1,)


def test_match_count_invariants_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        detected = np.sort(rng.uniform(0, 100, rng.integers(0, 20)))
        truth = np.sort(rng.uniform(0, 100, rng.integers(0, 20)))
        tol = float(rng.uniform(0, 5))
        result = match_events(detected, truth, tol)
        assert result.tp + result.fn == len(truth)
        assert result.tp + result.fp == len(detected)
        # every index lands on exactly one side, and each pair lies within the tolerance
        d, t = np.array(result.pairs, dtype=np.int64).reshape(-1, 2).T
        assert sorted([*d, *result.unmatched_detections]) == list(range(len(detected)))
        assert sorted([*t, *result.unmatched_truths]) == list(range(len(truth)))
        assert np.all(np.abs(detected[d] - truth[t]) <= tol)


def test_match_tolerance_monotonicity():
    rng = np.random.default_rng(32)
    for _ in range(100):
        detected = np.sort(rng.uniform(0, 50, rng.integers(0, 15)))
        truth = np.sort(rng.uniform(0, 50, rng.integers(0, 15)))
        tps = [match_events(detected, truth, tol).tp
               for tol in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert tps == sorted(tps)


def test_metrics_worked_example():
    m = metrics_from_counts(tp=8, fp=2, fn=2, tn=88)
    assert (m["precision"], m["recall"]) == (0.8, 0.8)
    assert m["f_measure"] == pytest.approx(0.8, rel=1e-12)
    assert m["accuracy"] == pytest.approx(0.96)


def test_metrics_zero_denominators():
    m = metrics_from_counts(tp=0, fp=0, fn=0, tn=10)
    assert (m["precision"], m["recall"], m["f_measure"]) == (0.0, 0.0, 0.0)
    assert m["accuracy"] == 1.0


def test_metrics_perfect_detection():
    m = metrics_from_counts(tp=40, fp=0, fn=0)
    assert (m["precision"], m["recall"], m["f_measure"]) == (1.0, 1.0, 1.0)


def test_metrics_bounded_and_precision_monotone():
    rng = np.random.default_rng(33)
    for _ in range(200):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 30, 4))
        m = metrics_from_counts(tp, fp, fn, tn)
        for value in (m["precision"], m["recall"], m["f_measure"], m["accuracy"]):
            assert 0.0 <= value <= 1.0
        worse = metrics_from_counts(tp, fp + 1, fn, tn)
        assert worse["precision"] <= m["precision"]


def test_metrics_rejects_negative_counts():
    with pytest.raises(ValueError):
        metrics_from_counts(-1, 0, 0, 0)


def test_metrics_from_counts_reads_match_result():
    match = match_events([1.0, 50.0], [1.2], 1.0)
    m = metrics_from_counts(match.tp, match.fp, match.fn, tn=7)
    assert (match.tp, match.fp, match.fn) == (1, 1, 0)
    assert m["precision"] == 0.5 and m["recall"] == 1.0 and m["tn"] == 7


_GEOMETRY = {"window_len": 6016, "sample_rate_hz": 6000.0}


def test_count_tn_no_truth():
    assert count_tn(np.arange(10) * 6016, np.zeros(10, bool), [], 1.0, **_GEOMETRY) == 10
    assert count_tn(np.arange(10) * 6016, np.zeros(10, bool), [], float("inf"),
                    **_GEOMETRY) == 10


def test_count_tn_excludes_windows_near_truth():
    starts, flags = np.array([0]), np.array([False])
    # event at 0.5 s sits inside the window span
    assert count_tn(starts, flags, [0.5], 1.0, **_GEOMETRY) == 0
    # event well past the widened span does not block the count
    assert count_tn(starts, flags, [10.0], 1.0, **_GEOMETRY) == 1


def test_count_tn_ignores_flagged_windows():
    assert count_tn(np.array([0, 6016]), np.array([True, False]), [], 0.0, **_GEOMETRY) == 1


def test_count_tn_empty():
    assert count_tn(np.array([], np.int64), np.array([], bool), [1.0], 1.0, **_GEOMETRY) == 0


def test_count_tn_takes_the_geometry_by_keyword_only():
    with pytest.raises(TypeError):
        count_tn(np.array([0]), np.array([False]), [], 1.0)
    with pytest.raises(TypeError):
        count_tn(np.array([0]), np.array([False]), [], 1.0, 6016, 6000.0)


def _count_tn_per_window(starts, flags, truth, tolerance_s, window_len, sample_rate_hz):
    """Reference: one bisect over the sorted truth times per unflagged window."""
    times = sorted(truth)
    tn = 0
    for start, flagged in zip(starts, flags):
        if flagged:
            continue
        lo = start / sample_rate_hz - tolerance_s
        hi = (start + window_len) / sample_rate_hz + tolerance_s
        i = bisect_left(times, lo)
        if i >= len(times) or times[i] > hi:
            tn += 1
    return tn


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    starts=st.lists(st.integers(0, 10**7), max_size=40),
    flags=st.lists(st.booleans(), min_size=40, max_size=40),
    truth=st.lists(st.one_of(st.floats(0, 2000), st.sampled_from([0.0, 1.0, 2.5])),
                   max_size=12),
    tolerance_s=st.one_of(st.floats(0, 50), st.sampled_from([0.0, 0.5, float("inf")])),
    window_len=st.sampled_from([1, 128, 3008, 6016]),
    sample_rate_hz=st.one_of(st.floats(1.0, 1e5), st.sampled_from([6000.0, 12000.0])),
)
def test_count_tn_matches_per_window_bisect(data, starts, flags, truth, tolerance_s, window_len,
                                            sample_rate_hz):
    flags = flags[:len(starts)]
    # some truths sit exactly on a widened window bound
    bounds = [b for s in starts for b in (s / sample_rate_hz - tolerance_s,
                                          (s + window_len) / sample_rate_hz + tolerance_s)]
    if bounds:
        truth = truth + data.draw(st.lists(st.sampled_from(bounds), max_size=4))
    expected = _count_tn_per_window(starts, flags, truth, tolerance_s, window_len,
                                    sample_rate_hz)
    got = count_tn(np.array(starts, np.int64), np.array(flags, bool), np.array(truth),
                   tolerance_s, window_len=window_len, sample_rate_hz=sample_rate_hz)
    assert got == expected
    # lists, as eval's row reader gives them, count the same
    assert count_tn(starts, flags, truth, tolerance_s, window_len=window_len,
                    sample_rate_hz=sample_rate_hz) == expected


def test_metrics_and_eval_output_key_order(tmp_path, capsys):
    m = metrics_from_counts(1, 0, 0, tn=3)
    assert list(m) == ["tp", "fp", "fn", "tn", "precision", "recall", "f_measure", "accuracy"]
    assert m["tp"] == 1 and m["tn"] == 3
    # eval prints the scores, then the tolerance and its settings
    events, truth = tmp_path / "events.jsonl", tmp_path / "truth.csv"
    events.write_text('{"config": {}}\n{"sample_index": 6000, "time_s": 1.0, "window_start": 0}\n')
    truth.write_text("1.1\n")
    assert cli.main(["eval", "--input", str(events), "--truth", str(truth),
                     "--tolerance", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [*m, "tolerance_s", "config"]
    assert payload["tolerance_s"] == 1.0
