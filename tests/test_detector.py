import itertools
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fencedetect
from fencedetect import detector
from fencedetect.detector import (
    DetectorConfig,
    classify_window,
    delta_p,
    detect,
    extract_series,
    forward_std,
    quantile,
    select_bin,
    tukey_fences,
)
from fencedetect.signal_io import (
    SampleStream,
    SyntheticSpec,
    generate_synthetic,
    read_waveform,
    write_synthetic,
)
from fencedetect.spectral import spectrogram
from fencedetect.windowing import Window, to_block_matrix, windows


def _spectrogram_like(rows=47, cols=65, fill=0.0):
    return np.full((rows, cols), fill)


def test_delta_p_constant_column_is_zero():
    f = _spectrogram_like(fill=3.7)
    assert np.all(delta_p(f) == 0.0)


def test_delta_p_constructed_separation():
    f = _spectrogram_like()
    f[24:, 5] = 10.0   # late half of bin 5 jumps
    f[23, 5] = 123.0   # middle row must not matter
    gaps = delta_p(f)
    assert gaps[5] == pytest.approx(10.0)
    assert np.all(np.delete(gaps, 5) == 0.0)


def test_delta_p_ignores_common_offset():
    rng = np.random.default_rng(21)
    f = np.abs(rng.standard_normal((47, 65)))
    shifted = f.copy()
    shifted[:, 12] += 4.2
    assert delta_p(shifted)[12] == pytest.approx(delta_p(f)[12], abs=1e-12)


def test_delta_p_even_row_count_uses_exact_halves():
    f = np.zeros((4, 3))
    f[2:, 1] = 2.0
    assert delta_p(f)[1] == pytest.approx(2.0)


def test_delta_p_needs_two_rows():
    with pytest.raises(ValueError):
        delta_p(np.zeros((1, 65)))


def test_select_bin_tie_breaks_low():
    selected, gap, _ = select_bin(_spectrogram_like())
    assert selected == 0
    assert gap == 0.0


def test_select_bin_finds_separating_column():
    f = _spectrogram_like()
    f[24:, 3] = 10.0
    assert select_bin(f)[0] == 3


def test_select_bin_scale_invariant():
    rng = np.random.default_rng(22)
    for _ in range(50):
        f = np.abs(rng.standard_normal((47, 65)))
        base = select_bin(f)[0]
        for alpha in (1e-3, 0.5, 7.0, 1e4):
            assert select_bin(alpha * f)[0] == base


def test_extract_series_copies_column():
    f = np.zeros((3, 4))
    f[:, 2] = [1.0, 2.0, 3.0]
    assert extract_series(f, 2).tolist() == [1.0, 2.0, 3.0]


def test_extract_series_length_is_row_count():
    f = np.zeros((47, 65))
    assert len(extract_series(f, 64)) == 47


def test_extract_series_rejects_bad_bin():
    with pytest.raises(ValueError):
        extract_series(np.zeros((47, 65)), 65)


def test_forward_std_constant_is_zero():
    assert np.all(forward_std(np.full(10, 2.2)) == 0.0)


def test_forward_std_hand_computed_value():
    # mean 1, squared deviations 1+1+1+9, divided by 4
    out = forward_std(np.array([0.0, 0.0, 0.0, 4.0]), 4)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_forward_std_shift_invariant():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(47)
    assert forward_std(x + 5.5) == pytest.approx(forward_std(x), abs=1e-9)


def test_forward_std_length_contract():
    rng = np.random.default_rng(24)
    for n in (4, 5, 10, 47):
        for w in (2, 3, 4):
            assert len(forward_std(rng.standard_normal(n), w)) == n - w + 1


def test_forward_std_too_short_rejected():
    with pytest.raises(ValueError):
        forward_std(np.zeros(3), 4)


def test_quantile_interpolation_examples():
    v = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    assert quantile(v, 0.25) == pytest.approx(2.0, abs=1e-12)
    assert quantile(v, 0.75) == pytest.approx(4.0, abs=1e-12)
    assert quantile(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == pytest.approx(2.5, abs=1e-12)
    assert quantile(np.array([3.3]), 0.99) == 3.3


def test_quantile_input_validation():
    with pytest.raises(ValueError):
        quantile(np.array([]), 0.5)
    with pytest.raises(ValueError):
        quantile(np.array([1.0]), 1.5)


def test_quantile_matches_numpy_oracle():
    rng = np.random.default_rng(25)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        style = rng.integers(0, 3)
        if style == 0:
            v = rng.standard_normal(n)
        elif style == 1:
            v = rng.integers(0, 4, n).astype(float)  # duplicate heavy
        else:
            v = np.full(n, float(rng.integers(-5, 5)))
        for q in (0.0, 0.25, 0.5, 0.75, 1.0, float(rng.random())):
            assert quantile(v, q) == pytest.approx(
                float(np.quantile(v, q, method="linear")), abs=1e-12)


def test_tukey_fences_worked_example():
    assert tukey_fences(np.array([1.0, 2.0, 3.0, 4.0, 100.0]), 0.5) == (2.0, 4.0, 1.0, 5.0)


def test_tukey_fences_degenerate_and_k_zero():
    assert tukey_fences(np.full(6, 3.3), 0.5)[2:] == (3.3, 3.3)
    assert tukey_fences(np.array([1.0, 2.0, 3.0, 4.0, 100.0]), 0.0)[2:] == (2.0, 4.0)


def test_fences_ordering_invariant():
    rng = np.random.default_rng(26)
    for _ in range(200):
        sigma = np.abs(rng.standard_normal(int(rng.integers(1, 60))))
        q1, q3, lo, hi = tukey_fences(sigma, float(rng.random() * 2))
        assert lo <= q1 <= q3 <= hi


def test_classify_window_flags_outlier():
    sigma = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    assert classify_window(sigma, *tukey_fences(sigma, 0.5)[2:]) == (True, 4)


def test_classify_window_boundary_is_inside():
    sigma = np.full(3, 2.0)
    assert classify_window(sigma, *tukey_fences(sigma, 0.5)[2:]) == (False, -1)


def test_classify_window_all_inside():
    sigma = np.array([2.0, 3.0, 4.0])
    _, _, lo, hi = tukey_fences(np.array([1.0, 2.0, 3.0, 4.0, 100.0]), 0.5)
    assert classify_window(sigma, lo, hi) == (False, -1)


def test_verdict_invariant_under_sigma_shift():
    rng = np.random.default_rng(27)
    for _ in range(100):
        sigma = np.abs(rng.standard_normal(44))
        base = classify_window(sigma, *tukey_fences(sigma, 0.5)[2:])
        shifted = sigma + 3.25
        assert classify_window(shifted, *tukey_fences(shifted, 0.5)[2:]) == base


def test_stages_on_a_stack_match_each_window():
    rng = np.random.default_rng(28)
    spec = np.abs(rng.standard_normal((30, 47, 65)))
    spec[::3, 20:, 7] += 5.0  # every third window steps in bin 7
    selected, gap, gaps = select_bin(spec)
    sigma = forward_std(extract_series(spec, selected))
    fences = tukey_fences(sigma, 0.5)
    flagged, first = classify_window(sigma, *fences[2:])
    assert ((first == -1) == ~flagged).all()
    for i, window in enumerate(spec):
        one = select_bin(window)
        assert (one[0], one[1]) == (selected[i], gap[i])
        assert one[2].tobytes() == gaps[i].tobytes()
        series_sigma = forward_std(extract_series(window, one[0]))
        assert series_sigma.tobytes() == sigma[i].tobytes()
        own = tukey_fences(series_sigma, 0.5)
        assert own == tuple(column[i] for column in fences)
        assert classify_window(series_sigma, *own[2:]) == (flagged[i], first[i])
    assert flagged[::3].all()


def test_detect_stationary_sinusoid_has_no_events():
    spec = SyntheticSpec(duration_s=20.0, noise_std_a=0.0, seed=5)
    stream, _ = generate_synthetic(spec)
    events, verdicts = detect(stream)
    assert len(events) == 0
    assert all(not v.is_event for v in verdicts)


def test_detect_single_step_event():
    # 1 A base stepping to 2 A at sample 30000
    spec = SyntheticSpec(duration_s=10.0, noise_std_a=0.01,
                         events=((5.0, 1.0),), seed=0)
    stream, _ = generate_synthetic(spec)
    events, _ = detect(stream)
    assert len(events) == 1
    assert abs(events[0].sample_index - 30000) <= 6016


def test_detect_deterministic():
    spec = SyntheticSpec(duration_s=10.0, noise_std_a=0.01,
                         events=((5.0, 1.0),), seed=0)
    stream, _ = generate_synthetic(spec)
    events_a, verdicts_a = detect(stream)
    events_b, verdicts_b = detect(stream)
    assert events_a.tobytes() == events_b.tobytes()
    assert verdicts_a.dtype == verdicts_b.dtype
    assert verdicts_a.tobytes() == verdicts_b.tobytes()


def test_detect_short_stream_is_empty_not_error():
    stream = SampleStream(np.zeros(100), 6000.0)
    events, verdicts = detect(stream)
    assert len(events) == 0 and len(verdicts) == 0


def test_detect_events_strictly_increasing_and_spans_merged():
    spec = SyntheticSpec(
        duration_s=30.0, noise_std_a=0.01, seed=3,
        events=((4.5, 0.8), (14.5, -0.8), (24.5, 0.9)),
        drift_depth=0.05)
    stream, _ = generate_synthetic(spec)
    events, verdicts = detect(stream)
    assert len(events) == 3
    indices = events.sample_index.tolist()
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)
    flagged = set(verdicts.window_start[verdicts.is_event].tolist())
    for ev in events:
        assert ev.window_start in flagged
        assert ev.window_start <= ev.sample_index < ev.window_start + 6016


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(k=-0.1)
    with pytest.raises(ValueError):
        DetectorConfig(std_window=1)
    with pytest.raises(ValueError):
        DetectorConfig(std_window=48)


@dataclass(frozen=True)
class _Row:
    """One window's verdict as the per-window reference computes it."""

    window_start: int
    is_event: bool
    first_outlier_block: int
    selected_bin: int
    delta_p: float
    per_bin_delta: np.ndarray
    q1: float
    q3: float
    lo: float
    hi: float


def _reference_detect(stream, cfg):
    """The stages one window at a time, each verdict a ``_Row``, then the run merge.

    Events are ``(sample_index, time_s, window_start)`` tuples.
    """
    block_len = cfg.block_len
    window_len = cfg.window_len
    verdicts = []
    for start in windows(stream, cfg).tolist():
        window = Window(start, stream.samples[start:start + window_len])
        spec = spectrogram(to_block_matrix(window, block_len))
        selected, gap, gaps = select_bin(spec)
        sigma = forward_std(extract_series(spec, selected), cfg.std_window)
        q1, q3, lo, hi = tukey_fences(sigma, cfg.k)
        flagged, first = classify_window(sigma, lo, hi)
        verdicts.append(_Row(start, bool(flagged), int(first), int(selected),
                             float(gap), gaps, float(q1), float(q3), float(lo), float(hi)))
    events = []
    in_run = False
    for v in verdicts:
        if v.is_event:
            index = v.window_start + v.first_outlier_block * block_len
            if not in_run and not (events and index <= events[-1][0]):
                events.append((index, index / stream.sample_rate_hz, v.window_start))
        in_run = v.is_event
    return events, verdicts


@st.composite
def _stepped_runs(draw):
    block = draw(st.sampled_from([8, 16, 32]))
    blocks = draw(st.integers(4, 10))
    window = block * blocks
    step = draw(st.one_of(
        st.just(window),                                      # back to back
        st.integers(1, blocks - 1).map(lambda b: b * block),  # overlap, block-aligned
        st.integers(1, window - 1),                           # overlap, any offset
        st.integers(window + 1, 3 * window),                  # gaps between windows
    ))
    cfg = DetectorConfig(
        window_len=window, step=step, block_len=block,
        k=draw(st.sampled_from([0.0, 0.5, 1.5])),
        std_window=draw(st.integers(2, min(blocks, 6))),
    )
    n = draw(st.integers(0, 12 * window))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = np.ones(n)
    for onset, delta in zip(rng.integers(0, max(n, 1), 4), rng.uniform(-1.0, 1.0, 4)):
        level[onset:] += delta
    samples = level * np.sin(2 * np.pi * np.arange(n) / 17.0)
    samples += draw(st.sampled_from([0.0, 1e-3, 0.2])) * rng.standard_normal(n)
    return SampleStream(samples, 6000.0), cfg


@pytest.mark.parametrize("chunk", [1, 3, detector.CHUNK_WINDOWS])
def test_columns_match_per_window_reference(monkeypatch, chunk):
    """Each example runs on 1, 2 and 3 worker threads against the one reference."""
    monkeypatch.setattr(detector, "CHUNK_WINDOWS", chunk)

    @settings(max_examples=60, deadline=None)
    @given(run=_stepped_runs())
    def check(run):
        stream, cfg = run
        expected_events, rows = _reference_detect(stream, cfg)
        names = [f.name for f in fields(_Row)]
        expected = {name: [getattr(v, name) for v in rows] for name in names}
        for workers in (1, 2, 3):
            monkeypatch.setattr(detector, "_workers", lambda: workers)
            events, verdicts = detect(stream, cfg)
            assert events.tolist() == expected_events, workers
            assert len(verdicts) == len(rows)
            for name, values in expected.items():
                column = getattr(verdicts, name)
                want = np.array(values, dtype=column.dtype).reshape(column.shape)
                assert column.tobytes() == want.tobytes(), (name, workers)
            assert list(verdicts.dtype.names) == names
            # the rows the record iterates as are the reference's rows
            for got, want in zip(verdicts, rows):
                got, want = vars(got), asdict(want)
                assert got.pop("per_bin_delta").tobytes() == want.pop("per_bin_delta").tobytes()
                assert got == want and all(type(got[name]) is type(want[name]) for name in got)

    check()


def test_many_threads_with_fast_switching_write_every_row_once(monkeypatch):
    spec = SyntheticSpec(duration_s=60.0, noise_std_a=0.01, seed=4,
                         events=((5.0, 1.0), (21.0, -0.6), (40.0, 0.4)))
    stream, _ = generate_synthetic(spec)
    monkeypatch.setattr(detector, "CHUNK_WINDOWS", 8)
    monkeypatch.setattr(detector, "_workers", lambda: 1)
    events, verdicts = detect(stream)
    monkeypatch.setattr(detector, "_workers", lambda: 8)  # one window per task
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        for _ in range(5):
            again_events, again = detect(stream)
            assert again_events.tobytes() == events.tobytes()
            assert again.tobytes() == verdicts.tobytes()
        assert time.perf_counter() - started < 30.0
    finally:
        sys.setswitchinterval(interval)


def test_worker_failure_surfaces_and_leaves_no_thread(monkeypatch):
    spec = SyntheticSpec(duration_s=30.0, noise_std_a=0.01, events=((5.0, 1.0),), seed=0)
    stream, _ = generate_synthetic(spec)
    monkeypatch.setattr(detector, "CHUNK_WINDOWS", 4)
    monkeypatch.setattr(detector, "_workers", lambda: 2)
    calls = itertools.count()

    def failing(blocks):
        if next(calls) >= 2:  # a later chunk
            raise MemoryError("cannot allocate the spectra")
        return spectrogram(blocks)

    monkeypatch.setattr(detector, "spectrogram", failing)
    before = threading.active_count()
    raised = []

    def run():
        try:
            detect(stream)
        except MemoryError as exc:
            raised.append(exc)

    caller = threading.Thread(target=run)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == ["cannot allocate the spectra"]
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", ["caller", "pool"])
def test_failure_on_the_caller_or_a_pool_thread_stops_every_thread(monkeypatch, failing):
    spec = SyntheticSpec(duration_s=30.0, noise_std_a=0.01, seed=0)
    stream, _ = generate_synthetic(spec)
    monkeypatch.setattr(detector, "CHUNK_WINDOWS", 4)  # 2 windows a chunk, 15 chunks
    monkeypatch.setattr(detector, "_workers", lambda: 2)
    caller = threading.get_ident()
    calls = itertools.count()

    def spectrogram_failing_on_one_thread(blocks):
        next(calls)
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise MemoryError(f"no spectra on the {failing} thread")
        time.sleep(0.05)  # the failing thread has time to take a chunk
        return spectrogram(blocks)

    monkeypatch.setattr(detector, "spectrogram", spectrogram_failing_on_one_thread)
    before = threading.active_count()
    with pytest.raises(MemoryError, match=f"on the {failing} thread"):
        detect(stream)
    assert threading.active_count() == before
    assert next(calls) < 8  # of 15 chunks: no thread took a chunk after the failure


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk", [1, 3, detector.CHUNK_WINDOWS])
@pytest.mark.parametrize("step", [6016, 128, 1000])
def test_file_mapped_stream_matches_its_in_memory_copy(tmp_path, monkeypatch, step, chunk,
                                                       workers):
    """Released chunks read back the same bytes, whichever chunk drops which pages."""
    monkeypatch.setattr(detector, "CHUNK_WINDOWS", chunk)
    monkeypatch.setattr(detector, "_workers", lambda: workers)
    path = tmp_path / "wave.f64"
    write_synthetic(SyntheticSpec(duration_s=12.0, noise_std_a=0.01, seed=3,
                                  events=((3.2, 0.8), (7.7, -0.5))), path)
    mapped, _ = read_waveform(path, "raw-f64le", 6000.0)
    assert isinstance(mapped.samples.base, np.memmap)
    in_memory = SampleStream(np.array(mapped.samples), 6000.0)
    cfg = DetectorConfig(step=step)
    events, verdicts = detect(mapped, cfg)
    want_events, want_verdicts = detect(in_memory, cfg)
    assert len(events) > 0
    assert events.tobytes() == want_events.tobytes()
    assert verdicts.tobytes() == want_verdicts.tobytes()


def _status_has(key: str) -> bool:
    try:
        with open("/proc/self/status") as fh:
            return any(line.startswith(key + ":") for line in fh)
    except OSError:
        return False


# reads a raw-f64le stream, detects, prints the process's peak RSS in KiB
_PEAK_OF_DETECT = """
import sys
from fencedetect.detector import detect
from fencedetect.signal_io import read_waveform
detect(read_waveform(sys.argv[1], "raw-f64le", 6000.0)[0])
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not _status_has("VmHWM"), reason="no VmHWM in /proc/self/status")
def test_detect_peak_memory_does_not_grow_with_a_mapped_streams_length(tmp_path):
    """A 20 min stream peaks within 10 MB of a 5 min one, in fresh processes.

    Both are longer than the ``CHUNK_WINDOWS`` windows in flight (256 windows,
    4.3 min), so both hold a full set of chunks; the 20 min file is 57.6 MB.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(fencedetect.__file__)), os.environ.get("PYTHONPATH")]))}
    peaks = []
    for minutes in (5, 20):
        path = tmp_path / f"wave{minutes}.f64"
        write_synthetic(SyntheticSpec(duration_s=60.0 * minutes, noise_std_a=0.01,
                                      events=((30.5, 0.8),)), path)
        done = subprocess.run([sys.executable, "-c", _PEAK_OF_DETECT, str(path)], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        peaks.append(int(done.stdout))
    assert peaks[1] - peaks[0] < 10 * 1024, f"peak KiB {peaks}"
