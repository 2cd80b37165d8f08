"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
PASS/FAIL verdict line (visible under ``pytest -s`` or on failure), so a
suite run shows at a glance which guarantees hold.
"""

import hashlib
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from fencedetect import cli, detector
from fencedetect.detector import (
    classify_window,
    detect,
    extract_series,
    forward_std,
    quantile,
    select_bin,
    tukey_fences,
)
from fencedetect.evaluation import match_events, metrics_from_counts
from fencedetect.signal_io import (
    SampleStream,
    SyntheticSpec,
    decimate,
    generate_synthetic,
    write_ground_truth,
    write_waveform,
)
from fencedetect.spectral import dft_naive, magnitude_spectrum, spectrogram
from fencedetect.windowing import Window, WindowingConfig, to_block_matrix, windows

RATE = 6000.0
WINDOW = 6016
BLOCK = 128
TOL_S = WINDOW / RATE


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)


def test_fft_oracle_equivalence_and_parseval():
    """FFT magnitudes agree with the definition-sum oracle and conserve energy."""
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst_rel = 0.0
    worst_parseval = 0.0
    for n in (8, 16, 32, 64, 128, 256, 512, 1024):
        batch = rng.standard_normal((1000, n))
        fast = spectrogram(batch)
        slow = np.abs(dft_naive(batch))
        scale = slow.max(axis=1, keepdims=True)
        kept = slow[:, : n // 2 + 1]
        worst_rel = max(worst_rel, float((np.abs(fast - kept) / scale).max()))
        time_energy = np.sum(batch**2, axis=1)
        # bins 1 .. n/2-1 stand for their mirrored upper twins too
        weights = np.full(n // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        freq_energy = np.sum(weights * fast**2, axis=1) / n
        worst_parseval = max(
            worst_parseval,
            float(np.max(np.abs(freq_energy - time_energy) / time_energy)),
        )
    elapsed = time.perf_counter() - started
    ok = worst_rel <= 1e-9 and worst_parseval <= 1e-9 and elapsed < 10.0
    _report("fft oracle + parseval", ok,
            f"rel_err={worst_rel:.2e} parseval_err={worst_parseval:.2e} "
            f"wall={elapsed:.2f}s")
    assert worst_rel <= 1e-9
    assert worst_parseval <= 1e-9
    assert elapsed < 10.0


def test_quantile_and_fences_against_independent_oracle():
    """Hand-rolled quantile/fences agree with numpy's linear method to 1e-12."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 201))
        kind = i % 3
        if kind == 0:
            values = 10.0 * rng.standard_normal(n)
        elif kind == 1:
            values = rng.integers(0, 5, n).astype(float)  # duplicate heavy
        else:
            values = np.full(n, float(rng.integers(-3, 4)))  # constant
        for q in (0.0, 0.25, 0.5, 0.75, 1.0, float(rng.random())):
            ref = float(np.quantile(values, q, method="linear"))
            worst = max(worst, abs(quantile(values, q) - ref))
        k = float(rng.random() * 2.0)
        _, _, lo, hi = tukey_fences(values, k)
        q1 = float(np.quantile(values, 0.25, method="linear"))
        q3 = float(np.quantile(values, 0.75, method="linear"))
        worst = max(worst, abs(lo - (q1 - k * (q3 - q1))))
        worst = max(worst, abs(hi - (q3 + k * (q3 - q1))))
    ok = worst <= 1e-12
    _report("quantile/fences oracle", ok, f"worst_abs_err={worst:.2e}")
    assert worst <= 1e-12


def test_pipeline_unit_examples():
    """Hand-derived regression values for every pipeline stage."""
    checks = []

    sigma = forward_std(np.array([0.0, 0.0, 0.0, 4.0]), 4)
    checks.append(abs(sigma[0] - math.sqrt(3.0)) <= 1e-12)

    series = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    checks.append(quantile(series, 0.25) == 2.0)
    checks.append(quantile(series, 0.75) == 4.0)
    checks.append(quantile(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.5)
    _, _, lo, hi = tukey_fences(series, 0.5)
    checks.append((lo, hi) == (1.0, 5.0))
    checks.append(classify_window(series, lo, hi) == (True, 4))

    stream = SampleStream(np.arange(12001.0), 12000.0)
    checks.append(len(decimate(stream, 2)) == 6001)

    small = SampleStream(np.arange(6400.0), RATE)
    starts = windows(small, WindowingConfig(step=128))
    checks.append(starts.tolist() == [0, 128, 256, 384])

    matrix = to_block_matrix(Window(0, np.arange(1.0, 6017.0)), BLOCK)
    checks.append(matrix[1, 0] == 129.0 and matrix[46, 127] == 6016.0)

    checks.append(magnitude_spectrum(np.zeros(BLOCK)).shape == (65,))
    rng = np.random.default_rng(1003)
    spec47 = spectrogram(rng.standard_normal((47, BLOCK)))
    checks.append(spec47.shape == (47, 65))
    checks.append(len(extract_series(spec47, select_bin(spec47)[0])) == 47)

    x16 = rng.standard_normal(16)
    oracle16 = np.abs(dft_naive(x16))
    err = np.max(np.abs(magnitude_spectrum(x16) - oracle16[:9])) / np.max(oracle16)
    checks.append(err <= 1e-9)

    m = metrics_from_counts(tp=8, fp=2, fn=2, tn=88)
    checks.append((m.precision, m.recall) == (0.8, 0.8))
    checks.append(abs(m.f_measure - 0.8) <= 1e-12 and m.accuracy == 0.96)

    step_spec = SyntheticSpec(duration_s=10.0, noise_std_a=0.01,
                              events=((5.0, 1.0),), seed=0)
    step_stream, _ = generate_synthetic(step_spec)
    events, _ = detect(step_stream)
    checks.append(len(events) == 1 and abs(events[0].sample_index - 30000) <= WINDOW)

    ok = all(checks)
    _report("pipeline unit examples", ok,
            f"{sum(checks)}/{len(checks)} examples hold")
    assert all(checks), [i for i, c in enumerate(checks) if not c]


def _event_schedule(rng):
    """25 on/off pairs with every step placed away from window boundaries."""
    events = []
    win = 4
    for _ in range(25):
        delta = 0.3 + 0.5 * rng.random()
        won = win
        woff = won + 2 + int(rng.integers(0, 4))
        win = woff + 4 + int(rng.integers(0, 14))
        on_block = int(rng.integers(10, 37))
        off_block = int(rng.integers(10, 37))
        events.append(((won * WINDOW + on_block * BLOCK) / RATE, +delta))
        events.append(((woff * WINDOW + off_block * BLOCK) / RATE, -delta))
    return events


def _ten_minute_spec():
    return SyntheticSpec(
        duration_s=600.0, mains_hz=60.0, base_amplitude_a=1.0,
        noise_std_a=0.01, events=tuple(_event_schedule(np.random.default_rng(0))),
        seed=0, sample_rate_hz=RATE, drift_depth=0.05, drift_period_s=10.0,
    )


def test_synthetic_end_to_end_detection_quality():
    """10 minutes, 50 seeded on/off steps: high recall and precision, fast."""
    spec = _ten_minute_spec()
    assert len(spec.events) == 50
    assert all(abs(delta) >= 0.3 for _, delta, _ in spec.events)
    started = time.perf_counter()
    stream, truth = generate_synthetic(spec)
    assert len(stream) == 3_600_000
    events, _ = detect(stream)
    truth_s = np.array([t.time_s for t in truth])
    match = match_events(events.time_s, truth_s, TOL_S)
    elapsed = time.perf_counter() - started

    metrics = metrics_from_counts(match.tp, match.fp, match.fn)
    detected, truths = np.array(match.pairs, dtype=np.int64).reshape(-1, 2).T
    worst_offset = float(np.max(np.abs(events.time_s[detected] - truth_s[truths]), initial=0.0))
    ok = (metrics.recall >= 0.95 and metrics.precision >= 0.90
          and worst_offset <= TOL_S and elapsed < 10.0)
    _report("synthetic end-to-end", ok,
            f"tp={match.tp} fp={match.fp} fn={match.fn} "
            f"precision={metrics.precision:.3f} recall={metrics.recall:.3f} "
            f"worst_offset={worst_offset:.3f}s wall={elapsed:.2f}s")
    assert metrics.recall >= 0.95
    assert metrics.precision >= 0.90
    assert worst_offset <= TOL_S
    assert elapsed < 10.0


def _phase_schedule(rng, pairs=9):
    events = []
    win = 4
    for _ in range(pairs):
        delta = 0.35 + 0.45 * rng.random()
        won = win
        woff = won + 2 + int(rng.integers(0, 3))
        win = woff + 2 + int(rng.integers(0, 4))
        on_block = int(rng.integers(10, 37))
        off_block = int(rng.integers(10, 37))
        events.append(((won * WINDOW + on_block * BLOCK) / RATE, +delta))
        events.append(((woff * WINDOW + off_block * BLOCK) / RATE, -delta))
    return events


@pytest.fixture(scope="module")
def two_phase_csv(tmp_path_factory):
    """Two 12 kHz current channels in one layout csv, and each phase's truth."""
    phases = {}
    for name, seed in (("a", 0), ("b", 100)):
        schedule = _phase_schedule(np.random.default_rng(seed))
        spec = SyntheticSpec(
            duration_s=90.0, mains_hz=60.0, base_amplitude_a=1.0,
            noise_std_a=0.01, events=tuple(schedule), seed=seed,
            sample_rate_hz=12000.0, drift_depth=0.05, drift_period_s=10.0,
        )
        phases[name] = generate_synthetic(spec)

    n = len(phases["a"][0].samples)
    table = np.column_stack([
        np.arange(n) / 12000.0,
        phases["a"][0].samples,
        phases["b"][0].samples,
        np.full(n, 120.0),
    ])
    csv_path = tmp_path_factory.mktemp("two_phase") / "location_001_phases.csv"
    with open(csv_path, "w") as fh:
        fh.write("X_Value,Current_A,Current_B,VoltageA\n")
        np.savetxt(fh, table, fmt="%.8g", delimiter=",")
    return csv_path, {name: truth for name, (_, truth) in phases.items()}


def test_two_phase_high_rate_layout_run(tmp_path, two_phase_csv):
    """Two 12 kHz current channels in one csv, detected and scored per phase."""
    csv_path, truths = two_phase_csv
    totals = {"tp": 0, "fp": 0, "fn": 0}
    for name in ("a", "b"):
        truth_path = tmp_path / f"truth_{name}.csv"
        write_ground_truth(truths[name], truth_path)
        events_path = tmp_path / f"events_{name}.jsonl"
        metrics_path = tmp_path / f"metrics_{name}.json"
        assert cli.main(["detect", "--input", str(csv_path),
                         "--bled-layout", name, "--out", str(events_path)]) == 0
        assert cli.main(["eval", "--input", str(events_path),
                         "--truth", str(truth_path),
                         "--out", str(metrics_path)]) == 0
        payload = json.loads(metrics_path.read_text())
        for key in totals:
            totals[key] += payload[key]

    metrics = metrics_from_counts(**totals)
    ok = (metrics.precision >= 0.97 and metrics.recall >= 0.96
          and metrics.f_measure >= 0.97)
    _report("two-phase 12 kHz layout run", ok,
            f"tp={totals['tp']} fp={totals['fp']} fn={totals['fn']} "
            f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} "
            f"f_measure={metrics.f_measure:.4f}")
    assert metrics.precision >= 0.97
    assert metrics.recall >= 0.96
    assert metrics.f_measure >= 0.97


# sha256 of the event and verdict rows after the config header, recorded
# from the per-window detector built on a hand-rolled radix-2 FFT before the
# batched rFFT path replaced it. The step-128 events are those rows less a
# repeated row at sample 172544, which now folds into the event before it.
GOLDEN_ROWS = {
    "ten_minute.events": "aaa7bd02a775ef9eb2a638d28b60c951e6e0fe6a0b244d5ca2580c58302689ff",
    "ten_minute.verdicts": "cc292a4f6c05458a7df4033c2dd390c1d79302d9345400f9a347c95a85ce744a",
    "phase_a.events": "f6a76abca14819ffad61b4f3727c7ec721f46e1e557875d2eb22ebe0268d8864",
    "phase_a.verdicts": "c3b155e14e5a0fc9e7f45279e51cc656b36c9bf0a9f1c740a0d55c4085bb3d04",
    "phase_b.events": "ac4ca6173a97fcfaaf3fa2a13572cd3cd0dc872540642ee728bd133d81f4c167",
    "phase_b.verdicts": "6cee1507629a17490697e6153c46ef67a3692b12da5b5f1c9101630e67d31e95",
    "step_128.events": "0aee7a4733e803773b61f08982c5d9a5fedf7a65b4fe40a9cdcedad494f3db06",
    "step_128.verdicts": "b7c2a86e2a6058364555c18480ffa9dc02e21876d8d8ff9e7ab97bcba5c6a4bc",
}


# sha256 of the 10-minute acceptance stream's float64 bytes, as rendered
# by the whole-array generator before it worked in chunks
TEN_MINUTE_STREAM_SHA256 = "d42c1e20725538ba2deb851c9f6ca430d4b7710961b2858793546c9a3fa67437"


def test_ten_minute_stream_matches_recorded_digest():
    stream, _ = generate_synthetic(_ten_minute_spec())
    digest = hashlib.sha256(stream.samples.tobytes()).hexdigest()
    _report("ten-minute stream matches recorded digest", digest == TEN_MINUTE_STREAM_SHA256)
    assert digest == TEN_MINUTE_STREAM_SHA256


def test_generator_peak_memory_is_about_its_output():
    spec = _ten_minute_spec()
    margin = 16 * 2**20
    tracemalloc.start()
    try:
        stream, _ = generate_synthetic(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ok = peak <= stream.samples.nbytes + margin
    _report("generator peak memory", ok,
            f"peak={peak / 2**20:.1f} MiB output={stream.samples.nbytes / 2**20:.1f} MiB")
    assert ok


def test_ten_minute_output_is_the_same_on_one_and_two_threads(monkeypatch):
    stream, _ = generate_synthetic(_ten_minute_spec())
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(detector, "_workers", lambda: workers)
        runs.append(detect(stream))
    (events_1, verdicts_1), (events_2, verdicts_2) = runs
    differing = [name for name in verdicts_1.dtype.names
                 if verdicts_1[name].tobytes() != verdicts_2[name].tobytes()]
    ok = events_1.tobytes() == events_2.tobytes() and not differing and len(events_1) >= 50
    _report("same output on 1 and 2 threads", ok,
            f"events={len(events_1)}/{len(events_2)} "
            f"differing columns: {', '.join(differing) or 'none'}")
    assert ok


def test_detect_peak_memory_does_not_grow_with_threads(monkeypatch):
    """Two threads hold no more chunk data at once than one thread does."""
    stream, _ = generate_synthetic(_ten_minute_spec())
    peaks = {}
    for workers in (1, 2):
        monkeypatch.setattr(detector, "_workers", lambda: workers)
        tracemalloc.start()
        try:
            detect(stream)
            _, peaks[workers] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    ok = peaks[2] <= peaks[1] + 2**20
    _report("detect peak memory on 2 threads", ok,
            f"1 thread {peaks[1] / 2**20:.1f} MiB, 2 threads {peaks[2] / 2**20:.1f} MiB")
    assert ok


def _rows_sha256(path) -> str:
    data = path.read_bytes()
    return hashlib.sha256(data[data.index(b"\n") + 1:]).hexdigest()


def test_rows_match_recorded_digests(tmp_path, two_phase_csv):
    """Detect rows on the acceptance streams and a --step 128 run are pinned."""
    ten_minutes = tmp_path / "ten_minute.f64"
    write_waveform(generate_synthetic(_ten_minute_spec())[0], ten_minutes, "raw-f64le")
    thirty = tmp_path / "thirty.f64"
    assert cli.main(["synth", "--duration", "30", "--noise-std", "0.01",
                     "--drift-depth", "0.05", "--seed", "17",
                     "--event", "4.5:0.6", "--event", "14.5:-0.6",
                     "--out", str(thirty), "--truth", str(tmp_path / "t.csv")]) == 0
    csv_path, _ = two_phase_csv
    runs = {
        "ten_minute": ["--input", str(ten_minutes), "--format", "raw-f64le"],
        "phase_a": ["--input", str(csv_path), "--bled-layout", "a"],
        "phase_b": ["--input", str(csv_path), "--bled-layout", "b"],
        "step_128": ["--input", str(thirty), "--format", "raw-f64le", "--step", "128"],
    }
    digests = {}
    for name, argv in runs.items():
        paths = {kind: tmp_path / f"{name}.{kind}" for kind in ("events", "verdicts")}
        assert cli.main(["detect", *argv, "--out", str(paths["events"]),
                         "--verdicts", str(paths["verdicts"])]) == 0
        for kind, path in paths.items():
            digests[f"{name}.{kind}"] = _rows_sha256(path)
    differing = sorted(key for key, digest in GOLDEN_ROWS.items() if digests[key] != digest)
    _report("rows match recorded digests", not differing,
            f"differing: {', '.join(differing) or 'none'}")
    assert differing == []


def test_property_suites(tmp_path):
    """Scaling/shift invariances, matcher count identities, determinism."""
    rng = np.random.default_rng(1006)
    ok = True

    for _ in range(200):
        f = np.abs(rng.standard_normal((47, 65)))
        base = select_bin(f)[0]
        alpha = float(10.0 ** rng.uniform(-3, 3))
        ok &= select_bin(alpha * f)[0] == base

    for _ in range(200):
        sigma = np.abs(rng.standard_normal(44))
        shift = float(rng.uniform(0.1, 10.0))
        before = classify_window(sigma, *tukey_fences(sigma, 0.5)[2:])
        after = classify_window(sigma + shift, *tukey_fences(sigma + shift, 0.5)[2:])
        ok &= before == after

    for _ in range(200):
        detected = np.sort(rng.uniform(0, 100, int(rng.integers(0, 15))))
        truth = np.sort(rng.uniform(0, 100, int(rng.integers(0, 15))))
        result = match_events(detected, truth, float(rng.uniform(0, 3)))
        ok &= result.tp + result.fn == len(truth)
        ok &= result.tp + result.fp == len(detected)

    # end-to-end determinism through the cli, byte for byte
    waves, truths, events, verdicts = [], [], [], []
    for run in ("first", "second"):
        wave = tmp_path / f"{run}.f64"
        truth = tmp_path / f"{run}.truth.csv"
        assert cli.main(["synth", "--duration", "30", "--noise-std", "0.01",
                         "--drift-depth", "0.05", "--seed", "17",
                         "--event", "4.5:0.6", "--event", "14.5:-0.6",
                         "--out", str(wave), "--truth", str(truth)]) == 0
        ev = tmp_path / f"{run}.events.jsonl"
        vd = tmp_path / f"{run}.verdicts.jsonl"
        assert cli.main(["detect", "--input", str(wave),
                         "--format", "raw-f64le",
                         "--out", str(ev), "--verdicts", str(vd)]) == 0
        waves.append(wave.read_bytes())
        truths.append(truth.read_bytes())
        # the events file embeds its own output path; compare event rows
        events.append([l for l in ev.read_text().splitlines()[1:]])
        verdicts.append([l for l in vd.read_text().splitlines()[1:]])
    ok &= waves[0] == waves[1]
    ok &= truths[0] == truths[1]
    ok &= events[0] == events[1] and len(events[0]) >= 2
    ok &= verdicts[0] == verdicts[1]

    _report("property suites", ok)
    assert ok
