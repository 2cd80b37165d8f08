"""Seeded inputs and CLI call plans for the benchmark workloads.

Every workload is a list of input sets. An input set is what one user pass
needs: the ``synth`` calls that make its files, an optional step that turns
those files into the detector's input, the ``detect --verdicts`` calls and
the ``eval --verdicts`` calls. All argument lists are plain ``fencedetect``
command lines; the program only ever sees the generated files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

RATE = 6000.0
BLED_RATE = 12000.0
WINDOW = 6016
BLOCK = 128
NOISE_STD = 0.01
DRIFT_DEPTH = 0.05
BLED_HEADER = "X_Value,Current_A,Current_B,VoltageA\n"
MAINS_VOLTAGE = 120.0


@dataclass(frozen=True)
class DetectCall:
    argv: list[str]
    events: Path
    verdicts: Path
    windows: int  # the window count the input must produce
    step: int


@dataclass(frozen=True)
class EvalCall:
    argv: list[str]  # no --out: the benchmark reads the scores eval prints
    events: Path
    name: str  # names the call in failures and first-run digests
    truth_events: int


@dataclass(frozen=True)
class InputSet:
    synth: list[list[str]]
    build: Callable[[], Path] | None  # makes the detect input from the synth files
    build_output: Path | None
    detect: list[DetectCall]
    evals: list[EvalCall]
    recording_s: float  # seconds of signal one detect call covers


@dataclass(frozen=True)
class Workload:
    name: str
    make_set: Callable  # (rng, workdir, tag, duration_s) -> InputSet
    # (full, smoke) stream length in seconds
    duration_s: tuple[float, float]
    # (full, smoke) independent input sets per run, all drawn from the seed
    sets: tuple[int, int]
    quality_floor: dict | None  # {"recall": .., "precision": ..} at full size


def _pairs(rng, n_windows, on_gap, off_gap, delta_lo, delta_span):
    """On/off step pairs, each step 10 to 36 blocks into its window.

    Steps sit away from window edges so a non-overlapping window sees the
    whole change; gaps are counted in windows of the 6 kHz grid.
    """
    events = []
    win = 4
    while True:
        delta = delta_lo + delta_span * rng.random()
        on_win = win
        off_win = on_win + on_gap[0] + int(rng.integers(0, on_gap[1]))
        win = off_win + off_gap[0] + int(rng.integers(0, off_gap[1]))
        on_block = int(rng.integers(10, 37))
        off_block = int(rng.integers(10, 37))
        if off_win >= n_windows - 1:
            return events
        events.append(((on_win * WINDOW + on_block * BLOCK) / RATE, delta))
        events.append(((off_win * WINDOW + off_block * BLOCK) / RATE, -delta))


def hour_schedule(rng, duration_s):
    """About one pair per 14 windows, as in the tier-1 acceptance stream."""
    return _pairs(rng, int(duration_s * RATE) // WINDOW, (2, 4), (4, 14), 0.3, 0.5)


def phase_schedule(rng, duration_s):
    """Denser pairs, as in the tier-1 two-phase layout run."""
    return _pairs(rng, int(duration_s * RATE) // WINDOW, (2, 3), (2, 4), 0.35, 0.45)


def synth_argv(duration_s, rate, seed, events, wave, truth):
    argv = [
        "synth", "--duration", repr(duration_s), "--rate", repr(rate),
        "--noise-std", repr(NOISE_STD), "--drift-depth", repr(DRIFT_DEPTH),
        "--seed", str(seed), "--out", str(wave), "--truth", str(truth),
    ]
    for time_s, delta in events:
        argv += ["--event", f"{time_s!r}:{delta!r}"]
    return argv


def window_count(samples, step):
    return 0 if samples < WINDOW else (samples - WINDOW) // step + 1


def _raw_set(rng, workdir, tag, duration_s, step, schedule):
    wave = workdir / f"{tag}.f64"
    truth = workdir / f"{tag}.truth.csv"
    events_path = workdir / f"{tag}.events.jsonl"
    verdicts = workdir / f"{tag}.verdicts.jsonl"
    events = schedule(rng, duration_s)
    seed = int(rng.integers(0, 2**31))
    detect_argv = [
        "detect", "--input", str(wave), "--format", "raw-f64le",
        "--step", str(step), "--out", str(events_path), "--verdicts", str(verdicts),
    ]
    eval_argv = [
        "eval", "--input", str(events_path), "--truth", str(truth),
        "--verdicts", str(verdicts),
    ]
    samples = int(round(duration_s * RATE))
    return InputSet(
        synth=[synth_argv(duration_s, RATE, seed, events, wave, truth)],
        build=None,
        build_output=None,
        detect=[DetectCall(detect_argv, events_path, verdicts,
                           window_count(samples, step), step)],
        evals=[EvalCall(eval_argv, events_path, f"{tag}.eval", len(events))],
        recording_s=duration_s,
    )


def write_bled_csv(path, phase_a, phase_b, rate):
    """Two current phases as a time, A, B, voltage text export."""
    a = np.fromfile(phase_a, dtype="<f8")
    b = np.fromfile(phase_b, dtype="<f8")
    table = np.column_stack([
        np.arange(len(a)) / rate, a, b, np.full(len(a), MAINS_VOLTAGE),
    ])
    with open(path, "w") as fh:
        fh.write(BLED_HEADER)
        np.savetxt(fh, table, fmt="%.8g", delimiter=",")
    return path


def _bled_set(rng, workdir, tag, duration_s):
    csv_path = workdir / f"{tag}.csv"
    synths, detects, evals = [], [], []
    waves = {}
    for phase in ("a", "b"):
        wave = workdir / f"{tag}.{phase}.f64"
        truth = workdir / f"{tag}.{phase}.truth.csv"
        events = phase_schedule(rng, duration_s)
        seed = int(rng.integers(0, 2**31))
        synths.append(synth_argv(duration_s, BLED_RATE, seed, events, wave, truth))
        waves[phase] = wave
        events_path = workdir / f"{tag}.{phase}.events.jsonl"
        verdicts = workdir / f"{tag}.{phase}.verdicts.jsonl"
        # --bled-layout defaults to 12 kHz decimated by 2, so 6 kHz windows
        detects.append(DetectCall(
            ["detect", "--input", str(csv_path), "--bled-layout", phase,
             "--out", str(events_path), "--verdicts", str(verdicts)],
            events_path, verdicts,
            window_count((int(round(duration_s * BLED_RATE)) + 1) // 2, WINDOW), WINDOW,
        ))
        evals.append(EvalCall(
            ["eval", "--input", str(events_path), "--truth", str(truth),
             "--verdicts", str(verdicts)],
            events_path, f"{tag}.{phase}.eval", len(events),
        ))
    return InputSet(
        synth=synths,
        build=lambda: write_bled_csv(csv_path, waves["a"], waves["b"], BLED_RATE),
        build_output=csv_path,
        detect=detects,
        evals=evals,
        recording_s=duration_s,
    )


WORKLOADS = {
    w.name: w for w in (
        # why each workload exists is in README.md and BENCHMARK.json
        Workload("hour-raw", partial(_raw_set, step=WINDOW, schedule=hour_schedule),
                 (3600.0, 60.0), (1, 1), {"recall": 0.95, "precision": 0.90}),
        # not declared in BENCHMARK.json: with --step 128 detect can write events
        # out of time order and eval then exits 1 (see README.md); kept so that
        # `--workload overlap-step128` reproduces it
        Workload("overlap-step128", partial(_raw_set, step=BLOCK, schedule=hour_schedule),
                 (120.0, 15.0), (8, 2), None),
        Workload("bled-csv", _bled_set, (120.0, 15.0), (1, 1), None),
    )
}


def input_sets(workload: Workload, seed: int, workdir: Path, smoke: bool):
    """The run's input sets; the same seed always gives the same sets."""
    rng = np.random.default_rng(seed)
    size = 1 if smoke else 0
    return [workload.make_set(rng, workdir, f"set{i}", workload.duration_s[size])
            for i in range(workload.sets[size])]
