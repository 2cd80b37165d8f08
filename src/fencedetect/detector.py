"""Event detection over windowed current spectrograms.

Per window the pipeline is: pick the frequency bin whose first-half/second-half
mean gap is largest, walk a short forward standard deviation along that bin's
block series, fence the deviations with Tukey's rule, and flag the window when
any deviation falls outside the fences. Runs of flagged windows merge into
single timestamped events.

Each stage accepts one window or a stack of windows along a leading axis and
returns plain arrays; ``detect`` runs them once per chunk of consecutive
windows and keeps the per-window outcomes as rows of one numpy record array,
one field per column. Chunks run on one thread per CPU the process may use,
the caller included, with no setting; each writes only its own rows, so the
bytes are the same for any thread count. The chunk size shrinks with the
thread count, so at most ``CHUNK_WINDOWS`` windows are in flight at once.
Once a chunk is done, the samples no later chunk reads are released
(``signal_io.release``), so a file-mapped stream keeps about the chunks in
flight resident, not the whole file.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .signal_io import SampleStream, release
from .spectral import spectrogram
from .windowing import Window, to_block_matrix, windows

# windows in flight at once over all threads; bounds the blocks and spectra held
CHUNK_WINDOWS = 256


@dataclass(frozen=True)
class DetectorConfig:
    """Window geometry in samples, the Tukey constant and the deviation width in blocks.

    block_len, the FFT length, is a power of two that divides window_len.
    """

    window_len: int = 6016
    step: int = 6016
    block_len: int = 128
    k: float = 0.5
    std_window: int = 4

    def __post_init__(self) -> None:
        if self.window_len < 1 or self.step < 1 or self.block_len < 1:
            raise ValueError("window_len, step and block_len must be positive")
        if self.block_len < 2 or self.block_len & (self.block_len - 1):
            raise ValueError(f"block_len must be a power of two >= 2, got {self.block_len}")
        if self.window_len % self.block_len != 0:
            raise ValueError(
                f"block_len {self.block_len} does not divide window_len {self.window_len}"
            )
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError("k must be finite and nonnegative")
        if self.std_window < 2:
            raise ValueError("std_window must be at least 2")
        if self.std_window > self.blocks_per_window:
            raise ValueError(
                "std_window cannot exceed the number of blocks per window"
            )

    @property
    def blocks_per_window(self) -> int:
        return self.window_len // self.block_len


def delta_p(spectrogram_f: np.ndarray) -> np.ndarray:
    """Per-bin absolute gap between early-half and late-half mean magnitude.

    The halves take equally many rows from each end; with an odd row count
    the middle row is left out so neither mean is favored. A bin whose
    magnitude jumps partway through the window scores high, a stationary
    bin scores near zero.
    """
    f = np.asarray(spectrogram_f)
    rows = f.shape[-2]
    if rows < 2:
        raise ValueError("need at least 2 spectrogram rows")
    half = rows // 2
    early = f[..., :half, :].mean(axis=-2)
    late = f[..., rows - half:, :].mean(axis=-2)
    return np.abs(early - late)


def select_bin(spectrogram_f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick the bin with the largest half-mean gap, lowest index on ties.

    Returns the selected bin, its gap and every bin's gap.
    """
    gaps = delta_p(spectrogram_f)
    return np.argmax(gaps, axis=-1), gaps.max(axis=-1), gaps


def extract_series(spectrogram_f: np.ndarray, selected_bin: int | np.ndarray) -> np.ndarray:
    """Column of the spectrogram at the selected bin (one per window of a stack)."""
    f = np.asarray(spectrogram_f)
    chosen = np.asarray(selected_bin)
    if np.any((chosen < 0) | (chosen >= f.shape[-1])):
        raise ValueError(f"bin {selected_bin} out of range for {f.shape[-1]} bins")
    return np.take_along_axis(f, chosen[..., None, None], axis=-1)[..., 0]


def forward_std(series: np.ndarray, w: int = 4) -> np.ndarray:
    """Population standard deviation over each length-w forward slice.

    Output index t covers ``series[..., t .. t+w-1]``, so the last axis of
    the result has ``len - w + 1`` entries.
    """
    x = np.asarray(series, dtype=np.float64)
    if w < 1:
        raise ValueError("w must be positive")
    if x.shape[-1] < w:
        raise ValueError(f"series of length {x.shape[-1]} is shorter than w={w}")
    return np.lib.stride_tricks.sliding_window_view(x, w, axis=-1).std(axis=-1)


def quantile(values: np.ndarray, q: float):
    """Sorted linear-interpolation quantile at position (n-1)*q, along the last axis.

    ``np.quantile`` can differ from this rule in the last bit, enough to
    move a deviation across a fence.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("quantile of empty input")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    s = np.sort(v, axis=-1)
    n = s.shape[-1]
    pos = (n - 1) * q
    lower = int(pos)
    frac = pos - lower
    if lower + 1 < n:
        return s[..., lower] + frac * (s[..., lower + 1] - s[..., lower])
    return s[..., lower]


def tukey_fences(sigma: np.ndarray, k: float) -> tuple[np.ndarray, ...]:
    """Quartiles and fences ``(q1, q3, lo, hi)``, [Q1 - k*IQR, Q3 + k*IQR], of the deviations."""
    q1 = quantile(sigma, 0.25)
    q3 = quantile(sigma, 0.75)
    iqr = q3 - q1
    return q1, q3, q1 - k * iqr, q3 + k * iqr


def classify_window(sigma: np.ndarray, lo: np.ndarray, hi: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Flag the window when any deviation falls strictly outside the fences.

    The fence interval is closed, so values sitting exactly on a fence are
    ordinary. Returns the flag and the index of the first outlying
    deviation, -1 where the window is not flagged.
    """
    outside = (sigma < np.asarray(lo)[..., None]) | (sigma > np.asarray(hi)[..., None])
    flagged = outside.any(axis=-1)
    # [()] makes the one-window 0-d result a scalar, as the other stages give
    return flagged, np.where(flagged, np.argmax(outside, axis=-1), -1)[()]


def _workers() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _fill_rows(rows: np.recarray, samples: np.ndarray, cfg: DetectorConfig) -> None:
    """Run the stages over the windows starting at ``rows.window_start``, one verdict row each.

    With back-to-back windows (step equal to the window length) the blocks
    are one view of the samples; other geometries concatenate a copy.
    """
    starts = rows.window_start.tolist()
    if cfg.step == cfg.window_len:
        span = samples[starts[0]:starts[0] + len(starts) * cfg.window_len]
        blocks = to_block_matrix(Window(starts[0], span), cfg.block_len)
    else:
        blocks = np.concatenate([to_block_matrix(Window(s, samples[s:s + cfg.window_len]),
                                                 cfg.block_len) for s in starts])
    spec = spectrogram(blocks).reshape(len(starts), cfg.blocks_per_window, -1)
    rows.selected_bin, rows.delta_p, rows.per_bin_delta = select_bin(spec)
    sigma = forward_std(extract_series(spec, rows.selected_bin), cfg.std_window)
    rows.q1, rows.q3, rows.lo, rows.hi = tukey_fences(sigma, cfg.k)
    rows.is_event, rows.first_outlier_block = classify_window(sigma, rows.lo, rows.hi)


class _Rows(np.recarray):
    """The verdicts' record array; iterating it gives rows of Python values.

    numpy's own rows hold numpy scalars, which ``json`` refuses, and the
    bench tracer (``bench/spans.py``) sums ``v.is_event`` over the rows into
    its JSON report.
    """

    def __iter__(self) -> Iterator[SimpleNamespace]:
        names = self.dtype.names
        return (SimpleNamespace(**dict(zip(names, row))) for row in self.tolist())


def detect(
    stream: SampleStream, cfg: DetectorConfig | None = None
) -> tuple[np.recarray, np.recarray]:
    """Run the full pipeline over a stream.

    Consecutive flagged windows are merged into one event; a single clean
    window in between splits two events apart. Each event is stamped at the
    first outlying block of the first flagged window of its run, converted
    to a sample index, so localization is block-resolution (block_len
    samples) rather than window-resolution. With overlapping windows a run
    can point at or before the event just emitted; it then joins that
    event instead, so sample indices strictly increase.

    Returns the merged events and the per-window verdicts, both in stream
    order, as two record arrays (``np.recarray``). The events have the
    fields ``sample_index``, ``time_s`` (the index over the sample rate) and
    ``window_start`` (of the first flagged window of the run). The verdicts
    have one row per window and the fields ``window_start``, ``is_event``, ``first_outlier_block`` (-1 where
    ``is_event`` is False), ``selected_bin``, ``delta_p``, ``per_bin_delta``
    (one entry per frequency bin), ``q1``, ``q3``, ``lo`` and ``hi``. A stream
    shorter than one window yields no events and no verdicts.

    Windows are analysed in chunks on one thread per CPU this process may
    use: the calling thread and a pool thread for each further CPU take the
    next chunk in turn until none is left. Each chunk writes only its own
    rows, and the run merge waits for all of them, so the output does not
    depend on the thread count. A chunk holds ``CHUNK_WINDOWS // threads``
    windows (at least one), so at most ``CHUNK_WINDOWS`` windows' blocks and
    spectra are held at once. A chunk then releases its samples up to the
    next chunk's first window, so the resident pages of a file-mapped stream
    stay about those of the chunks in flight. After a failure no thread
    takes a further chunk, and the error is raised once every thread has
    stopped.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept off the CLI's import path

    if cfg is None:
        cfg = DetectorConfig()
    starts = windows(stream, cfg)
    verdicts = _Rows(len(starts), dtype=[
        ("window_start", np.int64), ("is_event", bool), ("first_outlier_block", np.int64),
        ("selected_bin", np.int64), ("delta_p", np.float64),
        ("per_bin_delta", np.float64, (cfg.block_len // 2 + 1,)),
        ("q1", np.float64), ("q3", np.float64), ("lo", np.float64), ("hi", np.float64),
    ])
    verdicts.window_start = starts
    workers = _workers()
    per_task = max(1, CHUNK_WINDOWS // workers)
    chunks = range(0, len(starts), per_task)
    pending, taking, failed = iter(chunks), threading.Lock(), threading.Event()

    def drain() -> None:
        while True:
            with taking:
                i0 = None if failed.is_set() else next(pending, None)
            if i0 is None:
                return
            try:
                _fill_rows(verdicts[i0:i0 + per_task], stream.samples, cfg)
            except BaseException:
                failed.set()
                raise
            # the samples no later chunk reads
            stop = starts[i0 + per_task] if i0 + per_task < len(starts) else len(stream)
            release(stream.samples[starts[i0]:stop])

    # one thread per CPU and at most one per chunk; the caller is one of them
    helpers = min(workers, len(chunks)) - 1
    with ThreadPoolExecutor(max(1, helpers)) as pool:  # joins the helpers on exit
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for future in futures:
            future.result()

    merged = []  # (sample_index, time_s, window_start) per event
    flagged_at = np.flatnonzero(verdicts.is_event)
    previous = -2
    for i, start, first in zip(flagged_at.tolist(), verdicts.window_start[flagged_at].tolist(),
                               verdicts.first_outlier_block[flagged_at].tolist()):
        index = start + first * cfg.block_len
        if i != previous + 1 and not (merged and index <= merged[-1][0]):
            merged.append((index, index / stream.sample_rate_hz, start))
        previous = i
    events = np.rec.fromrecords(merged, dtype=[
        ("sample_index", np.int64), ("time_s", np.float64), ("window_start", np.int64)])
    return events, verdicts
