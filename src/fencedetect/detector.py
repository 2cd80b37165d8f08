"""Event detection over windowed current spectrograms.

Per window the pipeline is: pick the frequency bin whose first-half/second-half
mean gap is largest, walk a short forward standard deviation along that bin's
block series, fence the deviations with Tukey's rule, and flag the window when
any deviation falls outside the fences. Runs of flagged windows merge into
single timestamped events.

Each stage accepts one window or a stack of windows along a leading axis;
``detect`` runs them once per chunk of consecutive windows and keeps the
per-window outcomes as columns of one ``Verdicts`` record. Chunks run on one
thread per CPU the process may use, the caller included, with no setting;
each writes only its own rows, so the bytes are the same for any thread
count. The chunk size shrinks with the thread count, so at most
``CHUNK_WINDOWS`` windows are in flight at once.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .signal_io import SampleStream
from .spectral import spectrogram
from .windowing import Window, WindowingConfig, to_block_matrix, windows

# windows in flight at once over all threads; bounds the blocks and spectra held
CHUNK_WINDOWS = 256


@dataclass(frozen=True)
class DetectorConfig:
    """Tukey constant, deviation window width, and the window geometry."""

    k: float = 0.5
    std_window: int = 4
    windowing: WindowingConfig = field(default_factory=WindowingConfig)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError("k must be finite and nonnegative")
        if self.std_window < 2:
            raise ValueError("std_window must be at least 2")
        if self.std_window > self.windowing.blocks_per_window:
            raise ValueError(
                "std_window cannot exceed the number of blocks per window"
            )


@dataclass(frozen=True)
class BinSelection:
    """The winning frequency bin and the per-bin gap scores behind it."""

    selected_bin: int
    delta_p: float
    per_bin_delta: np.ndarray


@dataclass(frozen=True)
class TukeyFences:
    q1: float
    q3: float
    k: float
    lo: float
    hi: float


@dataclass(frozen=True)
class WindowVerdict:
    """Per-window outcome with the evidence that produced it."""

    window_start: int
    is_event: bool
    first_outlier_block: int | None
    selection: BinSelection
    fences: TukeyFences


@dataclass(frozen=True, eq=False)
class Verdicts:
    """Every window's outcome and evidence for one run, one array per field.

    Rows are windows in stream order; ``per_bin_delta`` has one column per
    frequency bin, and ``first_outlier_block`` is -1 where ``is_event`` is
    False. ``len()`` counts the windows; indexing or iterating gives
    ``WindowVerdict`` rows.
    """

    window_start: np.ndarray
    is_event: np.ndarray
    first_outlier_block: np.ndarray
    selected_bin: np.ndarray
    delta_p: np.ndarray
    per_bin_delta: np.ndarray
    q1: np.ndarray
    q3: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    k: float

    @classmethod
    def empty(cls, windows: int, bins: int, k: float) -> Verdicts:
        """Unfilled columns for ``windows`` rows of ``bins`` frequency bins."""
        def column(dtype=np.float64):
            return np.empty(windows, dtype)

        return cls(
            window_start=column(np.int64), is_event=column(bool),
            first_outlier_block=column(np.int64), selected_bin=column(np.int64),
            delta_p=column(), per_bin_delta=np.empty((windows, bins)),
            q1=column(), q3=column(), lo=column(), hi=column(), k=k,
        )

    def __len__(self) -> int:
        return len(self.window_start)

    def __getitem__(self, i: int) -> WindowVerdict:
        flagged = bool(self.is_event[i])
        return WindowVerdict(
            int(self.window_start[i]), flagged,
            int(self.first_outlier_block[i]) if flagged else None,
            BinSelection(int(self.selected_bin[i]), float(self.delta_p[i]),
                         self.per_bin_delta[i]),
            TukeyFences(float(self.q1[i]), float(self.q3[i]), self.k,
                        float(self.lo[i]), float(self.hi[i])),
        )

    def __iter__(self) -> Iterator[WindowVerdict]:
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class DetectedEvent:
    """A merged run of flagged windows, located to block resolution."""

    sample_index: int
    time_s: float
    window_span: tuple[int, int]


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


def select_bin(spectrogram_f: np.ndarray) -> BinSelection:
    """Pick the bin with the largest half-mean gap, lowest index on ties."""
    gaps = delta_p(spectrogram_f)
    best = np.argmax(gaps, axis=-1)
    if gaps.ndim == 1:
        best = int(best)
    return BinSelection(selected_bin=best, delta_p=gaps.max(axis=-1), per_bin_delta=gaps)


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


def tukey_fences(sigma: np.ndarray, k: float) -> TukeyFences:
    """Quartile fences [Q1 - k*IQR, Q3 + k*IQR] of the deviation series."""
    q1 = quantile(sigma, 0.25)
    q3 = quantile(sigma, 0.75)
    iqr = q3 - q1
    return TukeyFences(q1=q1, q3=q3, k=k, lo=q1 - k * iqr, hi=q3 + k * iqr)


def classify_window(sigma: np.ndarray, fences: TukeyFences):
    """Flag the window when any deviation falls strictly outside the fences.

    The fence interval is closed, so values sitting exactly on a fence are
    ordinary. Returns the flag and the index of the first outlying deviation
    (None when unflagged); for a stack, both as arrays, the index 0 when unflagged.
    """
    s = np.asarray(sigma)
    lo, hi = np.asarray(fences.lo)[..., None], np.asarray(fences.hi)[..., None]
    outside = (s < lo) | (s > hi)
    flagged, first = outside.any(axis=-1), np.argmax(outside, axis=-1)
    if s.ndim == 1:
        return (True, int(first)) if flagged else (False, None)
    return flagged, first


def _workers() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _fill_rows(verdicts: Verdicts, i0: int, chunk: list[Window],
               stream: SampleStream, cfg: DetectorConfig) -> None:
    """Run the stages over consecutive windows; write rows ``i0..`` of ``verdicts``.

    With back-to-back windows (step equal to the window length) the chunk's
    blocks are one view of the stream; other geometries stack a copy.
    """
    wcfg = cfg.windowing
    if wcfg.step == wcfg.window_len:
        start = chunk[0].start_index
        span = stream.samples[start:start + len(chunk) * wcfg.window_len]
        blocks = to_block_matrix(Window(start, span), wcfg.block_len)
    else:
        blocks = np.stack([to_block_matrix(w, wcfg.block_len) for w in chunk])
        blocks = blocks.reshape(-1, wcfg.block_len)
    spec = spectrogram(blocks).reshape(len(chunk), wcfg.blocks_per_window, -1)
    sel = select_bin(spec)
    sigma = forward_std(extract_series(spec, sel.selected_bin), cfg.std_window)
    f = tukey_fences(sigma, cfg.k)
    flagged, first = classify_window(sigma, f)
    columns = {
        "window_start": [w.start_index for w in chunk],
        "is_event": flagged, "first_outlier_block": np.where(flagged, first, -1),
        "selected_bin": sel.selected_bin, "delta_p": sel.delta_p,
        "per_bin_delta": sel.per_bin_delta, "q1": f.q1, "q3": f.q3, "lo": f.lo, "hi": f.hi,
    }
    for name, values in columns.items():
        getattr(verdicts, name)[i0:i0 + len(chunk)] = values


def detect(
    stream: SampleStream, cfg: DetectorConfig | None = None
) -> tuple[list[DetectedEvent], Verdicts]:
    """Run the full pipeline over a stream.

    Consecutive flagged windows are merged into one event; a single clean
    window in between splits two events apart. Each event is stamped at the
    first outlying block of the first flagged window of its run, converted
    to a sample index, so localization is block-resolution (block_len
    samples) rather than window-resolution. With overlapping windows a run
    can point at or before the event just emitted; it then extends that
    event's window span instead, so sample indices strictly increase.

    Returns the merged events and the per-window verdicts, both in stream
    order. A stream shorter than one window yields no events and no verdicts.

    Windows are analysed in chunks on one thread per CPU this process may
    use: the calling thread and a pool thread for each further CPU take the
    next chunk in turn until none is left. Each chunk writes only its own
    rows, and the run merge waits for all of them, so the output does not
    depend on the thread count. A chunk holds ``CHUNK_WINDOWS // threads``
    windows (at least one), so at most ``CHUNK_WINDOWS`` windows' blocks and
    spectra are held at once. After a failure no thread takes a further
    chunk, and the error is raised once every thread has stopped.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept off the CLI's import path

    if cfg is None:
        cfg = DetectorConfig()
    wcfg = cfg.windowing
    all_windows = windows(stream, wcfg)
    verdicts = Verdicts.empty(len(all_windows), wcfg.block_len // 2 + 1, cfg.k)
    workers = _workers()
    per_task = max(1, CHUNK_WINDOWS // workers)
    starts = range(0, len(all_windows), per_task)
    pending, taking, failed = iter(starts), threading.Lock(), threading.Event()

    def drain() -> None:
        while True:
            with taking:
                i0 = None if failed.is_set() else next(pending, None)
            if i0 is None:
                return
            try:
                _fill_rows(verdicts, i0, all_windows[i0:i0 + per_task], stream, cfg)
            except BaseException:
                failed.set()
                raise

    # one thread per CPU and at most one per chunk; the caller is one of them
    helpers = min(workers, len(starts)) - 1
    with ThreadPoolExecutor(max(1, helpers)) as pool:  # joins the helpers on exit
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for future in futures:
            future.result()

    events: list[DetectedEvent] = []
    flagged_at = np.flatnonzero(verdicts.is_event)
    previous = -2
    for i, start, first in zip(flagged_at.tolist(), verdicts.window_start[flagged_at].tolist(),
                               verdicts.first_outlier_block[flagged_at].tolist()):
        index = start + first * wcfg.block_len
        if i == previous + 1 or (events and index <= events[-1].sample_index):
            events[-1] = replace(events[-1], window_span=(events[-1].window_span[0], start))
        else:
            events.append(DetectedEvent(index, index / stream.sample_rate_hz, (start, start)))
        previous = i
    return events, verdicts
