"""Fixed-length window slicing and block-matrix reshaping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .signal_io import SampleStream

if TYPE_CHECKING:  # the detector module imports this one
    from .detector import DetectorConfig


@dataclass(frozen=True)
class Window:
    """The argument of ``to_block_matrix``: a start index into the stream plus its samples."""

    start_index: int
    samples: np.ndarray


def windows(stream: SampleStream, cfg: DetectorConfig) -> np.ndarray:
    """Start index of each window, 0, step, 2*step, ..., as one int64 array.

    A trailing stretch shorter than ``window_len`` is dropped, never padded.
    The array is empty when the stream is shorter than one window.
    """
    count = max(0, (len(stream.samples) - cfg.window_len) // cfg.step + 1)
    return np.arange(count, dtype=np.int64) * cfg.step


def to_block_matrix(window: Window, block_len: int) -> np.ndarray:
    """Reshape a window row-major into (blocks, block_len).

    Row r holds samples ``r*block_len .. (r+1)*block_len - 1`` of the window,
    so flattening the result reproduces the window exactly.
    """
    n = len(window.samples)
    if block_len < 1 or n % block_len != 0:
        raise ValueError(f"block_len {block_len} does not divide window length {n}")
    return window.samples.reshape(-1, block_len)
