"""Block-level Fourier analysis.

Magnitudes come from numpy's real-input FFT (``np.fft.rfft``), the
unnormalized forward transform

    X[j] = sum_n x[n] * exp(-2i*pi*j*n/N)

taken along the last axis, so stacked inputs transform row by row.
"""

from __future__ import annotations

import numpy as np


def spectrogram(matrix: np.ndarray) -> np.ndarray:
    """Per-row magnitudes of a block matrix's first N/2 + 1 FFT bins (DC through Nyquist).

    A (blocks, block_len) input yields (blocks, block_len/2 + 1). Real input
    makes the upper half of each spectrum redundant by conjugate symmetry, so
    only these bins carry information and only these are computed.
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D block matrix, got shape {m.shape}")
    return np.abs(np.fft.rfft(m))
