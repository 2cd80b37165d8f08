"""Block-level Fourier analysis.

Magnitudes come from numpy's real-input FFT (``np.fft.rfft``); ``dft_naive``
evaluates the defining sum directly and serves as its correctness oracle.
Both compute the unnormalized forward transform

    X[j] = sum_n x[n] * exp(-2i*pi*j*n/N)

and both accept stacked inputs, transforming along the last axis.
"""

from __future__ import annotations

import numpy as np


def dft_naive(block: np.ndarray) -> np.ndarray:
    """Direct O(N^2) evaluation of the DFT sum, any length >= 1.

    Deliberately built from nothing but the definition so it can vouch for
    the fast transform.
    """
    x = np.asarray(block, dtype=np.complex128)
    n = x.shape[-1]
    if n < 1:
        raise ValueError("dft_naive needs at least one sample")
    j = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(j, j) / n)  # symmetric
    return x @ kernel


def magnitude_spectrum(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Magnitudes of the first N/2 + 1 FFT bins (DC through Nyquist).

    Real input makes the upper half of the spectrum redundant by conjugate
    symmetry, so only these bins carry information and only these are
    computed. Given ``out``, of exactly the result's shape, the magnitudes
    are written there and ``out`` is returned.
    """
    spectra = np.fft.rfft(block)
    if out is not None and out.shape != spectra.shape:
        raise ValueError(f"out has shape {out.shape}, the magnitudes have {spectra.shape}")
    return np.abs(spectra, out=out)


def spectrogram(matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-row magnitude spectra of a block matrix.

    A (blocks, block_len) input yields (blocks, block_len/2 + 1), written
    into ``out`` when one is given (see ``magnitude_spectrum``).
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D block matrix, got shape {m.shape}")
    return magnitude_spectrum(m, out)
