"""Event detection for non-intrusive load monitoring.

Finds appliance on/off transitions in an aggregate current waveform by
fencing the forward standard deviation of the most discriminative FFT bin
of each analysis window, and ships the evaluation harness and synthetic
generator needed to measure it.
"""

from .detector import (
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
from .evaluation import MatchResult, count_tn, match_events, metrics_from_counts
from .signal_io import (
    GroundTruthEvent,
    LoadReport,
    SampleStream,
    SyntheticSpec,
    decimate,
    generate_synthetic,
    read_ground_truth,
    read_multichannel_csv,
    read_waveform,
    write_ground_truth,
    write_waveform,
)
from .spectral import spectrogram
from .windowing import Window, to_block_matrix, windows

__version__ = "0.1.0"

__all__ = [
    "DetectorConfig",
    "GroundTruthEvent",
    "LoadReport",
    "MatchResult",
    "SampleStream",
    "SyntheticSpec",
    "Window",
    "classify_window",
    "count_tn",
    "decimate",
    "delta_p",
    "detect",
    "extract_series",
    "forward_std",
    "generate_synthetic",
    "match_events",
    "metrics_from_counts",
    "quantile",
    "read_ground_truth",
    "read_multichannel_csv",
    "read_waveform",
    "select_bin",
    "spectrogram",
    "to_block_matrix",
    "tukey_fences",
    "windows",
    "write_ground_truth",
    "write_waveform",
]
