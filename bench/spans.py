"""In-memory spans around the fencedetect functions each layer calls through.

The program is not modified: while a ``Tracer`` is installed, the module
attributes that the CLI and the detector look up at call time are replaced
by wrappers that record a span (id, parent, name, start, end) and the
layer's counts. A layer's self time is its span time minus the time its
direct child spans cover.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import fencedetect.cli as cli_mod
import fencedetect.detector as detector_mod


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start_ns, end_ns]
        self.counts = defaultdict(int)
        self.block_starts = defaultdict(set)  # root span id -> sample offsets
        self._stack = []

    @contextmanager
    def span(self, name):
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  name, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(args, result)
            return result
        return traced

    # counters, called with the wrapped function's arguments and result

    def _count_read(self, args, result):
        _, report = result
        self.counts["signal_io.samples_kept"] += report.kept
        self.counts["signal_io.samples_dropped"] += report.dropped
        self.counts["signal_io.bytes_read"] += os.path.getsize(args[0])

    def _count_windows(self, args, result):
        self.counts["windowing.windows"] += len(result)

    def _count_block_matrix(self, args, result):
        window, block_len = args
        rows = result.shape[0]
        stop = window.start_index + rows * block_len
        self.block_starts[self._stack[0]].update(
            range(window.start_index, stop, block_len))

    def _count_spectrogram(self, args, result):
        self.counts["spectral.blocks_transformed"] += result.shape[0]

    def _count_detect(self, args, result):
        events, verdicts = result
        self.counts["detector.events"] += len(events)
        self.counts["detector.windows_flagged"] += sum(v.is_event for v in verdicts)

    @contextmanager
    def installed(self):
        """Swap in the traced functions; restore the originals on exit."""
        targets = [
            (cli_mod, "read_waveform", "signal_io.read", self._count_read),
            (cli_mod, "read_multichannel_csv", "signal_io.read", self._count_read),
            (cli_mod, "decimate", "signal_io.decimate", None),
            (cli_mod, "generate_synthetic", "signal_io.generate", None),
            (cli_mod, "write_waveform", "signal_io.write", None),
            (cli_mod, "write_ground_truth", "signal_io.write", None),
            (cli_mod, "detect", "detector.detect", self._count_detect),
            (cli_mod, "match_events", "evaluation.match", None),
            (cli_mod, "count_tn", "evaluation.count_tn", None),
            (detector_mod, "windows", "windowing.windows", self._count_windows),
            (detector_mod, "to_block_matrix", "windowing.block_matrix",
             self._count_block_matrix),
            (detector_mod, "spectrogram", "spectral.spectrogram", self._count_spectrogram),
            (detector_mod, "select_bin", "detector.select_bin", None),
            (detector_mod, "forward_std", "detector.forward_std", None),
            (detector_mod, "tukey_fences", "detector.fences", None),
            (detector_mod, "classify_window", "detector.fences", None),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for module, attr, name, count in targets:
                setattr(module, attr, self._wrap(getattr(module, attr), name, count))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def inclusive_times(self):
        """Total seconds per span name, children included."""
        totals = defaultdict(float)
        for _, _, name, start, end in self.spans:
            totals[name] += (end - start) / 1e9
        return totals

    def self_times(self, within=None):
        """Self seconds per span name, optionally only inside spans named ``within``."""
        covered = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            if within is None or self._inside(sid, within):
                totals[name] += (end - start - covered[sid]) / 1e9
        return totals

    def _inside(self, sid, name):
        while sid is not None:
            if self.spans[sid][2] == name:
                return True
            sid = self.spans[sid][1]
        return False

    def unique_blocks(self):
        return sum(len(starts) for starts in self.block_starts.values())
