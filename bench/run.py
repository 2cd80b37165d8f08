#!/usr/bin/env python3
"""Benchmark for the fencedetect CLI: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload hour-raw --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

One process makes one CLI call at a time (a closed loop with one caller)
and starts no threads. ``--trace 0`` times ``synth``, ``detect --verdicts``
and ``eval --verdicts`` in-process through ``fencedetect.cli.main`` and
prints the end-to-end metrics; ``--trace 1`` is a separate run that wraps
the functions each layer calls through and prints per-layer metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import BLOCK, WINDOW, WORKLOADS, input_sets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fencedetect"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 7
EVAL_BATCH_S = 0.5
CHILD_TIMEOUT_S = 170
MAX_ERRORS_SHOWN = 20

IMPORT_PROBE = "import fencedetect.cli"
CHILD = Path(__file__).resolve().parent / "child.py"

# metric names and units, in the order BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
DECLARED = [w["name"] for w in SPEC["workloads"]]

MODULES = ("cli", "detector", "evaluation", "signal_io", "spectral", "windowing")

# per-layer counts that must be identical in every traced pass
EXACT_COUNTS = (
    "signal_io.samples_kept", "signal_io.samples_dropped", "windowing.windows",
    "spectral.blocks_transformed", "spectral.unique_blocks", "spectral.useful_ratio",
    "detector.windows_flagged", "detector.events",
    "evaluation.tp", "evaluation.fp", "evaluation.fn", "evaluation.tn",
    "cli.bytes_written",
)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def rows_sha256(path: Path) -> str:
    """Digest of a JSON-lines output without its config header, which echoes paths."""
    data = path.read_bytes()
    return hashlib.sha256(data[data.index(b"\n") + 1:]).hexdigest()


def parse_rows(path: Path, keys: dict) -> list[dict]:
    """A ``{"config": ...}`` header, then one object per line with typed keys."""
    lines = path.read_text().splitlines()
    if not lines or "config" not in json.loads(lines[0]):
        raise ValueError(f"{path.name}: missing config header")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        row = json.loads(line)
        for key, types in keys.items():
            value = row.get(key)
            # bool is an int subclass; keep flags and indices apart
            if not isinstance(value, types) or isinstance(value, bool) != (types is bool):
                raise ValueError(f"{path.name}:{number}: bad {key!r} in {line!r}")
        rows.append(row)
    return rows


EVENT_KEYS = {"sample_index": int, "time_s": float, "window_start": int}
VERDICT_KEYS = {"window_start": int, "is_event": bool, "first_outlier_block": (int, type(None))}


def ratios(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    total = precision + recall
    return precision, recall, (2.0 * precision * recall / total if total else 0.0)


def synth_outputs(argv) -> list[Path]:
    return [Path(argv[argv.index(flag) + 1]) for flag in ("--out", "--truth")]


def prepared(input_set) -> bool:
    """Whether the set's synth outputs and detect input exist already."""
    paths = [path for argv in input_set.synth for path in synth_outputs(argv)]
    paths += [input_set.build_output] if input_set.build_output else []
    return all(path.exists() for path in paths)


def unique_block_count(windows: int, step: int) -> int:
    if windows == 0:
        return 0
    starts = np.arange(windows)[:, None] * step + np.arange(0, WINDOW, BLOCK)
    return int(np.unique(starts).size)


def nonblank_lines(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def source_lines() -> dict:
    counts = {f"{module}.lines": nonblank_lines(PACKAGE / f"{module}.py") for module in MODULES}
    counts["src.lines"] = sum(nonblank_lines(path) for path in SRC.rglob("*.py"))
    return counts


class Run:
    """One benchmark run: its CLI invocations, checks, samples and digests."""

    def __init__(self, workload, seed: int, workdir: Path, smoke: bool):
        from fencedetect import cli  # importable once main has put src/ on the path

        self.cli_main = cli.main
        self.workload = workload
        self.smoke = smoke
        self.sets = input_sets(workload, seed, workdir, smoke)
        # a smoke-size set whose untimed pass loads what first calls load
        self.warmup = workload.make_set(np.random.default_rng(seed), workdir, "warmup",
                                        workload.duration_s[1])
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.samples = defaultdict(list)
        self.reference = {}  # check key -> first digest seen
        self.digests = {}  # file or row set -> sha256, reported in the results
        self.counts = {}  # eval output path -> (tp, fp, fn, tn) of its first run
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    # bookkeeping

    def record(self, label: str, problem: str | None) -> bool:
        """Count one invocation; a problem makes it a failed one."""
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(f"{label}: {problem}")
        return False

    def same_as_first(self, key: str, digest: str) -> str | None:
        first = self.reference.setdefault(key, digest)
        return None if first == digest else f"output differs from the first run ({key})"

    # invocations

    def cli(self, argv, tracer=None):
        """Run ``fencedetect`` in-process; returns (exit code, seconds, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        scope = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), scope:
            try:
                code = self.cli_main(argv)
            except SystemExit as exc:  # argparse rejects before main's handlers
                code = exc.code
        return code, time.perf_counter() - start, out.getvalue(), err.getvalue().strip()

    def child(self, argv):
        """Run one subcommand in a fresh interpreter; returns (exit code, peak RSS in MB)."""
        proc = subprocess.run(
            [sys.executable, str(CHILD), *argv], env=self.env, cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1, 0.0, proc.stderr.strip()[-300:]
        report = json.loads(lines[-1])
        return report["exit"], report["peak_rss_kib"] / 1024.0, proc.stderr.strip()[-300:]

    def setup_probe(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env, cwd=ROOT,
                       check=True, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - start

    # one subcommand each, with its output checks

    def synth(self, argv, tracer=None):
        code, seconds, _, err = self.cli(argv, tracer)
        problem = f"exit {code}: {err}" if code != 0 else None
        if problem is None:
            for path in synth_outputs(argv):
                digest = sha256_file(path)
                self.digests[path.name] = digest
                problem = problem or self.same_as_first(path.name, digest)
        return seconds if self.record("synth", problem) else None

    def detect(self, call, tracer=None):
        code, seconds, _, err = self.cli(call.argv, tracer)
        problem = f"exit {code}: {err}" if code != 0 else self.check_detect(call)
        return seconds if self.record(f"detect {call.events.name}", problem) else None

    def check_detect(self, call) -> str | None:
        try:
            events = parse_rows(call.events, EVENT_KEYS)
            verdicts = parse_rows(call.verdicts, VERDICT_KEYS)
        except (OSError, ValueError) as exc:
            return f"unparseable output: {exc}"
        starts = [row["window_start"] for row in verdicts]
        if starts != list(range(0, call.windows * call.step, call.step)):
            return f"{len(starts)} verdict windows, expected {call.windows} at step {call.step}"
        flagged = {row["window_start"] for row in verdicts if row["is_event"]}
        if any(row["window_start"] not in flagged for row in events):
            return "an event starts in a window that was not flagged"
        for path in (call.events, call.verdicts):
            digest = rows_sha256(path)
            self.digests[f"{path.name} rows"] = digest
            mismatch = self.same_as_first(path.name, digest)
            if mismatch:
                return mismatch
        return None

    def eval(self, call, tracer=None):
        code, seconds, out, err = self.cli(call.argv, tracer)
        problem = f"exit {code}: {err}" if code != 0 else self.check_eval(call, out)
        return seconds if self.record(f"eval {call.name}", problem) else None

    def check_eval(self, call, out: str) -> str | None:
        try:
            payload = json.loads(out)
            counts = tuple(int(payload[key]) for key in ("tp", "fp", "fn", "tn"))
            scores = tuple(float(payload[key]) for key in ("precision", "recall", "f_measure"))
            detected = len(call.events.read_text().splitlines()) - 1  # less the header
        except (OSError, ValueError, KeyError) as exc:
            return f"unparseable output: {exc}"
        tp, fp, fn, _ = counts
        if tp + fn != call.truth_events or tp + fp != detected:
            return f"counts {counts} do not add up to {call.truth_events} truths, {detected} events"
        if scores != ratios(tp, fp, fn):
            return f"scores {scores} do not follow from counts {counts}"
        self.counts.setdefault(call.name, counts)
        return self.same_as_first(call.name, repr(counts))

    def check_floor(self, precision, recall):
        floor = self.workload.quality_floor
        if floor is None or self.smoke:
            return
        low = recall < floor["recall"] or precision < floor["precision"]
        self.record("quality floor", (
            f"recall {recall:.4f} / precision {precision:.4f} below "
            f"{floor['recall']} / {floor['precision']}") if low else None)

    def quality(self):
        """Scores pooled over the input sets' eval calls that succeeded."""
        counts = [self.counts[call.name] for input_set in self.sets
                  for call in input_set.evals if call.name in self.counts]
        return ratios(*(sum(c[i] for c in counts) for i in range(3)))

    def visit(self, input_set, run_synth, tracer=None, eval_batch_s=0.0):
        """One user pass over an input set.

        Returns the wall seconds of each call kind, plus the seconds spent
        building the detect input, which belong to no metric. Each eval call
        is repeated until the repeats have taken ``eval_batch_s`` and gives
        one sample, their mean: a single call lasts milliseconds, shorter
        than the spells in which a shared host runs fast or slow.
        """
        times = {"synth": [], "detect": [], "eval": [], "build": []}
        if run_synth or not prepared(input_set):
            synth = [self.synth(argv, tracer) for argv in input_set.synth]
            if None not in synth:
                times["synth"] = [sum(synth)]
        if input_set.build is not None and not input_set.build_output.exists():
            start = time.perf_counter()
            path = input_set.build()
            times["build"] = [time.perf_counter() - start]
            self.digests[path.name] = sha256_file(path)
        detect = [self.detect(call, tracer) for call in input_set.detect]
        times["detect"] = [t for t in detect if t is not None]
        for call in input_set.evals:
            batch = [self.eval(call, tracer)]
            while None not in batch and sum(batch) < eval_batch_s:
                batch.append(self.eval(call, tracer))
            if None not in batch:
                times["eval"].append(statistics.fmean(batch))
        return times

    # the two kinds of run

    def measure(self, seconds: float, probes: int) -> dict:
        """End-to-end metrics; tracing off."""
        self.setup_probe()  # compiles bytecode once; not a sample
        self.visit(self.warmup, True)
        synth_rss = self.synth_child(self.sets[0])
        started = time.perf_counter()
        visits = 0
        while True:
            measured = time.perf_counter() - started - sum(self.samples["build"])
            synth_total, detect_total = (sum(self.samples[k]) for k in ("synth", "detect"))
            # time synth (again) while it has cost less than detect and fits
            again = synth_total < detect_total and (
                not self.samples["synth"] or
                measured + statistics.median(self.samples["synth"]) <= seconds)
            times = self.visit(self.sets[visits % len(self.sets)], again,
                               eval_batch_s=0.0 if self.smoke else EVAL_BATCH_S)
            for kind, values in times.items():
                self.samples[kind] += values
            # cold starts are spread over the run like the calls they serve
            self.samples["setup"].append(self.setup_probe())
            visits += 1
            measured = time.perf_counter() - started - sum(self.samples["build"])
            if visits >= len(self.sets) and self.samples["synth"] and measured >= seconds:
                break
        while len(self.samples["setup"]) < probes:
            self.samples["setup"].append(self.setup_probe())
        precision, recall, f_measure = self.quality()
        self.check_floor(precision, recall)
        detect_rss = self.detect_child(self.sets[0])
        detect_s = statistics.median(self.samples["detect"])
        return {
            "setup_s": statistics.median(self.samples["setup"]),
            "synth_s": statistics.median(self.samples["synth"]),
            "detect_s": detect_s,
            "detect_realtime_x": self.sets[0].recording_s / detect_s,
            "eval_s": statistics.median(self.samples["eval"]),
            "detect_peak_rss_mb": detect_rss,
            "synth_peak_rss_mb": synth_rss,
            "precision": precision,
            "recall": recall,
            "f_measure": f_measure,
        }

    def synth_child(self, input_set) -> float:
        """Peak RSS of a fresh process running the set's first synth call.

        Its files are the set's inputs; later in-process runs must match them.
        """
        argv = input_set.synth[0]
        code, peak_mb, err = self.child(argv)
        problem = f"exit {code}: {err}" if code != 0 else None
        for path in synth_outputs(argv):
            digest = sha256_file(path) if problem is None else None
            if digest is not None:
                self.digests[path.name] = digest
                problem = self.same_as_first(path.name, digest)
        self.record("synth (fresh process)", problem)
        return peak_mb

    def detect_child(self, input_set) -> float:
        """Peak RSS of a fresh process running the set's first detect call.

        It writes beside the timed outputs; its rows must match theirs.
        """
        call = input_set.detect[0]
        argv = list(call.argv)
        for flag in ("--out", "--verdicts"):
            argv[argv.index(flag) + 1] += ".rss"
        code, peak_mb, err = self.child(argv)
        problem = f"exit {code}: {err}" if code != 0 else None
        for path in (call.events, call.verdicts):
            rss_path = Path(f"{path}.rss")
            if problem is None:
                problem = self.same_as_first(path.name, rows_sha256(rss_path))
            rss_path.unlink(missing_ok=True)
        self.record("detect (fresh process)", problem)
        return peak_mb

    def trace(self, seconds: float):
        """Per-layer metrics from traced passes over the first input set, and the tracers."""
        from spans import Tracer  # imports the package, so only once src/ is on the path

        input_set = self.sets[0]
        plain = self.visit(input_set, True)  # untraced reference outputs
        untraced = list(plain["detect"])
        synth_total = sum(plain["synth"])
        reference = {call.verdicts: call.verdicts.read_bytes() for call in input_set.detect}
        passes, traced, tracers = [], [], []
        started = time.perf_counter()
        while True:
            tracer = Tracer()
            run_synth = len(passes) == 0 or synth_total <= sum(untraced) + sum(traced)
            with tracer.installed():
                times = self.visit(input_set, run_synth, tracer)
            synth_total += sum(times["synth"])
            traced += times["detect"]
            for path, data in reference.items():
                self.record("traced verdicts", None if path.read_bytes() == data else
                            f"{path.name} differs from the untraced run")
            passes.append(self.layer_metrics(tracer, input_set))
            tracers.append(tracer)
            untraced += self.visit(input_set, False)["detect"]
            if len(passes) >= 2 and time.perf_counter() - started >= seconds:
                break
        self.check_counts(passes, input_set)
        metrics = {}
        for name in LAYER_UNITS:
            values = [p[name] for p in passes if name in p]
            if values:  # counts are checked equal across passes
                metrics[name] = values[0] if name in EXACT_COUNTS else statistics.median(values)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics.update(source_lines())
        return metrics, tracers

    def layer_metrics(self, tracer, input_set) -> dict:
        inclusive, own = tracer.inclusive_times(), tracer.self_times()
        counts = tracer.counts
        m = {}
        if "cli.synth" in own:
            m["signal_io.generate_s"] = own["signal_io.generate"]
            m["signal_io.write_s"] = own["signal_io.write"]
            m["cli.synth_self_s"] = own["cli.synth"]
        read_s = own["signal_io.read"]
        blocks = counts["spectral.blocks_transformed"]
        unique = tracer.unique_blocks()
        tp, fp, fn, tn = (sum(self.counts[c.name][i] for c in input_set.evals
                              if c.name in self.counts) for i in range(4))
        written = [path for call in input_set.detect for path in (call.events, call.verdicts)]
        m.update({
            "signal_io.read_s": read_s,
            "signal_io.read_mb_per_s": counts["signal_io.bytes_read"] / 1e6 / read_s,
            "signal_io.samples_kept": counts["signal_io.samples_kept"],
            "signal_io.samples_dropped": counts["signal_io.samples_dropped"],
            "windowing.windows_s": own["windowing.windows"],
            "windowing.block_matrix_s": own["windowing.block_matrix"],
            "windowing.windows": counts["windowing.windows"],
            "spectral.spectrogram_s": own["spectral.spectrogram"],
            "spectral.ns_per_block": own["spectral.spectrogram"] * 1e9 / blocks,
            "spectral.blocks_transformed": blocks,
            "spectral.unique_blocks": unique,
            "spectral.useful_ratio": unique / blocks,
            "detector.detect_s": inclusive["detector.detect"],
            "detector.select_bin_s": own["detector.select_bin"],
            "detector.forward_std_s": own["detector.forward_std"],
            "detector.fences_s": own["detector.fences"],
            "detector.unattributed_s": own["detector.detect"],
            "detector.windows_flagged": counts["detector.windows_flagged"],
            "detector.events": counts["detector.events"],
            "evaluation.match_s": own["evaluation.match"],
            "evaluation.count_tn_s": own["evaluation.count_tn"],
            "evaluation.tp": tp,
            "evaluation.fp": fp,
            "evaluation.fn": fn,
            "evaluation.tn": tn,
            "cli.detect_self_s": own["cli.detect"],
            "cli.eval_self_s": own["cli.eval"],
            "cli.bytes_written": sum(path.stat().st_size for path in written if path.exists()),
        })
        return m

    def check_counts(self, passes, input_set):
        """Counts must repeat in every pass and equal what the geometry implies."""
        windows = sum(call.windows for call in input_set.detect)
        expected = {
            "windowing.windows": windows,
            "spectral.blocks_transformed": windows * (WINDOW // BLOCK),
            "spectral.unique_blocks": sum(
                unique_block_count(call.windows, call.step) for call in input_set.detect),
        }
        for name in EXACT_COUNTS:
            values = {p[name] for p in passes}
            want = expected.get(name, next(iter(values)))
            self.record(f"count {name}", None if values == {want} else
                        f"traced passes gave {sorted(values)}, expected {want}")


def print_shares(tracers):
    """Median self time per layer inside each detect call, largest first."""
    for within in ("cli.detect", "detector.detect"):
        per_name = defaultdict(list)
        for tracer in tracers:
            for name, value in tracer.self_times(within).items():
                per_name[name].append(value)
        rows = sorted(((statistics.median(v), n) for n, v in per_name.items()), reverse=True)
        total = sum(value for value, _ in rows)
        print(f"self time inside {within} (median per traced pass):")
        for value, name in rows:
            print(f"  {name:24s} {value:10.4f} s {100 * value / total:6.1f}%")


def write_spans(path: Path, tracers):
    """One ``[pass, id, parent, name, start_ns, end_ns]`` array per line."""
    with open(path, "w") as fh:
        for number, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps([number, *span]) + "\n")


def summary(values) -> dict:
    """Sample count, median, mean and the highest percentile with 10 samples beyond it."""
    ordered = sorted(values)
    out = {"n": len(values), "median": statistics.median(values),
           "mean": statistics.fmean(values), "max": ordered[-1]}
    if len(values) > 10:
        out[f"p{100 * (len(values) - 10) // len(values)}"] = ordered[len(values) - 11]
    return out


def describe(name, value, unit, samples=None):
    line = f"  {name:28s} {value!r:>24} {unit}"
    if samples:
        line += f"  (n={len(samples)}, min {min(samples):.4g}, max {max(samples):.4g})"
    return line


def run_once(workload_name, seed, seconds, trace, smoke=False) -> dict:
    """One run in a scratch directory under the checkout; returns the result object."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    try:
        run = Run(WORKLOADS[workload_name], seed, workdir, smoke)
        if trace:
            metrics, tracers = run.trace(seconds)
            units = LAYER_UNITS
            print_shares(tracers)
            spans_path = WORK / f"spans-{workload_name}.jsonl"
            write_spans(spans_path, tracers)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            metrics = run.measure(seconds, 1 if smoke else SETUP_PROBES)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = {"setup_s": "setup", "synth_s": "synth", "detect_s": "detect", "eval_s": "eval"}
    print(f"workload {workload_name} seed {seed} trace {trace}:")
    for name, unit in units.items():
        print(describe(name, metrics[name], unit, run.samples.get(kind.get(name))))
    error_rate = run.failed / run.attempted
    print(f"  {'error_rate':28s} {error_rate!r:>24} ratio  "
          f"({run.failed} of {run.attempted} invocations failed)")
    for error in run.errors:
        print(f"  FAILED {error}")
    print("results " + json.dumps({
        "workload": workload_name, "seed": seed, "trace": trace, "smoke": smoke,
        "error_rate": error_rate, "errors": run.errors,
        "sha256": dict(sorted(run.digests.items())),
        "samples": {kind: summary(values) for kind, values in run.samples.items() if values},
    }, sort_keys=True))
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measuring time per run (default 45)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every declared workload at a tiny size, traced and untraced")
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no fencedetect sources at {PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    sys.path.insert(0, str(SRC))

    if not args.smoke:
        print(json.dumps(run_once(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = []
    for name in DECLARED:
        for trace in (0, 1):
            results.append(run_once(name, args.seed, 0.0, trace, smoke=True))
            print(f"result {name} trace {trace} {json.dumps(results[-1])}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
