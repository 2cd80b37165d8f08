"""Command-line entry point: detect, synth, eval and sweep subcommands."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .detector import DetectedEvent, DetectorConfig, WindowVerdict, detect
from .evaluation import (
    compute_metrics,
    count_tn,
    match_events,
    metrics_payload,
)
from .signal_io import (
    FORMATS,
    SyntheticSpec,
    decimate,
    generate_synthetic,
    read_ground_truth,
    read_multichannel_csv,
    read_waveform,
    write_ground_truth,
    write_waveform,
)
from .windowing import WindowingConfig


class CliError(Exception):
    """User-facing configuration or input problem."""


# keys shared by flags and config files, in echo order
_RUN_KEYS = (
    "input", "format", "rate", "decimate", "window", "step", "block",
    "k", "std_window", "truth", "tolerance", "seed", "out",
)

_DEFAULTS = {
    "format": "csv",
    "rate": 6000.0,
    "decimate": 1,
    "window": 6016,
    "step": 6016,
    "block": 128,
    "k": 0.5,
    "std_window": 4,
    "seed": 0,
}

_COERCE = {
    "rate": float, "k": float, "tolerance": float,
    "decimate": int, "window": int, "step": int, "block": int,
    "std_window": int, "seed": int,
}

_BLED_COLUMNS = {"a": 1, "b": 2}


def _parse_config(path: Path) -> dict:
    """Read a line-oriented ``key = value`` file; unknown keys are fatal."""
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _RUN_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _COERCE.get(key, str)(value)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return values


def _resolve(args: argparse.Namespace) -> tuple[dict, set]:
    """Merge flags over config-file values over defaults.

    Returns the resolved mapping and the set of keys that fell through to
    their built-in default (callers may re-default those contextually).
    """
    from_file = _parse_config(Path(args.config)) if getattr(args, "config", None) else {}
    resolved = {}
    defaulted = set()
    for key in _RUN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = _DEFAULTS.get(key)
            defaulted.add(key)
    _check_shared(resolved)
    return resolved, defaulted


def _check_shared(rc: dict) -> None:
    """Reject a bad format, rate, decimate, window or tolerance (exit 2)."""
    if rc["format"] not in FORMATS:
        raise CliError(f"unknown format {rc['format']!r}, expected one of {FORMATS}")
    if not (math.isfinite(rc["rate"]) and rc["rate"] > 0):
        raise CliError(f"rate must be finite and positive, got {rc['rate']!r}")
    for key in ("decimate", "window"):
        if rc[key] < 1:
            raise CliError(f"{key} must be at least 1, got {rc[key]!r}")
    tolerance = rc["tolerance"]
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
        raise CliError(f"tolerance must be finite and nonnegative, got {tolerance!r}")


def _effective(rc: dict) -> dict:
    return {key: rc[key] for key in _RUN_KEYS}


def _write_lines(lines: list[str], out: str | None) -> None:
    text = "".join(line + "\n" for line in lines)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _detector_config(rc: dict) -> DetectorConfig:
    try:
        wcfg = WindowingConfig(
            window_len=rc["window"], step=rc["step"], block_len=rc["block"]
        )
        return DetectorConfig(k=rc["k"], std_window=rc["std_window"], windowing=wcfg)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _detected_rate(rc: dict) -> float:
    """Sample rate of the stream the detector saw: the input rate over decimate."""
    return rc["rate"] / rc["decimate"]


def _default_tolerance(rc: dict) -> float:
    if rc["tolerance"] is not None:
        return rc["tolerance"]
    return rc["window"] / _detected_rate(rc)


# one verdicts row, byte for byte what json.dumps gives for its three keys
_VERDICT_ROW = '{"window_start": %d, "is_event": %s, "first_outlier_block": %s}\n'


def cmd_detect(args: argparse.Namespace) -> int:
    rc, defaulted = _resolve(args)
    if not rc["input"]:
        raise CliError("detect needs --input")
    cfg = _detector_config(rc)
    if args.bled_layout:
        # two-current-channel export: 12 kHz halved to 6 kHz unless overridden
        if "rate" in defaulted:
            rc["rate"] = 12000.0
        if "decimate" in defaulted:
            rc["decimate"] = 2
        column = _BLED_COLUMNS[args.bled_layout]
        stream, report = read_multichannel_csv(rc["input"], column, rc["rate"])
    else:
        stream, report = read_waveform(rc["input"], rc["format"], rc["rate"])
    if report.dropped:
        print(f"note: dropped {report.dropped} invalid samples from {report.source}",
              file=sys.stderr)
    if rc["decimate"] > 1:
        stream = decimate(stream, rc["decimate"])

    events, verdicts = detect(stream, cfg)

    header = json.dumps({"config": _effective(rc)})
    lines = [header] + [
        json.dumps({
            "sample_index": ev.sample_index,
            "time_s": ev.time_s,
            "window_start": ev.window_span[0],
        })
        for ev in events
    ]
    _write_lines(lines, rc["out"])

    if args.verdicts:
        columns = zip(verdicts.window_start.tolist(), verdicts.is_event.tolist(),
                      verdicts.first_outlier_block.tolist())
        rows = "".join(
            _VERDICT_ROW % ((start, "true", first) if flag else (start, "false", "null"))
            for start, flag, first in columns
        )
        Path(args.verdicts).write_text(header + "\n" + rows)
    return 0


def _read_events_file(path: str) -> tuple[dict, list[DetectedEvent]]:
    """The ``{"config": ...}`` header (empty when absent) and the events."""
    header, events = {}, []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if "sample_index" not in obj:  # provenance header
            if isinstance(obj.get("config"), dict):
                header = obj["config"]
            continue
        events.append(DetectedEvent(
            sample_index=int(obj["sample_index"]),
            time_s=float(obj["time_s"]),
            window_span=(int(obj["window_start"]), int(obj["window_start"])),
        ))
    return header, events


def _read_verdicts_file(path: str) -> list[WindowVerdict]:
    verdicts = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if "is_event" not in obj:
            continue
        verdicts.append(WindowVerdict(
            window_start=int(obj["window_start"]),
            is_event=bool(obj["is_event"]),
            first_outlier_block=obj["first_outlier_block"],
            selection=None,
            fences=None,
        ))
    return verdicts


# settings eval reads from the events header when no flag or config file gives them
_HEADER_GEOMETRY = ("window", "rate", "decimate")


def cmd_eval(args: argparse.Namespace) -> int:
    rc, defaulted = _resolve(args)
    if not rc["input"]:
        raise CliError("eval needs --input (a detect events file)")
    if not rc["truth"]:
        raise CliError("eval needs --truth")
    header, detected = _read_events_file(rc["input"])
    for key in _HEADER_GEOMETRY:
        if key in defaulted and key in header:
            try:
                rc[key] = _COERCE[key](header[key])
            except (TypeError, ValueError) as exc:
                raise CliError(
                    f"{rc['input']}: bad {key!r} in the config header: {header[key]!r}"
                ) from exc
    _check_shared(rc)
    truth = read_ground_truth(rc["truth"])
    tolerance = _default_tolerance(rc)
    match = match_events(detected, truth, tolerance)
    tn = 0
    if args.verdicts:
        tn = count_tn(
            _read_verdicts_file(args.verdicts), truth, tolerance,
            window_len=rc["window"], sample_rate_hz=_detected_rate(rc),
        )
    payload = metrics_payload(match, compute_metrics(match, tn))
    payload["config"] = _effective(rc)
    text = json.dumps(payload)
    print(text)
    if rc["out"]:
        Path(rc["out"]).write_text(text + "\n")
    return 0


def _parse_event_flag(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise CliError(f"--event expects TIME:DELTA[:ORDERxFRAC,...], got {text!r}")
    try:
        time_s, delta = float(parts[0]), float(parts[1])
        harmonics = []
        if len(parts) == 3 and parts[2]:
            for item in parts[2].split(","):
                order, frac = item.split("x")
                harmonics.append((int(order), float(frac)))
    except ValueError as exc:
        raise CliError(f"bad --event value {text!r}") from exc
    return (time_s, delta, tuple(harmonics))


def cmd_synth(args: argparse.Namespace) -> int:
    rc, _ = _resolve(args)
    if args.duration is None:
        raise CliError("synth needs --duration")
    if not rc["out"]:
        raise CliError("synth needs --out for the waveform (raw-f64le)")
    if not rc["truth"]:
        raise CliError("synth needs --truth for the ground-truth csv")
    try:
        spec = SyntheticSpec(
            duration_s=args.duration,
            mains_hz=args.mains_hz,
            base_amplitude_a=args.base_amplitude,
            noise_std_a=args.noise_std,
            events=tuple(_parse_event_flag(e) for e in (args.event or [])),
            seed=rc["seed"],
            sample_rate_hz=rc["rate"],
            drift_depth=args.drift_depth,
            drift_period_s=args.drift_period,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    stream, truth = generate_synthetic(spec)
    write_waveform(stream, rc["out"], "raw-f64le")
    write_ground_truth(truth, rc["truth"])
    # raw and plain-csv outputs take no header; provenance goes to stdout
    print(json.dumps({"config": {
        "duration": spec.duration_s, "rate": spec.sample_rate_hz,
        "mains_hz": spec.mains_hz, "base_amplitude": spec.base_amplitude_a,
        "noise_std": spec.noise_std_a, "events": len(spec.events),
        "seed": spec.seed, "drift_depth": spec.drift_depth,
        "drift_period": spec.drift_period_s,
        "out": rc["out"], "truth": rc["truth"],
    }}))
    return 0


_SWEEP_TYPES = {"step": int, "k": float, "std_window": int}


def cmd_sweep(args: argparse.Namespace) -> int:
    rc, _ = _resolve(args)
    if not rc["input"]:
        raise CliError("sweep needs --input")
    if not rc["truth"]:
        raise CliError("sweep needs --truth")
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise CliError("sweep needs a nonempty --values list")
    try:
        values = [_SWEEP_TYPES[args.param](v) for v in raw_values]
    except ValueError as exc:
        raise CliError(f"bad --values entry for {args.param}: {exc}") from exc
    configs = [_detector_config({**rc, args.param: value}) for value in values]

    stream, report = read_waveform(rc["input"], rc["format"], rc["rate"])
    if report.dropped:
        print(f"note: dropped {report.dropped} invalid samples from {report.source}",
              file=sys.stderr)
    if rc["decimate"] > 1:
        stream = decimate(stream, rc["decimate"])
    truth = read_ground_truth(rc["truth"])
    tolerance = _default_tolerance(rc)

    lines = [
        "# config: " + json.dumps(_effective(rc)),
        "value,tp,fp,fn,precision,recall,f_measure,wall_time_ms",
    ]
    for value, cfg in zip(values, configs):
        started = time.perf_counter()
        events, _ = detect(stream, cfg)
        wall_ms = (time.perf_counter() - started) * 1000.0
        match = match_events(events, truth, tolerance)
        m = compute_metrics(match)
        lines.append(
            f"{value},{match.tp},{match.fp},{match.fn},"
            f"{m.precision!r},{m.recall!r},{m.f_measure!r},{wall_ms:.1f}"
        )
    _write_lines(lines, rc["out"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fencedetect",
        description="Detect appliance on/off events in aggregate current waveforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", help="input file (waveform, or events file for eval)")
    shared.add_argument("--format", choices=list(FORMATS), default=None,
                        help="waveform file format (default csv)")
    shared.add_argument("--rate", type=float, default=None,
                        help="sample rate in Hz (default 6000)")
    shared.add_argument("--decimate", type=int, default=None,
                        help="keep every n-th sample before detection (default 1)")
    shared.add_argument("--window", type=int, default=None,
                        help="analysis window length in samples (default 6016)")
    shared.add_argument("--step", type=int, default=None,
                        help="window step in samples (default 6016, non-overlapping)")
    shared.add_argument("--block", type=int, default=None,
                        help="FFT block length in samples (default 128)")
    shared.add_argument("--k", type=float, default=None,
                        help="Tukey fence constant (default 0.5)")
    shared.add_argument("--std-window", type=int, default=None, dest="std_window",
                        help="forward standard deviation width in blocks (default 4)")
    shared.add_argument("--truth", help="ground-truth csv (time_s[,label])")
    shared.add_argument("--tolerance", type=float, default=None,
                        help="match tolerance in seconds (default: one window)")
    shared.add_argument("--seed", type=int, default=None,
                        help="generator seed (default 0)")
    shared.add_argument("--out", help="output path (default: standard output)")
    shared.add_argument("--config", help="key = value config file; flags win")

    p_detect = sub.add_parser("detect", parents=[shared],
                              help="find events in a waveform, write JSON lines")
    p_detect.add_argument("--bled-layout", choices=sorted(_BLED_COLUMNS),
                          help="input is a two-current-channel csv export "
                               "(time, current a, current b, voltage); picks the "
                               "phase column and defaults to 12 kHz decimated by 2")
    p_detect.add_argument("--verdicts",
                          help="also write per-window verdicts to this path")
    p_detect.set_defaults(func=cmd_detect)

    p_synth = sub.add_parser("synth", parents=[shared],
                             help="generate a seeded test waveform + ground truth")
    p_synth.add_argument("--duration", type=float, help="length in seconds")
    p_synth.add_argument("--mains-hz", type=float, default=60.0)
    p_synth.add_argument("--base-amplitude", type=float, default=1.0)
    p_synth.add_argument("--noise-std", type=float, default=0.0)
    p_synth.add_argument("--event", action="append",
                         help="TIME:DELTA[:ORDERxFRAC,...], repeatable")
    p_synth.add_argument("--drift-depth", type=float, default=0.0,
                         help="triangle amplitude modulation depth (default 0)")
    p_synth.add_argument("--drift-period", type=float, default=10.0,
                         help="triangle modulation period in seconds")
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", parents=[shared],
                            help="score an events file against ground truth")
    p_eval.add_argument("--verdicts",
                        help="verdicts file from detect, enables the TN count")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", parents=[shared],
                             help="re-run detection across parameter values")
    p_sweep.add_argument("--param", required=True,
                         choices=sorted(_SWEEP_TYPES),
                         help="which parameter to sweep")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
