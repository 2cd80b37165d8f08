"""Command-line entry point: detect, synth, eval and sweep subcommands."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from itertools import product
from operator import itemgetter
from pathlib import Path

from .detector import DetectorConfig, detect
from .evaluation import compute_metrics, count_tn, match_events, metrics_payload
from .signal_io import (
    FORMATS,
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
from .windowing import WindowingConfig


class CliError(Exception):
    """User-facing configuration or input problem."""


# the type of each numeric setting; config-file text is parsed as this type
_COERCE = {
    "rate": float, "k": float, "tolerance": float,
    "decimate": int, "window": int, "step": int, "block": int,
    "std_window": int, "seed": int,
}


@dataclass(frozen=True)
class RunConfig:
    """The settings every subcommand shares, in echo order, checked alike from any source."""

    input: str | None = None
    format: str = "csv"
    rate: float = 6000.0
    decimate: int = 1
    window: int = 6016
    step: int = 6016
    block: int = 128
    k: float = 0.5
    std_window: int = 4
    truth: str | None = None
    tolerance: float | None = None
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        for key, kind in _COERCE.items():
            value = getattr(self, key)
            if value is None and key == "tolerance":
                continue
            # an int setting takes no bool and no float, however integral
            if isinstance(value, bool) or not isinstance(value, (int, kind)):
                raise CliError(f"{key} must be of type {kind.__name__}, got {value!r}")
            try:
                float(value)  # every setting meets float arithmetic somewhere
            except OverflowError:
                raise CliError(f"{key} is too large for a float") from None
            object.__setattr__(self, key, kind(value))
        if self.format not in FORMATS:
            raise CliError(f"unknown format {self.format!r}, expected one of {FORMATS}")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise CliError(f"rate must be finite and positive, got {self.rate!r}")
        if not math.isfinite(self.k):
            raise CliError(f"k must be finite, got {self.k!r}")
        if self.seed < 0:
            raise CliError(f"seed must be nonnegative, got {self.seed!r}")
        for key in ("decimate", "window"):
            if getattr(self, key) < 1:
                raise CliError(f"{key} must be at least 1, got {getattr(self, key)!r}")
        if not self.rate / self.decimate > 0:
            raise CliError(f"rate / decimate must be positive, got {self.rate!r} / {self.decimate}")
        tolerance = self.tolerance_s
        if not (math.isfinite(tolerance) and tolerance >= 0):
            raise CliError(f"tolerance (default: one window) must be finite and nonnegative, "
                           f"got {tolerance!r}")

    @property
    def detector(self) -> DetectorConfig:
        """The detector settings; ``CliError`` when the geometry, k or std_window is bad."""
        try:
            wcfg = WindowingConfig(self.window, self.step, self.block)
            return DetectorConfig(k=self.k, std_window=self.std_window, windowing=wcfg)
        except ValueError as exc:
            raise CliError(str(exc)) from exc

    @property
    def tolerance_s(self) -> float:
        """The match tolerance: the one given, else one window of the detected stream."""
        if self.tolerance is None:
            return self.window / (self.rate / self.decimate)
        return self.tolerance


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
        if key not in RunConfig.__dataclass_fields__:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _COERCE.get(key, str)(value)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return values


def _given(args: argparse.Namespace) -> dict:
    """The flags' settings over the config file's; a command merges them over its fallback."""
    given = _parse_config(Path(args.config)) if args.config else {}
    given.update((key, flag) for key in RunConfig.__dataclass_fields__
                 if (flag := getattr(args, key)) is not None)
    return given


def _load(rc: RunConfig, column: int | None = None) -> SampleStream:
    """Read the input (``column`` of a multichannel CSV when given), note drops, decimate."""
    if column is None:
        stream, report = read_waveform(rc.input, rc.format, rc.rate)
    else:
        stream, report = read_multichannel_csv(rc.input, column, rc.rate)
    if report.dropped:
        print(f"note: dropped {report.dropped} invalid samples from {report.source}",
              file=sys.stderr)
    return decimate(stream, rc.decimate) if rc.decimate > 1 else stream


# one events or verdicts row, byte for byte what json.dumps gives for its three keys;
# %r of a finite Python float is the repr json.dumps writes
_EVENT_ROW = '{"sample_index": %d, "time_s": %r, "window_start": %d}\n'
_VERDICT_ROW = '{"window_start": %d, "is_event": %s, "first_outlier_block": %s}\n'


def cmd_detect(args: argparse.Namespace) -> int:
    # a two-current-channel export is 12 kHz, halved to 6 kHz, unless a setting says otherwise
    bled = {"rate": 12000.0, "decimate": 2} if args.bled_layout else {}
    rc = RunConfig(**{**bled, **_given(args)})
    if not rc.input:
        raise CliError("detect needs --input")
    cfg = rc.detector
    stream = _load(rc, _BLED_COLUMNS.get(args.bled_layout))

    events, verdicts = detect(stream, cfg)

    header = json.dumps({"config": asdict(rc)})
    text = header + "\n" + "".join(_EVENT_ROW % row for row in events.tolist())
    (Path(rc.out).write_text if rc.out else sys.stdout.write)(text)

    if args.verdicts:
        columns = zip(verdicts.window_start.tolist(), verdicts.is_event.tolist(),
                      verdicts.first_outlier_block.tolist())
        rows = "".join(
            _VERDICT_ROW % ((start, "true", first) if flag else (start, "false", "null"))
            for start, flag, first in columns
        )
        Path(args.verdicts).write_text(header + "\n" + rows)
    return 0


# the JSON type each key of a detect output row holds
_EVENT_KEYS = {"sample_index": "int", "time_s": "number", "window_start": "int"}
_VERDICT_KEYS = {"window_start": "int", "is_event": "bool", "first_outlier_block": "int|null"}
# the Python types json.loads gives for each; exact, since bool is an int subclass
_JSON_TYPES = {"int": (int,), "number": (int, float), "bool": (bool,),
               "int|null": (int, type(None))}


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _read_rows(path: str, keys: dict[str, str]) -> tuple[dict, dict[str, tuple]]:
    """The ``{"config": ...}`` header of a detect output file and its rows as columns.

    A line holding a ``"config"`` object is the header; every other non-blank
    line must be a JSON object whose ``keys`` hold their JSON types, else
    ``ValueError`` (exit 1) names the file and line.
    """
    # JSON has no NaN or Infinity and no float beyond the double range
    decode = json.JSONDecoder(parse_float=_finite_float, parse_constant=_finite_float).decode
    pick = itemgetter(*keys)
    # every combination of the keys' types, so one set lookup checks a row
    allowed = set(product(*(_JSON_TYPES[kind] for kind in keys.values())))
    header, rows = {}, []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        row = None
        try:
            row = decode(line)
            values = pick(row)  # KeyError: a key is missing; TypeError: not an object
            if tuple(map(type, values)) in allowed:
                rows.append(values)
                continue
        except (KeyError, TypeError, ValueError):  # ValueError: not JSON
            pass
        if not (isinstance(row, dict) and isinstance(row.get("config"), dict)):
            expected = ", ".join(f"{key!r}: {kind}" for key, kind in keys.items())
            raise ValueError(f"{path}:{lineno}: expected an object with {expected}")
        header = row["config"]
    return header, dict(zip(keys, zip(*rows))) if rows else dict.fromkeys(keys, ())


def cmd_eval(args: argparse.Namespace) -> int:
    given = _given(args)
    rc = RunConfig(**given)
    if not rc.input:
        raise CliError("eval needs --input (a detect events file)")
    if not rc.truth:
        raise CliError("eval needs --truth")
    header, events = _read_rows(rc.input, _EVENT_KEYS)
    # the geometry detect ran with, unless a setting says otherwise
    geometry = {key: header[key] for key in ("window", "rate", "decimate") if key in header}
    try:
        rc = RunConfig(**{**geometry, **given})
    except CliError as exc:
        raise CliError(f"{rc.input}: in the config header: {exc}") from None
    truth_s = [t.time_s for t in read_ground_truth(rc.truth)]
    match = match_events(events["time_s"], truth_s, rc.tolerance_s)
    tn = 0
    if args.verdicts:
        _, verdicts = _read_rows(args.verdicts, _VERDICT_KEYS)
        tn = count_tn(verdicts["window_start"], verdicts["is_event"], truth_s, rc.tolerance_s,
                      window_len=rc.window, sample_rate_hz=rc.rate / rc.decimate)
    payload = metrics_payload(match, compute_metrics(match, tn))
    payload["config"] = asdict(rc)
    text = json.dumps(payload)
    print(text)
    if rc.out:
        Path(rc.out).write_text(text + "\n")
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
    rc = RunConfig(**_given(args))
    if args.duration is None:
        raise CliError("synth needs --duration")
    if not rc.out:
        raise CliError("synth needs --out for the waveform (raw-f64le)")
    if not rc.truth:
        raise CliError("synth needs --truth for the ground-truth csv")
    try:
        spec = SyntheticSpec(
            duration_s=args.duration,
            mains_hz=args.mains_hz,
            base_amplitude_a=args.base_amplitude,
            noise_std_a=args.noise_std,
            events=tuple(_parse_event_flag(e) for e in (args.event or [])),
            seed=rc.seed,
            sample_rate_hz=rc.rate,
            drift_depth=args.drift_depth,
            drift_period_s=args.drift_period,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    stream, truth = generate_synthetic(spec)
    write_waveform(stream, rc.out, "raw-f64le")
    write_ground_truth(truth, rc.truth)
    # raw and plain-csv outputs take no header; provenance goes to stdout
    print(json.dumps({"config": {
        "duration": spec.duration_s, "rate": spec.sample_rate_hz,
        "mains_hz": spec.mains_hz, "base_amplitude": spec.base_amplitude_a,
        "noise_std": spec.noise_std_a, "events": len(spec.events),
        "seed": spec.seed, "drift_depth": spec.drift_depth,
        "drift_period": spec.drift_period_s,
        "out": rc.out, "truth": rc.truth,
    }}))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rc = RunConfig(**_given(args))
    if not rc.input:
        raise CliError("sweep needs --input")
    if not rc.truth:
        raise CliError("sweep needs --truth")
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise CliError("sweep needs a nonempty --values list")
    try:
        values = [_COERCE[args.param](v) for v in raw_values]
    except ValueError as exc:
        raise CliError(f"bad --values entry for {args.param}: {exc}") from exc
    configs = [replace(rc, **{args.param: value}).detector for value in values]

    stream = _load(rc)
    truth_s = [t.time_s for t in read_ground_truth(rc.truth)]

    text = ("# config: " + json.dumps(asdict(rc)) + "\n"
            "value,tp,fp,fn,precision,recall,f_measure,wall_time_ms\n")
    for value, cfg in zip(values, configs):
        started = time.perf_counter()
        events, _ = detect(stream, cfg)
        wall_ms = (time.perf_counter() - started) * 1000.0
        match = match_events(events.time_s, truth_s, rc.tolerance_s)
        m = compute_metrics(match)
        text += (f"{value},{match.tp},{match.fp},{match.fn},"
                 f"{m.precision!r},{m.recall!r},{m.f_measure!r},{wall_ms:.1f}\n")
    (Path(rc.out).write_text if rc.out else sys.stdout.write)(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fencedetect",
        description="Detect appliance on/off events in aggregate current waveforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", help="input file (waveform, or events file for eval)")
    shared.add_argument("--format", choices=list(FORMATS),
                        help="waveform file format (default csv)")
    shared.add_argument("--rate", type=float, help="sample rate in Hz (default 6000)")
    shared.add_argument("--decimate", type=int,
                        help="keep every n-th sample before detection (default 1)")
    shared.add_argument("--window", type=int,
                        help="analysis window length in samples (default 6016)")
    shared.add_argument("--step", type=int,
                        help="window step in samples (default 6016, non-overlapping)")
    shared.add_argument("--block", type=int, help="FFT block length in samples (default 128)")
    shared.add_argument("--k", type=float, help="Tukey fence constant (default 0.5)")
    shared.add_argument("--std-window", type=int, dest="std_window",
                        help="forward standard deviation width in blocks (default 4)")
    shared.add_argument("--truth", help="ground-truth csv (time_s[,label])")
    shared.add_argument("--tolerance", type=float,
                        help="match tolerance in seconds (default: one window)")
    shared.add_argument("--seed", type=int, help="generator seed (default 0)")
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
                         choices=["k", "std_window", "step"],
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
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
