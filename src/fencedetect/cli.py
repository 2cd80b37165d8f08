"""Command-line entry point: detect, synth, eval and sweep subcommands."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import get_type_hints

from .detector import CHUNK_WINDOWS, DetectorConfig, detect
from .evaluation import count_tn, match_events, metrics_from_counts
from .signal_io import (
    FORMATS,
    SampleStream,
    SyntheticSpec,
    decimate,
    generate_synthetic,  # unused, as are write_ground_truth and write_waveform; bench wraps them
    read_ground_truth,
    read_multichannel_csv,
    read_waveform,
    replaced_at_end,
    write_ground_truth,
    write_synthetic,
    write_waveform,
)


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
    rate: float = SyntheticSpec.sample_rate_hz
    decimate: int = 1
    window: int = DetectorConfig.window_len
    step: int | None = None  # None: the window length, so windows sit back to back
    block: int = DetectorConfig.block_len
    k: float = DetectorConfig.k
    std_window: int = DetectorConfig.std_window
    truth: str | None = None
    tolerance: float | None = None
    seed: int = SyntheticSpec.seed
    out: str | None = None

    def __post_init__(self) -> None:
        if self.step is None:
            object.__setattr__(self, "step", self.window)
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
        """The detector settings; ``CliError``, naming the keys, when the geometry, k or
        std_window is bad."""
        try:
            return DetectorConfig(window_len=self.window, step=self.step, block_len=self.block,
                                  k=self.k, std_window=self.std_window)
        except ValueError as exc:
            raise CliError(re.sub(r"\b(window|block)_len\b", r"\1", str(exc))) from exc

    @property
    def tolerance_s(self) -> float:
        """The match tolerance: the one given, else one window of the detected stream."""
        if self.tolerance is None:
            return self.window / (self.rate / self.decimate)
        return self.tolerance


# a two-current-channel csv export: its phase column by --bled-layout, and the settings it
# defaults to (12 kHz, halved to 6 kHz) unless a flag or the config file says otherwise
_BLED_COLUMNS = {"a": 1, "b": 2}
_BLED = {"format": "csv", "rate": 12000.0, "decimate": 2}


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
    """The flags' settings over the config file's; a command merges them over its fallback.

    ``CliError`` when a setting the command needs is given by neither.
    """
    given = _parse_config(Path(args.config)) if args.config else {}
    given.update((key, flag) for key, flag in vars(args).items()
                 if key in RunConfig.__dataclass_fields__ and flag is not None)
    for key in _COMMANDS[args.command][3].split():
        if {**vars(args), **given}[key] in (None, ""):
            raise CliError(f"{args.command} needs --{key.replace('_', '-')}")
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
    return decimate(stream, rc.decimate)


# one events or verdicts row, byte for byte what json.dumps gives for its three keys;
# %r of a finite Python float is the repr json.dumps writes
_EVENT_ROW = '{"sample_index": %d, "time_s": %r, "window_start": %d}\n'
_VERDICT_ROW = '{"window_start": %d, "is_event": %s, "first_outlier_block": %s}\n'


def _event_rows(events) -> str:
    return "".join(_EVENT_ROW % row for row in events.tolist())


def _verdict_rows(verdicts) -> str:
    columns = zip(verdicts.window_start.tolist(), verdicts.is_event.tolist(),
                  verdicts.first_outlier_block.tolist())
    return "".join(_VERDICT_ROW % ((start, "true", first) if flag else (start, "false", "null"))
                   for start, flag, first in columns)


def cmd_detect(args: argparse.Namespace) -> int:
    rc = RunConfig(**{**(_BLED if args.bled_layout else {}), **_given(args)})
    if args.bled_layout and rc.format != _BLED["format"]:
        raise CliError(f"--bled-layout reads a csv export, got format {rc.format!r}")
    cfg = rc.detector
    header = json.dumps({"config": _echo(args, rc)}) + "\n"
    with replaced_at_end(rc.out or None, args.verdicts or None) as (out, sidecar):
        events, verdicts = detect(_load(rc, _BLED_COLUMNS.get(args.bled_layout)), cfg)
        for fh, rows, to_text in [(out or sys.stdout, events, _event_rows),
                                  (sidecar, verdicts, _verdict_rows)]:
            if fh is not None:  # the text of CHUNK_WINDOWS rows at a time, not the run's
                fh.write(header)
                for i in range(0, len(rows), CHUNK_WINDOWS):
                    fh.write(to_text(rows[i:i + CHUNK_WINDOWS]))
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


# what a separating NaN decodes to in _decode_lines; any other constant raises
_SEPARATOR = object()
_SEPARATING_NAN = {"NaN": _SEPARATOR}.__getitem__


def _decode_lines(lines: list[str]) -> list:
    """Each line's JSON value, or ``None`` where a line is not one JSON value.

    JSON has no NaN or Infinity and no float beyond the double range, so
    those are refused as not JSON. The lines are parsed at once, as one
    array with a ``NaN`` between each two. When no line holds the text
    ``NaN`` and every other element of the array is a separator, every
    separator was parsed at the top level, so each line held exactly one
    value: the value a parse of that line alone gives. Otherwise each line
    is parsed on its own.
    """
    text = "[" + ",NaN,".join(lines) + "]"
    decode = json.JSONDecoder(parse_float=_finite_float, parse_constant=_SEPARATING_NAN).decode
    try:
        values = decode(text)
    except (KeyError, ValueError):  # KeyError: Infinity or -Infinity
        values = None
    separators = max(0, len(lines) - 1)
    if (values is not None and len(values) == len(lines) + separators
            and values[1::2].count(_SEPARATOR) == text.count("NaN") == separators):
        return values[::2]
    decode = json.JSONDecoder(parse_float=_finite_float, parse_constant=_finite_float).decode
    values = []
    for line in lines:
        try:
            values.append(decode(line))
        except ValueError:  # not JSON
            values.append(None)
    return values


def _read_rows(path: str, keys: dict[str, str]) -> tuple[dict, dict[str, tuple]]:
    """The ``{"config": ...}`` header of a detect output file and its rows as columns.

    A line holding a ``"config"`` object is the header; every other non-blank
    line must be a JSON object whose ``keys`` hold their JSON types, else
    ``ValueError`` (exit 1) names the file and line. The types are checked
    column by column; only a file that fails that check is walked row by
    row, to name its first bad line.
    """
    pick = itemgetter(*keys)
    allowed = [set(_JSON_TYPES[kind]) for kind in keys.values()]
    lines = Path(path).read_text().splitlines()
    decoded = _decode_lines(list(filter(str.strip, lines)))

    def is_header(row) -> bool:
        return isinstance(row, dict) and isinstance(row.get("config"), dict)

    header, rows = {}, []
    for row in decoded:
        try:
            rows.append(pick(row))  # KeyError: a key is missing; TypeError: not an object
        except (KeyError, TypeError):
            if not is_header(row):
                break
            header = row["config"]
    else:
        columns = list(zip(*rows)) or [()] * len(keys)
        if all(set(map(type, column)) <= ok for column, ok in zip(columns, allowed)):
            return header, dict(zip(keys, columns))

    # row by row, to name the first bad line; a "config" row with mistyped keys is a header
    header, rows = {}, []
    for i, row in enumerate(decoded):
        try:
            values = pick(row)
            if all(type(value) in ok for value, ok in zip(values, allowed)):
                rows.append(values)
                continue
        except (KeyError, TypeError):
            pass
        if not is_header(row):
            lineno = [n for n, line in enumerate(lines, start=1) if line.strip()][i]
            expected = ", ".join(f"{key!r}: {kind}" for key, kind in keys.items())
            raise ValueError(f"{path}:{lineno}: expected an object with {expected}")
        header = row["config"]
    return header, dict(zip(keys, zip(*rows))) if rows else dict.fromkeys(keys, ())


def cmd_eval(args: argparse.Namespace) -> int:
    given = _given(args)
    rc = RunConfig(**given)
    with replaced_at_end(rc.out or None) as (out,):
        header, events = _read_rows(rc.input, _EVENT_KEYS)
        # the settings detect ran with, unless a flag or the config file says otherwise
        ran = {key: header[key] for key in _DETECTOR_FLAGS.split() if key in header}
        try:
            rc = RunConfig(**{**ran, **given})
        except CliError as exc:
            raise CliError(f"{rc.input}: in the config header: {exc}") from None
        rc.detector  # CliError (exit 2) when no detect run could use the merged settings
        truth_s = [t.time_s for t in read_ground_truth(rc.truth)]
        match = match_events(events["time_s"], truth_s, rc.tolerance_s)
        tn = 0
        if args.verdicts:
            _, verdicts = _read_rows(args.verdicts, _VERDICT_KEYS)
            tn = count_tn(verdicts["window_start"], verdicts["is_event"], truth_s, rc.tolerance_s,
                          window_len=rc.window, sample_rate_hz=rc.rate / rc.decimate)
        text = json.dumps({**metrics_from_counts(match.tp, match.fp, match.fn, tn),
                           "tolerance_s": rc.tolerance_s, "config": _echo(args, rc)})
        print(text)
        if out is not None:
            out.write(text + "\n")
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
    given = _given(args)
    rc = RunConfig(**given)
    if given.get("format", "raw-f64le") != "raw-f64le":
        raise CliError(f"synth writes raw-f64le only, got format {rc.format!r}")
    # the flags given over SyntheticSpec's defaults; rate and seed from either source, checked
    events = tuple(map(_parse_event_flag, args.event or []))
    values = {**vars(args), **asdict(rc), "events": events}
    try:
        spec = SyntheticSpec(**{field: values[key] for key, field in _SYNTH.items()
                                if values[key] is not None})
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    write_synthetic(spec, rc.out, rc.truth)
    # raw and plain-csv outputs take no header; provenance goes to stdout
    echo = {key: getattr(spec, field) for key, field in _SYNTH.items()}
    echo["events"] = len(spec.events)
    print(json.dumps({"config": {**echo, "out": rc.out, "truth": rc.truth}}))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rc = RunConfig(**_given(args))
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise CliError("sweep needs a nonempty --values list")
    try:
        values = [_COERCE[args.param](v) for v in raw_values]
    except ValueError as exc:
        raise CliError(f"bad --values entry for {args.param}: {exc}") from exc
    configs = [replace(rc, **{args.param: value}).detector for value in values]

    with replaced_at_end(rc.out or None) as (out,):
        stream = _load(rc)
        truth_s = [t.time_s for t in read_ground_truth(rc.truth)]

        text = ("# config: " + json.dumps(_echo(args, rc)) + "\n"
                "value,tp,fp,fn,precision,recall,f_measure,wall_time_ms\n")
        for value, cfg in zip(values, configs):
            started = time.perf_counter()
            events, _ = detect(stream, cfg)
            wall_ms = (time.perf_counter() - started) * 1000.0
            match = match_events(events.time_s, truth_s, rc.tolerance_s)
            m = metrics_from_counts(match.tp, match.fp, match.fn)
            text += (f"{value},{m['tp']},{m['fp']},{m['fn']},"
                     f"{m['precision']!r},{m['recall']!r},{m['f_measure']!r},{wall_ms:.1f}\n")
        (out or sys.stdout).write(text)
    return 0


def _shown(value) -> str:
    """A default as help states it: a whole float without its trailing ".0"."""
    return str(value).removesuffix(".0")


# each synth setting's SyntheticSpec field, in synth's echo order; --event gives the events
_SYNTH = {"duration": "duration_s", "rate": "sample_rate_hz", "mains_hz": "mains_hz",
          "base_amplitude": "base_amplitude_a", "noise_std": "noise_std_a", "events": "events",
          "seed": "seed", "drift_depth": "drift_depth", "drift_period": "drift_period_s"}

# each flag's argparse options, by setting name; _options adds a setting's type and default
_FLAGS = {
    "input": dict(help="input file: a waveform, or for eval a detect events file"),
    "format": dict(choices=list(FORMATS), help="waveform file format"),
    "rate": dict(help="sample rate in Hz"),
    "decimate": dict(help="keep every n-th sample before detection"),
    "window": dict(help="analysis window length in samples"),
    "step": dict(help="window step in samples, a block multiple no longer than the window "
                      "(default: the window length)"),
    "block": dict(help="FFT block length in samples"),
    "k": dict(help="Tukey fence constant"),
    "std_window": dict(help="forward standard deviation width in blocks"),
    "truth": dict(help="ground-truth csv (time_s[,label]); synth writes it, the others read it"),
    "tolerance": dict(help="match tolerance in seconds (default: one window)"),
    "seed": dict(help="generator seed"),
    "out": dict(help="output path (synth: the raw-f64le waveform; else default standard output)"),
    "config": dict(help="key = value config file; flags win"),
    "bled_layout": dict(choices=sorted(_BLED_COLUMNS),
                        help="input is a two-current-channel csv export (time, current a, "
                             "current b, voltage); picks the phase column and defaults to "
                             + ", ".join(f"{key} {_shown(value)}" for key, value in
                                         _BLED.items())),
    "verdicts": dict(help="per-window verdicts file: detect writes it, eval counts TN from it"),
    "duration": dict(help="length in seconds"),
    "mains_hz": dict(help="mains frequency in Hz"),
    "base_amplitude": dict(help="mains current amplitude in A"),
    "noise_std": dict(help="standard deviation of the added white noise in A"),
    "event": dict(action="append", help="TIME:DELTA[:ORDERxFRAC,...], repeatable"),
    "drift_depth": dict(help="triangle amplitude modulation depth"),
    "drift_period": dict(help="triangle modulation period in seconds"),
    "param": dict(required=True, choices=["k", "std_window", "step"],
                  help="which parameter to sweep"),
    "values": dict(required=True, help="comma-separated parameter values"),
}

_DETECTOR_FLAGS = "rate decimate window step block k std_window"
# each subcommand's function, help, the flags it reads (the settings it echoes) and the
# settings it needs, from a flag or the config file
_COMMANDS = {
    "detect": (cmd_detect, "find events in a waveform, write JSON lines",
               f"input format {_DETECTOR_FLAGS} out config bled_layout verdicts", "input"),
    "synth": (cmd_synth, "generate a seeded test waveform + ground truth",
              "rate seed truth out config duration mains_hz base_amplitude noise_std event "
              "drift_depth drift_period", "duration out truth"),
    "eval": (cmd_eval, "score an events file against ground truth",
             f"input truth tolerance {_DETECTOR_FLAGS} out config verdicts", "input truth"),
    "sweep": (cmd_sweep, "re-run detection across parameter values",
              f"input format truth tolerance {_DETECTOR_FLAGS} out config param values",
              "input truth"),
}


def _echo(args: argparse.Namespace, rc: RunConfig) -> dict:
    """The ``{"config": ...}`` echo: the settings of the flags the command has, in field order."""
    return {key: value for key, value in asdict(rc).items() if key in vars(args)}


def _options(flag: str) -> dict:
    """``flag``'s argparse options, with its setting's type and default filled in: a RunConfig
    key's from ``_COERCE`` and RunConfig, any other synth setting's from SyntheticSpec."""
    if flag in RunConfig.__dataclass_fields__:
        kind, default = _COERCE.get(flag), getattr(RunConfig, flag)  # None: the text as given
    elif field := _SYNTH.get(flag):
        kind, default = get_type_hints(SyntheticSpec)[field], getattr(SyntheticSpec, field, None)
    else:
        kind = default = None
    options = {"type": kind, **_FLAGS[flag]}
    if default is not None:
        options["help"] += f" (default {_shown(default)})"
    return options


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``; only the subcommand it invokes gets flags, as each costs time."""
    parser = argparse.ArgumentParser(
        prog="fencedetect",
        description="Detect appliance on/off events in aggregate current waveforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (func, help_text, flags, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=func)
        if name == invoked:
            for flag in flags.split():
                command.add_argument("--" + flag.replace("_", "-"), **_options(flag))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
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
