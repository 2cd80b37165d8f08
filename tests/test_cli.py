import dataclasses
import itertools
import json
import math
import operator
import os
import re
import stat
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fencedetect import cli, detector


def _synth(tmp_path, name="wave", seed=1, events=("4.5:0.8",), extra=()):
    wave = tmp_path / f"{name}.f64"
    truth = tmp_path / f"{name}.truth.csv"
    argv = ["synth", "--duration", "10", "--noise-std", "0.01",
            "--drift-depth", "0.05", "--seed", str(seed),
            "--out", str(wave), "--truth", str(truth)]
    for ev in events:
        argv += ["--event", ev]
    argv += list(extra)
    assert cli.main(argv) == 0
    return wave, truth


def _detect(wave, out, extra=()):
    argv = ["detect", "--input", str(wave), "--format", "raw-f64le",
            "--out", str(out)] + list(extra)
    assert cli.main(argv) == 0
    return out


def _event_lines(path):
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    return [l for l in lines if "sample_index" in l]


# the flags each subcommand reads, as README lists them
_FLAGS_READ = {
    "detect": ["--input", "--format", "--rate", "--decimate", "--window", "--step", "--block",
               "--k", "--std-window", "--out", "--config", "--bled-layout", "--verdicts"],
    "synth": ["--rate", "--seed", "--truth", "--out", "--config", "--duration", "--mains-hz",
              "--base-amplitude", "--noise-std", "--event", "--drift-depth", "--drift-period"],
    "eval": ["--input", "--truth", "--tolerance", "--rate", "--decimate", "--window", "--step",
             "--block", "--k", "--std-window", "--out", "--config", "--verdicts"],
    "sweep": ["--input", "--format", "--truth", "--tolerance", "--rate", "--decimate", "--window",
              "--step", "--block", "--k", "--std-window", "--out", "--config", "--param",
              "--values"],
}


def test_synth_is_deterministic(tmp_path):
    w1, t1 = _synth(tmp_path, "one", seed=42)
    w2, t2 = _synth(tmp_path, "two", seed=42)
    assert w1.read_bytes() == w2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()


def test_synth_zero_duration_fails(tmp_path, capsys):
    rc = cli.main(["synth", "--duration", "0",
                   "--out", str(tmp_path / "w.f64"),
                   "--truth", str(tmp_path / "t.csv")])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [("--duration", "-1"), ("--noise-std", "-0.1"),
                                     ("--event", "10:0.5"), ("--drift-period", "0"),
                                     ("--duration", "nan"), ("--noise-std", "nan"),
                                     ("--drift-depth", "inf"), ("--event", "1:nan"),
                                     ("--duration", "1e-9"), ("--duration", "1e308"),
                                     ("--seed", "-1")])
def test_synth_bad_setting_exits_2(tmp_path, capsys, setting):
    argv = ["synth", "--duration", "10", "--out", str(tmp_path / "w.f64"),
            "--truth", str(tmp_path / "t.csv"), *setting]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "w.f64").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("fmt", ["csv", "raw-f32le"])
def test_synth_format_other_than_raw_f64le_exits_2(tmp_path, capsys, source, fmt):
    """synth writes raw-f64le only; another format would mislabel its bytes."""
    conf = tmp_path / "run.conf"
    conf.write_text(f"format = {fmt}\n")
    given = ["--format", fmt] if source == "flag" else ["--config", str(conf)]
    argv = ["synth", "--duration", "10", "--out", str(tmp_path / "w.raw"),
            "--truth", str(tmp_path / "t.csv"), *given]
    if source == "flag":
        # synth takes no --format flag: argparse refuses it by name
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: --format {fmt}" in capsys.readouterr().err
    else:
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]


def test_synth_missing_duration_fails(tmp_path, capsys):
    rc = cli.main(["synth", "--out", str(tmp_path / "w.f64"),
                   "--truth", str(tmp_path / "t.csv")])
    assert rc != 0
    assert "duration" in capsys.readouterr().err


def test_synth_writes_one_truth_row_per_event(tmp_path):
    _, truth = _synth(tmp_path, events=("1.0:0.5", "2.0:-0.5"))
    assert len(truth.read_text().splitlines()) == 2


def test_detect_zero_event_stream_writes_header_only(tmp_path):
    wave, _ = _synth(tmp_path, events=(),
                     extra=("--noise-std", "0", "--drift-depth", "0"))
    out = _detect(wave, tmp_path / "events.jsonl")
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert "config" in json.loads(lines[0])
    assert _event_lines(out) == []


def test_detect_finds_the_synth_event(tmp_path):
    wave, truth = _synth(tmp_path)
    out = _detect(wave, tmp_path / "events.jsonl")
    events = _event_lines(out)
    assert len(events) == 1
    assert abs(events[0]["time_s"] - 4.5) < 6016 / 6000


def test_detect_unreadable_input_fails(tmp_path, capsys):
    rc = cli.main(["detect", "--input", str(tmp_path / "nope.csv")])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [("--block", "94"), ("--block", "100"),
                                     ("--step", "0"), ("--std-window", "1"),
                                     ("--k", "nan"), ("--k", "inf"),
                                     ("--step", str(2**64))])  # past int64 sample indices
@pytest.mark.parametrize("command", ["detect", "sweep"])
def test_bad_geometry_rejected_before_loading(tmp_path, capsys, command, setting):
    # the input does not exist: a config error must win over the read error
    argv = [command, "--input", str(tmp_path / "missing.f64"), "--format", "raw-f64le",
            *setting]
    if command == "sweep":
        # sweep a parameter the setting does not name, so the setting stays in force
        param, value = ("std_window", "4") if setting[0] == "--k" else ("k", "0.5")
        argv += ["--truth", str(tmp_path / "missing.csv"), "--param", param, "--values", value]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err


_SETTING_ERRORS = [
    (("--window", str(2**64)), f"window must be at most {2**63 - 1}, got {2**64}"),
    (("--window", "3000"), "block 128 does not divide window 3000"),
    (("--window", "64"), "block 128 does not divide window 64"),
    (("--block", str(2**64)), f"block must be at most {2**63 - 1}, got {2**64}"),
    (("--block", "100"), "block must be a power of two >= 2, got 100"),
    (("--block", "256", "--window", "3200"), "block 256 does not divide window 3200"),
    (("--step", "3008"), "step must be a multiple of block 128 and at most window 6016, got 3008"),
    (("--step", "6144"), "step must be a multiple of block 128 and at most window 6016, got 6144"),
    (("--std-window", "48"), "std_window cannot exceed the number of blocks per window"),
]


@pytest.mark.parametrize("setting, message", _SETTING_ERRORS,
                         ids=[" ".join(setting) for setting, _ in _SETTING_ERRORS])
def test_setting_errors_name_the_cli_keys(tmp_path, capsys, setting, message):
    argv = ["detect", "--input", str(tmp_path / "missing.f64"), "--format", "raw-f64le",
            "--out", str(tmp_path / "events.jsonl"), *setting]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


# a step off the block grid, and one that leaves gaps between windows
_OFF_GRID_STEPS = [{"step": 3008}, {"window": 3008, "block": 64, "step": 6016}]


@pytest.mark.parametrize("geometry", _OFF_GRID_STEPS, ids=["unaligned", "gapped"])
@pytest.mark.parametrize("command", ["detect", "sweep", "sweep-values", "eval"])
def test_steps_off_the_block_grid_exit_2_before_loading(tmp_path, capsys, command, geometry):
    # the inputs do not exist (for eval, the truth): the step error must win over a read error
    missing = [str(tmp_path / "missing.f64"), "--format", "raw-f64le"]
    shape = [text for key, value in geometry.items() if key != "step"
             for text in (f"--{key}", str(value))]
    step = ["--step", str(geometry["step"])]
    truth = ["--truth", str(tmp_path / "missing.csv")]
    if command == "detect":
        argv = ["detect", "--input", *missing, *shape, *step]
    elif command == "sweep":
        argv = ["sweep", "--input", *missing, *truth, *shape, *step,
                "--param", "k", "--values", "0.5"]
    elif command == "sweep-values":  # the step comes from --values, after a good one
        argv = ["sweep", "--input", *missing, *truth, *shape, "--param", "step",
                "--values", f"{geometry.get('block', 128)},{geometry['step']}"]
    else:  # the step comes from the events file's header
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({"config": geometry}) + "\n")
        argv = ["eval", "--input", str(events), *truth]
    assert cli.main([*argv, "--out", str(tmp_path / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step must be a multiple of block ") and err.count("\n") == 1
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("setting", [("--rate", "nan"), ("--rate", "inf"), ("--rate", "0"),
                                     ("--rate", "-6000"), ("--decimate", "0"),
                                     ("--decimate", "-1"), ("--window", "0"),
                                     ("--tolerance", "nan"), ("--tolerance", "inf"),
                                     ("--tolerance", "-0.5"), ("--k", "nan"), ("--k", "inf"),
                                     ("--seed", "-1")])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["detect", "eval", "sweep"])
def test_bad_shared_setting_rejected_before_loading(tmp_path, capsys, command, source, setting):
    # inputs that do not exist: the setting error must win over the read error
    argv = [command, "--input", str(tmp_path / "missing")]
    if command != "detect":
        argv += ["--truth", str(tmp_path / "missing.csv")]
    if command == "sweep":
        argv += ["--param", "k", "--values", "0.5"]
    if source == "flag":
        argv += list(setting)
    else:
        config = tmp_path / "run.conf"
        config.write_text(f"{setting[0][2:]} = {setting[1]}\n")
        argv += ["--config", str(config)]
    if source == "flag" and setting[0] not in _FLAGS_READ[command]:
        # a config key is checked by every command; a flag the command does not read is
        # refused by argparse, by name (test_each_command_takes_only_the_flags_it_reads)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(setting)}" in capsys.readouterr().err
        return
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting[0][2:] in err


# the flags all four subcommands took from one shared parser, each with values to pass where it
# is not read; among them those the setting tests above passed before each command took its own
_ONCE_SHARED = {
    "--input": ["w.f64"], "--format": ["csv", "raw-f32le"], "--rate": ["6000"],
    "--decimate": ["2"], "--window": ["3008"], "--step": ["3008"], "--block": ["64"],
    "--k": ["1.0"], "--std-window": ["8"], "--truth": ["t.csv"],
    "--tolerance": ["nan", "inf", "-0.5", "3"], "--seed": ["-1", "5"], "--out": ["o.txt"],
    "--config": ["run.conf"],
}
# a command line each subcommand would run, but for the flag added to it
_RUNNABLE = {
    "detect": ["detect", "--input", "w.f64", "--format", "raw-f64le", "--out", "e.jsonl",
               "--verdicts", "v.jsonl"],
    "synth": ["synth", "--duration", "2", "--out", "w.f64", "--truth", "t.csv"],
    "eval": ["eval", "--input", "e.jsonl", "--truth", "t.csv", "--out", "m.json"],
    "sweep": ["sweep", "--input", "w.f64", "--format", "raw-f64le", "--truth", "t.csv",
              "--param", "k", "--values", "0.5", "--out", "s.csv"],
}


@pytest.mark.parametrize("command", _FLAGS_READ)
def test_each_command_takes_only_the_flags_it_reads(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == {"--help",
                                                                     *_FLAGS_READ[command]}
    runnable = _RUNNABLE[command]
    cli.build_parser(runnable).parse_args(runnable)
    unread = [(flag, value) for flag, values in _ONCE_SHARED.items() if flag not in
              _FLAGS_READ[command] for value in values]
    assert unread
    for flag, value in unread:
        with pytest.raises(SystemExit) as exc:
            cli.main([*runnable, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**31 - 1),
    block=st.sampled_from([32, 64, 128]),
    blocks=st.integers(4, 24),
    step_share=st.floats(0.01, 0.99),
)
def test_overlapping_windows_give_ascending_events(tmp_path, seed, block, blocks, step_share):
    wave, truth = _synth(tmp_path, seed=seed, events=("1.5:0.8", "3.0:-0.8"),
                         extra=("--duration", "4", "--noise-std", "0.05"))
    window = block * blocks
    step = block * max(1, int(blocks * step_share))  # whole blocks
    geometry = ["--window", str(window), "--step", str(step), "--block", str(block)]
    events = _detect(wave, tmp_path / "events.jsonl", extra=geometry)
    indices = [row["sample_index"] for row in _event_lines(events)]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert cli.main(["eval", "--input", str(events), "--truth", str(truth),
                     "--out", str(tmp_path / "metrics.json"), *geometry]) == 0


def test_flags_and_config_file_agree(tmp_path):
    wave, _ = _synth(tmp_path)
    out = tmp_path / "events.jsonl"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# detector settings\n"
        "format = raw-f64le\n"
        "k = 0.5\n"
        "window = 6016\n"
        "step = 6016\n"
        "std_window = 4\n"
    )
    assert cli.main(["detect", "--input", str(wave), "--config", str(cfg),
                     "--out", str(out)]) == 0
    from_config = out.read_bytes()
    assert cli.main(["detect", "--input", str(wave), "--format", "raw-f64le",
                     "--k", "0.5", "--window", "6016", "--step", "6016",
                     "--std-window", "4", "--out", str(out)]) == 0
    assert out.read_bytes() == from_config


def test_unknown_config_key_rejected(tmp_path, capsys):
    wave, _ = _synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fence_k = 0.5\n")
    rc = cli.main(["detect", "--input", str(wave), "--config", str(cfg)])
    assert rc != 0
    assert "unknown config key" in capsys.readouterr().err


def test_detect_runs_are_byte_identical(tmp_path):
    wave, _ = _synth(tmp_path)
    out = tmp_path / "events.jsonl"
    _detect(wave, out)
    first = out.read_bytes()
    _detect(wave, out)
    assert out.read_bytes() == first


def test_detect_failing_part_way_keeps_the_earlier_outputs(tmp_path, capsys, monkeypatch):
    wave, _ = _synth(tmp_path)
    events, verdicts = tmp_path / "events.jsonl", tmp_path / "verdicts.jsonl"
    argv = ["detect", "--input", str(wave), "--format", "raw-f64le",
            "--out", str(events), "--verdicts", str(verdicts)]
    assert cli.main([*argv, "--k", "1.0"]) == 0
    earlier = events.read_bytes(), verdicts.read_bytes()
    # the verdicts fail on their third slice of two rows, after the events are written
    monkeypatch.setattr(cli, "CHUNK_WINDOWS", 2)
    slices, verdict_rows = itertools.count(), cli._verdict_rows

    def failing(rows):
        if next(slices) == 2:
            raise OSError(28, "No space left on device")
        return verdict_rows(rows)

    monkeypatch.setattr(cli, "_verdict_rows", failing)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert (events.read_bytes(), verdicts.read_bytes()) == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [wave.name, "wave.truth.csv", events.name, verdicts.name])


def test_detect_clean_run_leaves_no_part_files(tmp_path, monkeypatch):
    wave, _ = _synth(tmp_path)
    events, verdicts = tmp_path / "events.jsonl", tmp_path / "verdicts.jsonl"
    _detect(wave, events, ["--verdicts", str(verdicts)])
    whole = events.read_bytes(), verdicts.read_bytes()
    monkeypatch.setattr(cli, "CHUNK_WINDOWS", 2)  # the rows in slices of two
    _detect(wave, events, ["--verdicts", str(verdicts)])
    assert (events.read_bytes(), verdicts.read_bytes()) == whole
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [wave.name, "wave.truth.csv", events.name, verdicts.name])


def test_detect_out_and_verdicts_naming_one_file_leave_the_verdicts(tmp_path):
    wave, _ = _synth(tmp_path)
    verdicts, both = tmp_path / "verdicts.jsonl", tmp_path / "both.jsonl"
    _detect(wave, tmp_path / "events.jsonl", ["--verdicts", str(verdicts)])
    _detect(wave, both, ["--verdicts", str(both)])
    assert both.read_text().splitlines()[1:] == verdicts.read_text().splitlines()[1:]
    assert not list(tmp_path.glob(".*.part"))


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null on this platform")
def test_detect_writes_a_device_directly(tmp_path, monkeypatch):
    wave, _ = _synth(tmp_path)
    verdicts = tmp_path / "verdicts.jsonl"
    replaced, replace = [], os.replace
    monkeypatch.setattr(os, "replace", lambda part, target: (replaced.append(target),
                                                             replace(part, target)))
    _detect(wave, "/dev/null", ["--verdicts", str(verdicts)])
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
    assert replaced == [verdicts]
    assert verdicts.read_text().count("window_start") == 9


def test_eval_perfect_run(tmp_path, capsys):
    wave, truth = _synth(tmp_path)
    events = _detect(wave, tmp_path / "events.jsonl",
                     extra=("--verdicts", str(tmp_path / "verdicts.jsonl")))
    rc = cli.main(["eval", "--input", str(events), "--truth", str(truth),
                   "--verdicts", str(tmp_path / "verdicts.jsonl")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["f_measure"] == 1.0
    assert payload["tp"] == 1 and payload["fp"] == 0 and payload["fn"] == 0
    assert payload["tn"] > 0
    assert payload["config"]["k"] == 0.5


def test_eval_empty_detections_gives_zero_recall(tmp_path, capsys):
    wave, _ = _synth(tmp_path, "quiet", events=(),
                     extra=("--noise-std", "0", "--drift-depth", "0"))
    truth = tmp_path / "t.csv"
    truth.write_text("3.0\n")
    events = _detect(wave, tmp_path / "events.jsonl")
    rc = cli.main(["eval", "--input", str(events), "--truth", str(truth)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["recall"] == 0.0
    assert payload["fn"] == 1


def test_eval_zero_tolerance_splits_offset_detection(tmp_path, capsys):
    wave, truth = _synth(tmp_path)
    events = _detect(wave, tmp_path / "events.jsonl")
    assert _event_lines(events)[0]["time_s"] != 4.5
    rc = cli.main(["eval", "--input", str(events), "--truth", str(truth),
                   "--tolerance", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["tp"] == 0
    assert payload["fp"] == 1 and payload["fn"] == 1


def test_eval_missing_truth_fails(tmp_path, capsys):
    wave, _ = _synth(tmp_path)
    events = _detect(wave, tmp_path / "events.jsonl")
    rc = cli.main(["eval", "--input", str(events)])
    assert rc != 0
    assert "truth" in capsys.readouterr().err


def test_sweep_rows_and_monotone_work(tmp_path):
    wave, truth = _synth(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--input", str(wave), "--format", "raw-f64le",
                   "--truth", str(truth), "--param", "step",
                   "--values", "6016,3072,1536", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "value,tp,fp,fn,precision,recall,f_measure,wall_time_ms"
    rows = lines[2:]
    assert len(rows) == 3
    assert [r.split(",")[0] for r in rows] == ["6016", "3072", "1536"]
    # smaller steps process more windows
    n = 60000
    counts = [(n - 6016) // step + 1 for step in (6016, 3072, 1536)]
    assert counts == sorted(counts)


def test_sweep_config_line_is_pinned_and_echoes_no_seed(tmp_path, monkeypatch):
    _synth(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(
        "format = raw-f64le\nwindow = 3072\nseed = 5\ntolerance = 0.25\n")
    assert cli.main(["sweep", "--input", "wave.f64", "--truth", "wave.truth.csv",
                     "--config", "run.conf", "--param", "k", "--values", "0.5",
                     "--out", "sweep.csv"]) == 0
    # every setting but the seed, which sweep does not read; the step follows the window
    assert (tmp_path / "sweep.csv").read_text().splitlines()[0] == (
        '# config: {"input": "wave.f64", "format": "raw-f64le", "rate": 6000.0, '
        '"decimate": 1, "window": 3072, "step": 3072, "block": 128, "k": 0.5, '
        '"std_window": 4, "truth": "wave.truth.csv", "tolerance": 0.25, "out": "sweep.csv"}')


def test_sweep_single_value_matches_eval(tmp_path, capsys):
    wave, truth = _synth(tmp_path)
    events = _detect(wave, tmp_path / "events.jsonl")
    assert cli.main(["eval", "--input", str(events), "--truth", str(truth)]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--input", str(wave), "--format", "raw-f64le",
                   "--truth", str(truth), "--param", "step",
                   "--values", "6016", "--out", str(out)])
    assert rc == 0
    row = out.read_text().splitlines()[2].split(",")
    assert [int(v) for v in row[1:4]] == [payload["tp"], payload["fp"], payload["fn"]]
    assert [float(v) for v in row[4:7]] == [
        payload["precision"], payload["recall"], payload["f_measure"]]


def test_sweep_empty_values_fails(tmp_path, capsys):
    wave, truth = _synth(tmp_path)
    rc = cli.main(["sweep", "--input", str(wave), "--format", "raw-f64le",
                   "--truth", str(truth), "--param", "k", "--values", " , "])
    assert rc != 0
    assert "values" in capsys.readouterr().err


def test_sweep_unknown_param_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--input", "x", "--truth", "y",
                  "--param", "window", "--values", "6016"])
    assert exc.value.code == 2


def test_bled_layout_defaults_to_12khz_decimated(tmp_path):
    # two-channel export at 12 kHz; phase column b carries the signal
    import numpy as np
    from fencedetect.signal_io import SyntheticSpec, generate_synthetic

    spec = SyntheticSpec(duration_s=6.0, noise_std_a=0.01,
                         events=((2.5, 1.0),), seed=6,
                         sample_rate_hz=12000.0, drift_depth=0.05)
    stream, _ = generate_synthetic(spec)
    n = len(stream.samples)
    table = np.column_stack([np.arange(n) / 12000.0,
                             np.zeros(n), stream.samples, np.full(n, 120.0)])
    path = tmp_path / "phases.csv"
    with open(path, "w") as fh:
        fh.write("X_Value,Current_A,Current_B,VoltageA\n")
        np.savetxt(fh, table, fmt="%.8g", delimiter=",")

    out = tmp_path / "events.jsonl"
    rc = cli.main(["detect", "--input", str(path), "--bled-layout", "b",
                   "--out", str(out)])
    assert rc == 0
    header = json.loads(out.read_text().splitlines()[0])["config"]
    assert header["rate"] == 12000.0
    assert header["decimate"] == 2
    events = _event_lines(out)
    assert len(events) == 1
    assert abs(events[0]["time_s"] - 2.5) < 6016 / 6000


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bled_layout_with_a_format_other_than_csv_exits_2(tmp_path, capsys, source):
    """A bled export is csv; reading it under another format would echo a format not used."""
    import numpy as np

    n = 24000  # 2 s at 12 kHz
    phases = tmp_path / "phases.csv"
    np.savetxt(phases, np.column_stack([np.arange(n) / 12000.0, np.zeros(n),
                                        np.sin(np.arange(n) / 10.0), np.full(n, 120.0)]),
               fmt="%.8g", delimiter=",", header="X_Value,Current_A,Current_B,VoltageA",
               comments="")
    conf = tmp_path / "run.conf"
    conf.write_text("format = raw-f64le\n")
    given = ["--format", "raw-f64le"] if source == "flag" else ["--config", str(conf)]
    assert cli.main(["detect", "--input", str(phases), "--bled-layout", "b",
                     "--out", str(tmp_path / "events.jsonl"), *given]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --bled-layout ") and len(err.splitlines()) == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phases.csv", "run.conf"]


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_a_csv_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys, monkeypatch, command):
    """A Latin-1 µ in a header is not UTF-8; the error names the file, not a decoder offset."""
    from fencedetect import signal_io

    latin = tmp_path / "latin.csv"
    out = tmp_path / "out.jsonl"
    if command == "detect":
        rows = b"0.0,0.0,0.0,120.0\n" * 24000
        # in the header, and in a row past the header's decoded text, which the C loader meets
        texts = [b"X_Value,Current_A (\xb5A),Current_B,VoltageA\n" + rows,
                 b"X_Value,Current_A,Current_B,VoltageA\n" + rows + b"0.0,\xb5,0.0,120.0\n"]
        argv = ["detect", "--input", str(latin), "--bled-layout", "a", "--out", str(out)]
    else:
        texts = [b"time_s,label (\xb5A)\n1.0,on\n"]
        events = tmp_path / "events.jsonl"
        events.write_text('{"config": {}}\n{"sample_index": 6000, "time_s": 1.0, '
                          '"window_start": 0}\n')
        argv = ["eval", "--input", str(events), "--truth", str(latin), "--out", str(out)]
    loadtxt_column = signal_io._loadtxt_column
    calls = []

    def recording(lines, *args):
        calls.append(lines)
        return loadtxt_column(lines, *args)

    monkeypatch.setattr(signal_io, "_loadtxt_column", recording)
    for text in texts:
        latin.write_bytes(text)
        calls.clear()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {latin}: not UTF-8 text: ") and len(err.splitlines()) == 1, err
        assert not out.exists() and not list(tmp_path.glob("*.part"))
    if command == "detect":
        assert calls[0] == latin  # the row's byte: met first inside the C loader, then reported


def test_memory_error_exits_1_without_traceback(tmp_path, capsys):
    # 6e15 samples, 4.8e16 bytes: no disk has the room, so nothing is written
    wave = tmp_path / "w.f64"
    rc = cli.main(["synth", "--duration", "1e12", "--out", str(wave),
                   "--truth", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {wave}: the waveform needs 48000000000000000 bytes")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_synth_failure_leaves_no_waveform(tmp_path, capsys, monkeypatch):
    from fencedetect import signal_io

    monkeypatch.setattr(signal_io, "SYNTH_CHUNK", 4096)
    render, envelope = signal_io._render_synthetic, signal_io._envelope

    def failing_render(spec):  # the caller fails on the third chunk
        for i, chunk in enumerate(render(spec)):
            if i == 2:
                raise MemoryError("cannot allocate the third chunk")
            yield chunk

    calls = itertools.count()

    def failing_envelope(t, spec):  # the helper thread fails on the third chunk
        if next(calls) == 2:
            raise MemoryError("cannot allocate the third envelope")
        return envelope(t, spec)

    wave, truth = tmp_path / "wave.f64", tmp_path / "truth.csv"
    threads = set(threading.enumerate())
    for name, failing, message in [
        ("_render_synthetic", failing_render, "cannot allocate the third chunk"),
        ("_envelope", failing_envelope, "cannot allocate the third envelope"),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(signal_io, name, failing)
            rc = cli.main(["synth", "--duration", "10", "--noise-std", "0.01",
                           "--out", str(wave), "--truth", str(truth)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []
        assert set(threading.enumerate()) <= threads
    # an earlier output stays as it was
    monkeypatch.setattr(signal_io, "_render_synthetic", failing_render)
    wave.write_bytes(b"earlier")
    assert cli.main(["synth", "--duration", "10", "--out", str(wave),
                     "--truth", str(truth)]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["wave.f64"]
    assert wave.read_bytes() == b"earlier"


def test_synth_truth_in_a_missing_directory_renders_nothing_and_keeps_the_earlier_out(
        tmp_path, capsys, monkeypatch):
    from fencedetect import signal_io

    entered, render = [], signal_io._render_synthetic
    monkeypatch.setattr(signal_io, "_render_synthetic",
                        lambda spec: entered.append(spec) or render(spec))
    wave = tmp_path / "w.f64"
    wave.write_bytes(b"earlier")
    assert cli.main(["synth", "--duration", "2", "--out", str(wave),
                     "--truth", str(tmp_path / "nodir" / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert repr(str(tmp_path / "nodir" / "t.csv")) in err  # the path given, not a .part file
    assert wave.read_bytes() == b"earlier"
    assert [p.name for p in tmp_path.iterdir()] == ["w.f64"]
    assert entered == []


@pytest.mark.parametrize("command", ["detect", "sweep"])
def test_out_in_a_missing_directory_exits_1_before_detecting(tmp_path, capsys, monkeypatch,
                                                             command):
    wave, truth = _synth(tmp_path)
    called = []
    monkeypatch.setattr(cli, "detect", lambda *args: called.append(args))
    monkeypatch.chdir(tmp_path)
    argv = [command, "--input", wave.name, "--format", "raw-f64le", "--out", "nodir/e.out"]
    if command == "sweep":
        argv += ["--truth", truth.name, "--param", "k", "--values", "0.5"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "'nodir/e.out'" in err, err
    assert called == []
    assert not list(tmp_path.rglob("*.part"))


def test_detect_worker_failure_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    wave, _ = _synth(tmp_path)
    monkeypatch.setattr(detector, "CHUNK_WINDOWS", 2)
    monkeypatch.setattr(detector, "_workers", lambda: 2)
    calls = itertools.count()
    spectrogram = detector.spectrogram

    def failing(blocks):
        if next(calls) >= 2:  # a later chunk
            raise MemoryError("cannot allocate the spectra")
        return spectrogram(blocks)

    monkeypatch.setattr(detector, "spectrogram", failing)
    events, verdicts = tmp_path / "events.jsonl", tmp_path / "verdicts.jsonl"
    before = threading.active_count()
    rc = cli.main(["detect", "--input", str(wave), "--format", "raw-f64le",
                   "--out", str(events), "--verdicts", str(verdicts)])
    assert rc == 1
    assert capsys.readouterr().err == "error: cannot allocate the spectra\n"
    assert not events.exists() and not verdicts.exists()
    assert threading.active_count() == before


@pytest.mark.parametrize("fmt, size", [("raw-f64le", 0), ("raw-f64le", 7),
                                       ("raw-f32le", 0), ("raw-f32le", 3)])
def test_detect_raw_shorter_than_one_sample_exits_1(tmp_path, capsys, fmt, size):
    wave = tmp_path / "w.raw"
    wave.write_bytes(b"\x00" * size)
    assert cli.main(["detect", "--input", str(wave), "--format", fmt]) == 1
    assert "no valid samples" in capsys.readouterr().err


def test_detect_may_write_events_over_its_mapped_input(tmp_path):
    wave, _ = _synth(tmp_path)
    separate = _detect(wave, tmp_path / "events.jsonl")
    _detect(wave, wave)
    assert wave.read_text().splitlines()[1:] == separate.read_text().splitlines()[1:]
    assert _event_lines(wave)


def _eval_payload(capsys, argv):
    assert cli.main(["eval", *argv]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_eval_takes_window_from_the_events_header(tmp_path, capsys):
    from fencedetect.evaluation import count_tn
    from fencedetect.signal_io import read_ground_truth

    wave, truth = _synth(tmp_path)
    verdicts = tmp_path / "verdicts.jsonl"
    events = _detect(wave, tmp_path / "events.jsonl",
                     extra=("--window", "3008", "--block", "64", "--verdicts", str(verdicts)))
    inputs = ["--input", str(events), "--truth", str(truth), "--verdicts", str(verdicts)]
    payload = _eval_payload(capsys, inputs)
    assert payload["tolerance_s"] == 3008 / 6000
    assert payload["config"]["window"] == 3008
    _, rows = cli._read_rows(str(verdicts), cli._VERDICT_KEYS)
    truth_s = [t.time_s for t in read_ground_truth(truth)]
    expected_tn = count_tn(rows["window_start"], rows["is_event"], truth_s,
                           3008 / 6000, window_len=3008, sample_rate_hz=6000.0)
    assert payload["tn"] == expected_tn
    # a flag still wins over the header
    assert _eval_payload(capsys, inputs + ["--window", "3008"]) == payload
    assert _eval_payload(capsys, inputs + ["--window", "6016"])["tolerance_s"] == 6016 / 6000


def test_eval_after_bled_layout_uses_the_decimated_rate(tmp_path, capsys):
    import numpy as np
    from fencedetect.signal_io import SyntheticSpec, generate_synthetic, write_ground_truth

    spec = SyntheticSpec(duration_s=6.0, noise_std_a=0.01, events=((2.5, 1.0),), seed=6,
                         sample_rate_hz=12000.0, drift_depth=0.05)
    stream, truth_events = generate_synthetic(spec)
    n = len(stream.samples)
    path = tmp_path / "phases.csv"
    with open(path, "w") as fh:
        fh.write("X_Value,Current_A,Current_B,VoltageA\n")
        np.savetxt(fh, np.column_stack([np.arange(n) / 12000.0, np.zeros(n),
                                        stream.samples, np.full(n, 120.0)]),
                   fmt="%.8g", delimiter=",")
    truth = tmp_path / "truth.csv"
    write_ground_truth(truth_events, truth)
    events, verdicts = tmp_path / "events.jsonl", tmp_path / "verdicts.jsonl"
    assert cli.main(["detect", "--input", str(path), "--bled-layout", "b",
                     "--out", str(events), "--verdicts", str(verdicts)]) == 0
    inputs = ["--input", str(events), "--truth", str(truth), "--verdicts", str(verdicts)]
    payload = _eval_payload(capsys, inputs)
    assert (payload["config"]["rate"], payload["config"]["decimate"]) == (12000.0, 2)
    assert payload["tolerance_s"] == 6016 / 6000
    assert payload["tp"] == 1 and payload["tn"] > 0
    # the same scores as naming the detected stream's own rate
    explicit = _eval_payload(capsys, inputs + ["--rate", "6000", "--decimate", "1"])
    assert {k: v for k, v in explicit.items() if k != "config"} == \
           {k: v for k, v in payload.items() if k != "config"}


@pytest.mark.parametrize("value", ['"fast"', "null", "0", "-3", "3008.7", "true"])
def test_eval_rejects_bad_header_geometry(tmp_path, capsys, value):
    events = tmp_path / "events.jsonl"
    events.write_text('{"config": {"window": %s}}\n' % value)
    truth = tmp_path / "truth.csv"
    truth.write_text("1.0\n")
    assert cli.main(["eval", "--input", str(events), "--truth", str(truth)]) == 2
    assert "window" in capsys.readouterr().err


_GOOD_ROWS = {
    "events": '{"sample_index": 27072, "time_s": 4.512, "window_start": 24064}',
    "verdicts": '{"window_start": 0, "is_event": false, "first_outlier_block": null}',
}


@pytest.mark.parametrize("sidecar, row", [
    ("events", '{"sample_index": 5}'),
    ("events", "[1, 2]"),
    ("events", '"x"'),
    ("events", '{"sample_index": 5, "time_s": 0.1'),
    ("verdicts", '{"is_event": true}'),
    ("verdicts", '{"window_start": 0, "is_event": "no", "first_outlier_block": null}'),
    ("verdicts", "[0]"),
])
def test_eval_malformed_row_exits_1_naming_its_line(tmp_path, capsys, sidecar, row):
    paths = {name: tmp_path / f"{name}.jsonl" for name in _GOOD_ROWS}
    for name, path in paths.items():
        bad = [row] if name == sidecar else []
        path.write_text("\n".join(['{"config": {}}', _GOOD_ROWS[name], *bad]) + "\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("4.5\n")
    rc = cli.main(["eval", "--input", str(paths["events"]), "--truth", str(truth),
                   "--verdicts", str(paths["verdicts"])])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[sidecar]}:3: ") and len(err.splitlines()) == 1


def _decode_each(lines):
    """The per-line oracle: each line parsed alone, None where it is not JSON or not finite."""
    def finite(text):
        if not math.isfinite(float(text)):
            raise ValueError(text)
        return float(text)

    decoder = json.JSONDecoder(parse_float=finite, parse_constant=finite)
    values = []
    for line in lines:
        try:
            values.append(decoder.decode(line))
        except ValueError:
            values.append(None)
    return values


# a row split over two lines, inside an array or inside a string, and lines
# holding two values, which can make up the count of the lines it spans
_SPLIT_IN_ARRAY = ['{"sample_index": 1, "time_s": 0.5, "window_start": 0, "x": [[1', "1]]}"]
_SPLIT_IN_STRING = ['{"sample_index": 1, "time_s": 0.5, "window_start": 0, "x": "a', 'b"}']
_TWO_ROWS = _GOOD_ROWS["events"] + ", " + _GOOD_ROWS["events"]
_ROW_NAN_TWO = _GOOD_ROWS["events"] + ", NaN, 2"
_LINE_PIECES = [
    _GOOD_ROWS["events"], _GOOD_ROWS["verdicts"], '{"config": {"k": 0.5}}', "{}", "[]",
    *_SPLIT_IN_ARRAY, "0]]}", *_SPLIT_IN_STRING, _TWO_ROWS, _ROW_NAN_TWO,
    "NaN", "-Infinity", "1e400", "1, 2", '"x"', " 7 ", "\xa07", '{"a": NaN}', ",", "[1,",
]


@settings(max_examples=300, deadline=None)
@example(lines=[_TWO_ROWS])
@example(lines=[*_SPLIT_IN_ARRAY, _TWO_ROWS, _TWO_ROWS])
@example(lines=[*_SPLIT_IN_STRING, _TWO_ROWS, _TWO_ROWS])
@example(lines=[*_SPLIT_IN_STRING, _ROW_NAN_TWO])
@given(lines=st.lists(st.one_of(
    st.sampled_from(_LINE_PIECES),
    st.text(alphabet='{}[]",:01aeNInfity -.\\', min_size=1, max_size=12),
), max_size=8))
def test_lines_decoded_at_once_equal_each_line_decoded_alone(lines):
    lines = [line for line in lines if line.strip() and len(line.splitlines()) == 1]
    assert cli._decode_lines(lines) == _decode_each(lines)


def _read_rows_row_by_row(path, keys):
    """The per-row oracle: each row's types checked alone, as one set lookup."""
    pick = operator.itemgetter(*keys)
    allowed = set(itertools.product(*(cli._JSON_TYPES[kind] for kind in keys.values())))
    lines = path.read_text().splitlines()
    header, rows = {}, []
    for i, row in enumerate(_decode_each([line for line in lines if line.strip()])):
        try:
            values = pick(row)
            if tuple(map(type, values)) in allowed:
                rows.append(values)
                continue
        except (KeyError, TypeError):
            pass
        if not (isinstance(row, dict) and isinstance(row.get("config"), dict)):
            return [n for n, line in enumerate(lines, start=1) if line.strip()][i]
        header = row["config"]
    return header, dict(zip(keys, zip(*rows))) if rows else dict.fromkeys(keys, ())


_VERDICT_LINES = [
    _GOOD_ROWS["verdicts"], '{"config": {"k": 0.5}}', "",
    '{"window_start": 6016, "is_event": true, "first_outlier_block": 3}',
    '{"window_start": 0, "is_event": 1, "first_outlier_block": null}',
    '{"window_start": 0.0, "is_event": false, "first_outlier_block": null}',
    '{"window_start": 0, "is_event": false, "first_outlier_block": null, "config": {"k": 2}}',
    '{"window_start": 0, "is_event": false, "first_outlier_block": 1.5, "config": {}}',
    '{"window_start": 0}', "[]", "7", '{"config": 1}',
]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.sampled_from(_VERDICT_LINES), max_size=8))
def test_read_rows_by_column_matches_the_row_by_row_check(tmp_path, lines):
    path = tmp_path / "verdicts.jsonl"
    path.write_text("\n".join(lines) + "\n")
    want = _read_rows_row_by_row(path, cli._VERDICT_KEYS)
    if isinstance(want, int):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{want}: expected "):
            cli._read_rows(str(path), cli._VERDICT_KEYS)
    else:
        assert cli._read_rows(str(path), cli._VERDICT_KEYS) == want


# eval's exact {"config": ...} echo: key order, value types and bytes are part of the output;
# the step follows the window, and eval reads no format and no seed
_ECHO = ('{"config": {"input": "%s", "rate": %s, "decimate": %d, '
         '"window": %d, "step": %d, "block": %d, "k": %s, "std_window": 4, '
         '"truth": %s, "tolerance": %s, "out": %s}}')
# detect's header echoes only the settings detect reads: no truth, tolerance or seed
_DETECT_ECHO = ('{"config": {"input": "%s", "format": "%s", "rate": %s, "decimate": %d, '
                '"window": %d, "step": %d, "block": %d, "k": %s, "std_window": 4, '
                '"out": "events.jsonl"}}')


@pytest.mark.parametrize("argv, header", [
    (["--input", "wave.f64", "--format", "raw-f64le"],
     _DETECT_ECHO % ("wave.f64", "raw-f64le", "6000.0", 1, 6016, 6016, 128, "0.5")),
    (["--input", "phases.csv", "--bled-layout", "b"],
     _DETECT_ECHO % ("phases.csv", "csv", "12000.0", 2, 6016, 6016, 128, "0.5")),
    (["--input", "wave.f64", "--config", "run.conf", "--k", "1.5"],
     _DETECT_ECHO % ("wave.f64", "raw-f64le", "6000.0", 1, 3008, 3008, 64, "1.5")),
], ids=["defaults", "bled-layout", "config-and-flag"])
def test_detect_header_line_is_pinned(tmp_path, monkeypatch, argv, header):
    import numpy as np

    _synth(tmp_path)
    monkeypatch.chdir(tmp_path)
    n = 24000  # 2 s at 12 kHz
    np.savetxt("phases.csv", np.column_stack([np.arange(n) / 12000.0, np.zeros(n),
                                              np.sin(np.arange(n) / 10.0), np.full(n, 120.0)]),
               fmt="%.8g", delimiter=",", header="X_Value,Current_A,Current_B,VoltageA",
               comments="")
    (tmp_path / "run.conf").write_text(
        "format = raw-f64le\nk = 0.75\nwindow = 3008\nblock = 64\ntolerance = 0.25\n"
        "truth = nope.csv\nseed = 5\n")
    assert cli.main(["detect", *argv, "--out", "events.jsonl", "--verdicts", "v.jsonl"]) == 0
    assert (tmp_path / "events.jsonl").read_text().splitlines()[0] == header
    assert (tmp_path / "v.jsonl").read_text().splitlines()[0] == header


def test_eval_config_echo_filled_from_the_events_header_is_pinned(tmp_path, monkeypatch,
                                                                  capsys):
    _synth(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["detect", "--input", "wave.f64", "--format", "raw-f64le",
                     "--window", "3008", "--block", "64", "--rate", "12000",
                     "--decimate", "2", "--out", "events.jsonl"]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--input", "events.jsonl", "--truth", "wave.truth.csv"]) == 0
    # the detector settings, rate and decimate from the header; the rest are eval's own
    echo = _ECHO % ("events.jsonl", "12000.0", 2, 3008, 3008, 64, "0.5",
                    '"wave.truth.csv"', "null", "null")
    assert capsys.readouterr().out.endswith(', "config": %s}\n' % echo[len('{"config": '):-1])


@pytest.mark.parametrize("command", ["detect", "eval", "sweep"])
def test_config_echo_is_the_settings_the_command_reads_in_field_order(tmp_path, monkeypatch,
                                                                     capsys, command):
    _synth(tmp_path)
    monkeypatch.chdir(tmp_path)
    _detect("wave.f64", "events.jsonl")
    capsys.readouterr()
    # a config file that sets every key, those the command does not read among them
    (tmp_path / "run.conf").write_text(
        "format = raw-f64le\nrate = 6000\ndecimate = 1\nwindow = 6016\nstep = 3072\n"
        "block = 128\nk = 0.75\nstd_window = 4\ntruth = wave.truth.csv\ntolerance = 0.5\n"
        "seed = 5\nout = out.txt\n")
    argv = [command, "--input", "events.jsonl" if command == "eval" else "wave.f64",
            "--config", "run.conf"]
    if command == "sweep":
        argv += ["--param", "k", "--values", "0.5"]
    assert cli.main(argv) == 0
    if command == "eval":
        echo = json.loads(capsys.readouterr().out)["config"]
    else:
        echo = json.loads((tmp_path / "out.txt").read_text().splitlines()[0]
                          .removeprefix("# config: "))
        echo = echo.get("config", echo)
    # the flags the command takes (test_each_command_takes_only_the_flags_it_reads), by key
    reads = {flag[2:].replace("-", "_") for flag in _FLAGS_READ[command]}
    assert list(echo) == [f.name for f in dataclasses.fields(cli.RunConfig) if f.name in reads]
    assert "seed" not in echo and echo["k"] == 0.75 and echo["step"] == 3072


@pytest.mark.parametrize("flag", [("--step", "0"), ("--block", "3"), ("--std-window", "48")])
def test_eval_bad_detector_flag_exits_2(tmp_path, capsys, flag):
    wave, truth = _synth(tmp_path)
    events = _detect(wave, tmp_path / "events.jsonl")
    capsys.readouterr()
    assert cli.main(["eval", "--input", str(events), "--truth", str(truth), *flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config header" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key", ["rate", "window", "decimate"])
def test_eval_header_value_too_large_for_a_float_exits_2_naming_the_key(tmp_path, capsys, key):
    events = tmp_path / "events.jsonl"
    events.write_text('{"config": {"%s": 1%s}}\n' % (key, "0" * 400))
    truth = tmp_path / "truth.csv"
    truth.write_text("1.0\n")
    assert cli.main(["eval", "--input", str(events), "--truth", str(truth)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {events}: in the config header: {key} ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("time_s", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_eval_rejects_a_non_finite_event_time(tmp_path, capsys, time_s):
    events = tmp_path / "events.jsonl"
    events.write_text('{"config": {}}\n'
                      '{"sample_index": 0, "time_s": %s, "window_start": 0}\n'
                      '{"sample_index": 6000, "time_s": 1.0, "window_start": 0}\n' % time_s)
    truth = tmp_path / "truth.csv"
    truth.write_text("0.5\n1.0\n")
    argv = ["eval", "--input", str(events), "--truth", str(truth), "--tolerance", "0.1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {events}:2: expected ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text, line", [
    ('"1.0\n2.0\n', 2),
    ('1.0,"on\n2.0,off\n', 2),
    ("1.0,on\n2.0," + "x" * 131073 + "\n", 2),
], ids=["open-quoted-time", "open-quoted-label", "oversized-field"])
def test_eval_malformed_truth_csv_exits_1_naming_its_line(tmp_path, capsys, text, line):
    events = tmp_path / "events.jsonl"
    events.write_text('{"config": {}}\n{"sample_index": 6000, "time_s": 1.0, "window_start": 0}\n')
    truth = tmp_path / "truth.csv"
    truth.write_text(text)
    assert cli.main(["eval", "--input", str(events), "--truth", str(truth)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {truth}:{line}: malformed CSV: ") and len(err.splitlines()) == 1


_HUGE = 10**400


# any value per key: huge ints, every kind of float, bools, strings and None
_SETTING = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), st.sampled_from(cli.FORMATS),
    st.integers(-3, 10_000), st.integers(-_HUGE, _HUGE),
    st.sampled_from([2**1023, 2**1024, -(2**1024), 5e-324, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=500, deadline=None)
@given(values=st.fixed_dictionaries(
    {}, optional={key: _SETTING for key in cli.RunConfig.__dataclass_fields__}))
def test_run_config_builds_or_raises_cli_error(values):
    try:
        rc = cli.RunConfig(**values)
    except cli.CliError:
        return
    assert math.isfinite(rc.tolerance_s) and rc.tolerance_s >= 0
    assert math.isfinite(rc.k) and rc.seed >= 0
    try:
        rc.detector
    except cli.CliError:
        pass
