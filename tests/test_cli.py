import itertools
import json
import math
import threading

import pytest
from hypothesis import HealthCheck, given, settings
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
                                     ("--k", "nan"), ("--k", "inf")])
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
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting[0][2:] in err


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
    step = max(1, int(window * step_share))
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
                   "--values", "6016,3008,1504", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "value,tp,fp,fn,precision,recall,f_measure,wall_time_ms"
    rows = lines[2:]
    assert len(rows) == 3
    assert [r.split(",")[0] for r in rows] == ["6016", "3008", "1504"]
    # smaller steps process more windows
    n = 60000
    counts = [(n - 6016) // step + 1 for step in (6016, 3008, 1504)]
    assert counts == sorted(counts)


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


def test_memory_error_exits_1_without_traceback(tmp_path, capsys):
    # 6e15 samples: numpy refuses the output array at once
    rc = cli.main(["synth", "--duration", "1e12", "--out", str(tmp_path / "w.f64"),
                   "--truth", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


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


# the exact {"config": ...} line: key order, value types and bytes are part of the output
_ECHO = ('{"config": {"input": "%s", "format": "%s", "rate": %s, "decimate": %d, '
         '"window": %d, "step": 6016, "block": %d, "k": %s, "std_window": 4, '
         '"truth": %s, "tolerance": %s, "seed": 0, "out": %s}}')


@pytest.mark.parametrize("argv, header", [
    (["--input", "wave.f64", "--format", "raw-f64le"],
     _ECHO % ("wave.f64", "raw-f64le", "6000.0", 1, 6016, 128, "0.5", "null", "null",
              '"events.jsonl"')),
    (["--input", "phases.csv", "--bled-layout", "b"],
     _ECHO % ("phases.csv", "csv", "12000.0", 2, 6016, 128, "0.5", "null", "null",
              '"events.jsonl"')),
    (["--input", "wave.f64", "--config", "run.conf", "--k", "1.5"],
     _ECHO % ("wave.f64", "raw-f64le", "6000.0", 1, 3008, 64, "1.5", "null", "0.25",
              '"events.jsonl"')),
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
        "format = raw-f64le\nk = 0.75\nwindow = 3008\nblock = 64\ntolerance = 0.25\n")
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
    # window, rate and decimate from the header; block and the rest are eval's defaults
    echo = _ECHO % ("events.jsonl", "csv", "12000.0", 2, 3008, 128, "0.5",
                    '"wave.truth.csv"', "null", "null")
    assert capsys.readouterr().out.endswith(', "config": %s}\n' % echo[len('{"config": '):-1])


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
