import hashlib
import json
import logging

import numpy as np
import pytest

from trajpred import cli, trackstore
from trajpred import model as M
from trajpred import nnkernel as nk
from trajpred.errors import UsageError
from trajpred.model import ModelConfig, Variant


def run(argv):
    return cli.main(argv)


def checksum(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synth_deterministic_checksum(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["synth", "--seed", "7", "--n-vehicles", "5",
                    "--duration-s", "20", "--out", str(out)]) == 0
    assert checksum(a) == checksum(b)


def test_unknown_config_key_exit_1(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("bogus_key = 3\n")
    assert run(["synth", "--config", str(cfgfile),
                "--out", str(tmp_path / "x.csv")]) == 1


def test_config_file_lists_valid_keys(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nope = 1\n")
    with pytest.raises(UsageError, match="valid keys"):
        cli.read_config(cfgfile)


def test_missing_required_option_exit_1():
    assert run(["ingest"]) == 1


def test_schema_error_exit_2(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("Vehicle_ID,Frame_ID,Local_X,Local_Y\n1,0,0,0\n")
    assert run(["ingest", "--data", str(data),
                "--out", str(tmp_path / "s.bin")]) == 2


def test_missing_file_exit_2(tmp_path):
    assert run(["ingest", "--data", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "s.bin")]) == 2


def test_pipeline_synth_ingest_label(tmp_path):
    tracks = tmp_path / "tracks.csv"
    samples = tmp_path / "samples.bin"
    labels = tmp_path / "labels.jsonl"
    assert run(["synth", "--seed", "3", "--n-vehicles", "6",
                "--duration-s", "25", "--out", str(tracks)]) == 0
    assert run(["ingest", "--data", str(tracks), "--out", str(samples),
                "--stride", "20"]) == 0
    loaded = trackstore.read_samples_binary(samples)
    assert len(loaded) > 0
    assert loaded[0].history.shape == (16, 14)
    assert run(["label", "--data", str(tracks), "--out", str(labels),
                "--stride", "50"]) == 0
    recs = [json.loads(l) for l in labels.read_text().splitlines()]
    assert recs and {"vehicle_id", "frame", "lateral", "longitudinal"} <= set(recs[0])
    assert all(r["lateral"] == "KEEP" for r in recs)


def test_eval_cv_on_noise_free_tracks_is_zero(tmp_path):
    tracks = tmp_path / "tracks.csv"
    samples = tmp_path / "samples.bin"
    out = tmp_path / "rmse.csv"
    assert run(["synth", "--seed", "1", "--n-vehicles", "4",
                "--duration-s", "20", "--out", str(tracks)]) == 0
    assert run(["ingest", "--data", str(tracks), "--out", str(samples),
                "--stride", "30"]) == 0
    assert run(["eval", "--samples", str(samples), "--baseline", "cv",
                "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "horizon_s,CV"
    for row in rows[1:]:
        assert float(row.split(",")[1]) < 1e-6


def test_train_predict_eval_roundtrip(tmp_path):
    tracks = tmp_path / "tracks.csv"
    samples = tmp_path / "samples.bin"
    ckpt = tmp_path / "model.ckpt"
    preds = tmp_path / "preds.jsonl"
    grid = tmp_path / "grid.csv"
    assert run(["synth", "--seed", "2", "--n-vehicles", "4",
                "--duration-s", "20", "--out", str(tracks)]) == 0
    assert run(["ingest", "--data", str(tracks), "--out", str(samples),
                "--stride", "40"]) == 0
    assert run(["train", "--samples", str(samples), "--variant", "m_lstm",
                "--epochs", "1", "--seed", "0", "--out", str(ckpt)]) == 0
    assert run(["predict", "--samples", str(samples), "--checkpoint",
                str(ckpt), "--out", str(preds), "--workers", "1",
                "--grid=-10,10,-5,40,2.0", "--grid-out", str(grid)]) == 0
    recs = [json.loads(l) for l in preds.read_text().splitlines()]
    assert len(recs[0]["modes"]) == 6
    probs = [m["probability"] for m in recs[0]["modes"]]
    assert abs(sum(probs) - 1.0) < 1e-9
    assert grid.read_text().startswith("x,y,density")
    assert run(["eval", "--samples", str(samples),
                "--checkpoint", str(ckpt)]) == 0


def test_gradcheck_exit_zero():
    assert run(["gradcheck", "--seed", "0", "--max-coords", "40"]) == 0


# ---------------------------------------------------------------------------
# Bad input files: exit 2, the path on stderr, no traceback
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("good")
    tracks, samples, ckpt = d / "tracks.csv", d / "samples.bin", d / "m.ckpt"
    assert run(["synth", "--seed", "2", "--n-vehicles", "4",
                "--duration-s", "20", "--out", str(tracks)]) == 0
    assert run(["ingest", "--data", str(tracks), "--out", str(samples),
                "--stride", "40"]) == 0
    M.Model.init(ModelConfig(variant=Variant.M_LSTM, hidden=8, embed=6),
                 seed=0).save(ckpt)
    return samples, ckpt


def damaged_copies(src, dst_dir):
    """Truncated copies at a few offsets, plus one with bad magic."""
    data = src.read_bytes()
    out = []
    for cut in (0, 5, 8, 12, 16, 40, len(data) // 2, len(data) - 1):
        path = dst_dir / f"cut{cut}_{src.name}"
        path.write_bytes(data[:cut])
        out.append(path)
    path = dst_dir / f"magic_{src.name}"
    path.write_bytes(b"GARBAGE!" + data[8:])
    out.append(path)
    return out


def assert_data_error(argv, path, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err
    assert "Traceback" not in err


def test_damaged_sample_file_exit_2(good_files, tmp_path, capsys):
    samples, _ = good_files
    for bad in damaged_copies(samples, tmp_path):
        assert_data_error(["eval", "--samples", str(bad), "--baseline", "cv"],
                          bad, capsys)


def test_damaged_jsonl_sample_file_exit_2(good_files, tmp_path, capsys):
    samples, _ = good_files
    good = tmp_path / "good.jsonl"
    trackstore.write_samples_jsonl(good, trackstore.read_samples_binary(samples))
    data = good.read_text()
    for cut in (data.index("\n") // 2, len(data) - 5):    # inside a record
        bad = tmp_path / f"cut{cut}.jsonl"
        bad.write_text(data[:cut])
        assert_data_error(["eval", "--samples", str(bad), "--baseline", "cv"],
                          bad, capsys)


def test_padded_sample_file_exit_2(good_files, tmp_path, capsys):
    samples, _ = good_files
    bad = tmp_path / "padded.bin"
    bad.write_bytes(samples.read_bytes() + b"\0")
    assert_data_error(["eval", "--samples", str(bad), "--baseline", "cv"],
                      bad, capsys)


def test_bad_label_byte_exit_2(good_files, tmp_path, capsys):
    samples, _ = good_files
    data = bytearray(samples.read_bytes())
    data[16 + 32] = 7                       # lateral label of record 0
    bad = tmp_path / "bad_label.bin"
    bad.write_bytes(bytes(data))
    assert_data_error(["eval", "--samples", str(bad), "--baseline", "cv"],
                      bad, capsys)


def test_damaged_checkpoint_exit_2(good_files, tmp_path, capsys):
    samples, ckpt = good_files
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(np.random.default_rng(0).bytes(4096))
    for bad in damaged_copies(ckpt, tmp_path) + [garbage]:
        assert_data_error(["eval", "--samples", str(samples),
                           "--checkpoint", str(bad)], bad, capsys)


def test_kernel_checkpoint_without_model_header_exit_2(good_files, tmp_path,
                                                      capsys):
    samples, _ = good_files
    bad = tmp_path / "kernel_only.ckpt"
    nk.save_checkpoint(bad, nk.ParamSet(), {"hidden": 8})
    assert_data_error(["eval", "--samples", str(samples),
                       "--checkpoint", str(bad)], bad, capsys)


def test_checkpoint_shape_mismatch_exit_2(good_files, tmp_path, capsys):
    samples, _ = good_files
    ckpt = tmp_path / "short_history.ckpt"
    M.Model.init(ModelConfig(variant=Variant.S_LSTM, hidden=8, embed=6, t_h=4),
                 seed=0).save(ckpt)
    assert run(["eval", "--samples", str(samples), "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err


@pytest.mark.parametrize("argv,debug", [
    (["-v", "eval"], True), (["eval", "-v"], True), (["eval"], False)])
def test_verbose_flag_logs_debug(good_files, caplog, argv, debug):
    samples, _ = good_files
    caplog.set_level(logging.NOTSET)
    assert run(argv + ["--samples", str(samples), "--baseline", "cv"]) == 0
    level = logging.getLogger("trajpred").getEffectiveLevel()
    assert level == (logging.DEBUG if debug else logging.INFO)
    read_msgs = [r for r in caplog.records if r.getMessage().startswith("read ")]
    assert bool(read_msgs) == debug
