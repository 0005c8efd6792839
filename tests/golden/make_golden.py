"""Write `golden.npz`: fixed-seed reference outputs that pin the numbers.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

`tests/test_golden.py` recomputes the same values with `compute()` and
compares them against the file. Regenerate it only in a change that
moves the numbers on purpose, and record why in CHANGES.md.

Contents:
- `samples_sha256`: SHA-256 of `samples.bin` for a fixed synthetic scene;
- `traj_losses/<variant>` and `cls_losses/<variant>`: per-epoch losses of
  both training loops, 3 epochs on a small fixed training set;
- `raw`: raw head outputs of the trained M-LSTM for 32 test samples under
  each of the six joint maneuvers, shape (6, 32, t_f, 5);
- `p_lat`, `p_lon`: its maneuver probabilities for the same samples;
- `cv_points`, `cv_rmse`: CV baseline predictions and the 1-5 s RMSE table.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from trajpred import evaluation as ev
from trajpred import model as M
from trajpred import synth, trackstore
from trajpred.maneuvers import ManeuverLabel
from trajpred.model import ModelConfig, Variant

GOLDEN = Path(__file__).with_name("golden.npz")

SCENE = synth.SynthConfig(n_vehicles=8, duration_s=20.0,
                          pct_lane_changes=0.3, pct_braking=0.3)
SCENE_SEED = 11
BENCH_VEHICLES, BENCH_SEED = 80, 17
N_TRAIN, N_TEST = 64, 32
EPOCHS, BATCH, TRAIN_SEED = 3, 32, 0


def samples_digest() -> str:
    store, _ = synth.generate(SCENE, SCENE_SEED)
    samples, _ = trackstore.build_samples(store)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.bin")
        trackstore.write_samples_binary(path, samples)
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def raw_outputs(m: M.Model, hist) -> np.ndarray:
    """(6, N, t_f, 5) raw head outputs, one block per joint maneuver."""
    context = M.encode(hist, m.traj, m.cfg)
    out = []
    for joint in range(M.N_JOINT):
        oh = M.maneuver_onehot(ManeuverLabel.from_joint_index(joint))
        raws = M.decode_raw(context, np.tile(oh, (len(hist), 1)), m.traj, m.cfg)
        out.append(raws.data.reshape(m.cfg.t_f, len(hist), 5).transpose(1, 0, 2))
    return np.stack(out)


def compute() -> dict:
    out = {"samples_sha256": np.array(samples_digest())}
    train, test = ev.make_benchmark(n_vehicles=BENCH_VEHICLES, seed=BENCH_SEED)
    train, test = train[:N_TRAIN], test[:N_TEST]
    trained = None
    for variant in Variant:
        cfg = ModelConfig(variant=variant)
        hist, fut, _, _, _ = M._sample_arrays(train, cfg)
        norm = M.Normalizer.fit(hist, fut)
        traj, losses = M.train_trajectory(train, cfg, EPOCHS, BATCH,
                                          TRAIN_SEED, norm=norm)
        out[f"traj_losses/{variant.value}"] = np.array(losses)
        if cfg.conditioned:
            clsw, losses = M.train_classifier(train, cfg, EPOCHS, BATCH,
                                              TRAIN_SEED, norm=norm)
            out[f"cls_losses/{variant.value}"] = np.array(losses)
        if variant is Variant.M_LSTM:
            trained = M.Model(cfg=cfg, traj=traj, cls=clsw, norm=norm)
    hist = trained.norm.apply_hist(np.stack([s.history for s in test]))
    out["raw"] = raw_outputs(trained, hist)
    out["p_lat"], out["p_lon"] = M.classify(hist, trained.cls, trained.cfg)
    out["cv_points"] = ev.predict_points_cv(test)
    out["cv_rmse"] = ev.rmse_table(out["cv_points"],
                                   np.stack([s.future for s in test]))
    return out


if __name__ == "__main__":
    np.savez_compressed(GOLDEN, **compute())
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
