"""Command-line entry point.

Subcommands: ingest, synth, label, train, predict, eval, ablate,
gradcheck. Options may come from a flat key=value config file
(`--config`); explicit command-line flags override file values. Exit
codes: 0 success, 1 usage error, 2 data/schema error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import logging
import multiprocessing
import sys

import numpy as np

from . import evaluation, maneuvers, model as M, nnkernel as nk, synth, trackstore
from .errors import (ConfigError, DimensionError, FrameRangeError,
                     IntegrityError, NumericError, SchemaError, UsageError)
from .model import Model, ModelConfig, Variant

log = logging.getLogger("trajpred")

CONFIG_KEYS = {
    "data", "out", "format", "unit_mode", "events_out", "stride",
    "variant", "epochs", "batch", "seed", "lr", "workers",
    "n_vehicles", "n_lanes", "duration_s", "lane_width_m",
    "pct_lane_changes", "pct_braking",
    "samples", "samples_train", "samples_test", "checkpoint", "baseline",
    "grid", "grid_out", "sample_index", "max_coords",
}


def read_config(path) -> dict:
    """Flat `key = value` file; '#' starts a comment; keys validated."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise UsageError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    + ", ".join(sorted(CONFIG_KEYS)))
            out[key] = value.strip()
    return out


def resolve(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags (flags parse with default None)."""
    eff = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = read_config(args.config)
        for key, val in file_cfg.items():
            if key in eff and eff[key] is not None:
                eff[key] = type(eff[key])(val) if not isinstance(eff[key], str) \
                    else val
            else:
                eff[key] = val
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            eff[key] = flag
    log.info("resolved config: %s", {k: v for k, v in sorted(eff.items())})
    return eff


def _read_samples(path):
    if str(path).endswith(".jsonl"):
        samples = trackstore.read_samples_jsonl(path)
    else:
        samples = trackstore.read_samples_binary(path)
    log.debug("read %d samples from %s", len(samples), path)
    return samples


def _write_samples(path, samples, fmt):
    if fmt == "jsonl" or str(path).endswith(".jsonl"):
        trackstore.write_samples_jsonl(path, samples)
    else:
        trackstore.write_samples_binary(path, samples)


def _load_store(path, unit_mode):
    with open(path) as f:
        return trackstore.parse_trajectories(f, unit_mode=unit_mode)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args):
    cfg = resolve(args, {"data": None, "unit_mode": "meters", "out": None,
                         "format": "binary", "stride": 2})
    if not cfg["data"] or not cfg["out"]:
        raise UsageError("ingest needs data= and out=")
    store = _load_store(cfg["data"], cfg["unit_mode"])
    samples, skipped = trackstore.build_samples(store, stride=int(cfg["stride"]))
    log.info("built %d samples (%d skipped) from %d tracks",
             len(samples), skipped, len(store))
    _write_samples(cfg["out"], samples, cfg["format"])
    print(f"wrote {len(samples)} samples to {cfg['out']} ({skipped} skipped)")


def cmd_synth(args):
    cfg = resolve(args, {"out": None, "events_out": None, "seed": 0,
                         "n_vehicles": 20, "n_lanes": 3, "duration_s": 60.0,
                         "lane_width_m": 3.7, "pct_lane_changes": 0.0,
                         "pct_braking": 0.0})
    if not cfg["out"]:
        raise UsageError("synth needs out=")
    scfg = synth.SynthConfig(
        n_vehicles=int(cfg["n_vehicles"]), n_lanes=int(cfg["n_lanes"]),
        duration_s=float(cfg["duration_s"]),
        lane_width_m=float(cfg["lane_width_m"]),
        pct_lane_changes=float(cfg["pct_lane_changes"]),
        pct_braking=float(cfg["pct_braking"]))
    store, events = synth.generate(scfg, int(cfg["seed"]))
    with open(cfg["out"], "w") as f:
        for line in synth.store_to_lines(store):
            f.write(line + "\n")
    if cfg["events_out"]:
        with open(cfg["events_out"], "w") as f:
            for d in synth.events_to_dicts(events):
                f.write(json.dumps(d) + "\n")
    print(f"wrote {len(store)} tracks to {cfg['out']}")


def cmd_label(args):
    cfg = resolve(args, {"data": None, "unit_mode": "meters", "out": None,
                         "stride": 10})
    if not cfg["data"] or not cfg["out"]:
        raise UsageError("label needs data= and out=")
    store = _load_store(cfg["data"], cfg["unit_mode"])
    n = 0
    with open(cfg["out"], "w") as f:
        for vid in sorted(store.tracks):
            tr = store.tracks[vid]
            if len(tr) == 0:
                continue
            last = int(tr.frame_ids[-1]) - maneuvers.LONGITUDINAL_HORIZON_FRAMES
            for t in range(int(tr.frame_ids[0]), last + 1, int(cfg["stride"])):
                lab = maneuvers.label(tr, t)
                f.write(json.dumps({
                    "vehicle_id": vid, "frame": t,
                    "lateral": lab.lateral.name,
                    "longitudinal": lab.longitudinal.name}) + "\n")
                n += 1
    print(f"wrote {n} labels to {cfg['out']}")


def cmd_train(args):
    cfg = resolve(args, {"samples": None, "variant": "m_lstm", "epochs": 30,
                         "batch": 128, "seed": 0, "lr": 0.001, "out": None})
    if not cfg["samples"] or not cfg["out"]:
        raise UsageError("train needs samples= and out=")
    samples = _read_samples(cfg["samples"])
    mcfg = ModelConfig(variant=Variant(cfg["variant"]))
    m, losses = M.train(samples, mcfg, epochs=int(cfg["epochs"]),
                        batch=int(cfg["batch"]), seed=int(cfg["seed"]),
                        lr=float(cfg["lr"]))
    m.save(cfg["out"])
    print(f"trained {mcfg.variant.value} on {len(samples)} samples; "
          f"final nll {losses[-1]:.4f}; checkpoint {cfg['out']}")


def _predict_one(payload):
    m, sample = payload
    if m.cfg.conditioned and m.cls is not None:
        dist = M.predict_multimodal(sample.history, m)
    else:
        hist = sample.history
        if m.cfg.variant is Variant.V_LSTM:
            hist = hist[:, 0:2]
        label = sample.label if m.cfg.conditioned else None
        dist = M.predict_unimodal(hist, m, label)
    return evaluation.dist_to_dict(dist)


def cmd_predict(args):
    cfg = resolve(args, {"samples": None, "checkpoint": None, "out": None,
                         "workers": 0, "grid": "", "grid_out": "",
                         "sample_index": 0})
    if not cfg["samples"] or not cfg["checkpoint"] or not cfg["out"]:
        raise UsageError("predict needs samples=, checkpoint= and out=")
    samples = _read_samples(cfg["samples"])
    m = Model.load(cfg["checkpoint"])
    workers = int(cfg["workers"]) or multiprocessing.cpu_count()
    payloads = [(m, s) for s in samples]
    if workers > 1 and len(samples) > 1:
        with multiprocessing.Pool(workers) as pool:
            dicts = pool.map(_predict_one, payloads)
    else:
        dicts = [_predict_one(p) for p in payloads]
    with open(cfg["out"], "w") as f:
        for d in dicts:
            f.write(json.dumps(d) + "\n")
    if cfg["grid"]:
        parts = [float(v) for v in str(cfg["grid"]).split(",")]
        if len(parts) != 5:
            raise UsageError("grid must be xmin,xmax,ymin,ymax,res")
        if not cfg["grid_out"]:
            raise UsageError("grid export needs grid_out=")
        k = int(cfg["sample_index"])
        s = samples[k]
        if m.cfg.conditioned and m.cls is not None:
            dist = M.predict_multimodal(s.history, m)
        else:
            hist = s.history[:, 0:2] if m.cfg.variant is Variant.V_LSTM \
                else s.history
            dist = M.predict_unimodal(hist, m,
                                      s.label if m.cfg.conditioned else None)
        xs, ys, dens = evaluation.mixture_density_grid(dist, *parts)
        evaluation.write_grid_csv(cfg["grid_out"], xs, ys, dens)
    print(f"wrote {len(dicts)} predictions to {cfg['out']}")


def cmd_eval(args):
    cfg = resolve(args, {"samples": None, "checkpoint": None, "baseline": "",
                         "out": None})
    if not cfg["samples"]:
        raise UsageError("eval needs samples=")
    samples = _read_samples(cfg["samples"])
    truths = np.stack([s.future for s in samples])
    if cfg["baseline"] == "cv":
        name = "CV"
        points = evaluation.predict_points_cv(samples)
        acc = None
    elif cfg["checkpoint"]:
        m = Model.load(cfg["checkpoint"])
        name = m.cfg.variant.name
        labels = None
        acc = None
        if m.cfg.conditioned:
            if m.cls is not None:
                labels = evaluation.classify_batch(samples, m)
                acc = evaluation.maneuver_accuracy(labels,
                                                   [s.label for s in samples])
            else:
                labels = [s.label for s in samples]
        points = evaluation.predict_points_model(samples, m, labels)
    else:
        raise UsageError("eval needs checkpoint= or baseline=cv")
    rmse = evaluation.rmse_table(points, truths)
    res = evaluation.AblationResult(rmse={name: rmse})
    if acc:
        res.accuracy[name] = acc
    if cfg["out"]:
        res.write_csv(cfg["out"])
    print(res)


def cmd_ablate(args):
    cfg = resolve(args, {"samples_train": "", "samples_test": "", "seed": 42,
                         "epochs": 20, "batch": 128, "lr": 0.001, "out": None,
                         "n_vehicles": 600, "duration_s": 40.0,
                         "pct_lane_changes": 0.3, "pct_braking": 0.3})
    if cfg["samples_train"] and cfg["samples_test"]:
        train = _read_samples(cfg["samples_train"])
        test = _read_samples(cfg["samples_test"])
    else:
        train, test = evaluation.make_benchmark(
            n_vehicles=int(cfg["n_vehicles"]), seed=int(cfg["seed"]),
            pct_lane_changes=float(cfg["pct_lane_changes"]),
            pct_braking=float(cfg["pct_braking"]),
            duration_s=float(cfg["duration_s"]))
    log.info("ablation: %d train / %d test samples", len(train), len(test))
    result, _ = evaluation.run_ablation(train, test, seed=int(cfg["seed"]),
                                        epochs=int(cfg["epochs"]),
                                        batch=int(cfg["batch"]),
                                        lr=float(cfg["lr"]))
    if cfg["out"]:
        result.write_csv(cfg["out"])
    print(result)


def cmd_gradcheck(args):
    cfg = resolve(args, {"seed": 0, "max_coords": 200})
    rng = np.random.default_rng(int(cfg["seed"]))
    mcfg = ModelConfig(variant=Variant.M_LSTM)
    hist = rng.normal(scale=5.0, size=(2, mcfg.t_h + 1, mcfg.input_channels))
    fut = rng.normal(scale=5.0, size=(2, mcfg.t_f, 2))
    onehots = np.stack([M.maneuver_onehot(M.ManeuverLabel.from_joint_index(i))
                        for i in (0, 3)])
    traj = M.init_trajectory_weights(mcfg, int(cfg["seed"]))
    err_t = nk.grad_check(
        lambda tape: M.trajectory_loss(hist, fut, onehots, traj, mcfg, tape),
        traj, max_coords=int(cfg["max_coords"]), seed=int(cfg["seed"]))
    clsw = M.init_classifier_weights(mcfg, int(cfg["seed"]))
    err_c = nk.grad_check(
        lambda tape: M.classifier_loss(hist, [0, 1], [0, 1], clsw, mcfg, tape),
        clsw, max_coords=int(cfg["max_coords"]), seed=int(cfg["seed"]))
    print(f"trajectory max rel error: {err_t:.3e}")
    print(f"classifier max rel error: {err_c:.3e}")
    if max(err_t, err_c) >= 1e-4:
        raise NumericError("gradient check failed (>= 1e-4)")


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    p = _Parser(prog="trajpred", description=__doc__)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log at DEBUG level (default INFO)")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, flags):
        sp = sub.add_parser(name)
        # also accepted after the subcommand; SUPPRESS keeps the value
        # set before it when the flag is absent here
        sp.add_argument("-v", "--verbose", action="store_true",
                        default=argparse.SUPPRESS)
        sp.add_argument("--config")
        for flag, typ in flags:
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag, type=typ)
        sp.set_defaults(fn=fn)

    add("ingest", cmd_ingest, [("data", str), ("unit_mode", str), ("out", str),
                               ("format", str), ("stride", int)])
    add("synth", cmd_synth, [("out", str), ("events_out", str), ("seed", int),
                             ("n_vehicles", int), ("n_lanes", int),
                             ("duration_s", float), ("lane_width_m", float),
                             ("pct_lane_changes", float),
                             ("pct_braking", float)])
    add("label", cmd_label, [("data", str), ("unit_mode", str), ("out", str),
                             ("stride", int)])
    add("train", cmd_train, [("samples", str), ("variant", str),
                             ("epochs", int), ("batch", int), ("seed", int),
                             ("lr", float), ("out", str)])
    add("predict", cmd_predict, [("samples", str), ("checkpoint", str),
                                 ("out", str), ("workers", int),
                                 ("grid", str), ("grid_out", str),
                                 ("sample_index", int)])
    add("eval", cmd_eval, [("samples", str), ("checkpoint", str),
                           ("baseline", str), ("out", str)])
    add("ablate", cmd_ablate, [("samples_train", str), ("samples_test", str),
                               ("seed", int), ("epochs", int), ("batch", int),
                               ("lr", float), ("out", str),
                               ("n_vehicles", int), ("duration_s", float),
                               ("pct_lane_changes", float),
                               ("pct_braking", float)])
    add("gradcheck", cmd_gradcheck, [("seed", int), ("max_coords", int)])
    return p


def main(argv=None):
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        log.setLevel(logging.DEBUG if args.verbose else logging.INFO)
        args.fn(args)
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (SchemaError, IntegrityError, FrameRangeError, ConfigError,
            DimensionError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
