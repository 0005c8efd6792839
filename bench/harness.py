"""Set-up, phases, output checks and metrics of the trajpred benchmark.

Loaded by bench/run.py after it has fixed the BLAS thread count and put
the checkout's `src` first on the import path.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import multiprocessing
import os
import pickle
import platform
import re
import resource
import shutil
import struct
import sys
import tempfile
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from trajpred import cli, evaluation, maneuvers, nnkernel as nk, synth, trackstore
from trajpred import model as M

BATCH = 128
LR = 1e-3
CFG = M.ModelConfig(variant=M.Variant.M_LSTM)
SCENES = ("sparse", "dense")
STEP_5S = 5 * 5 - 1          # future step index of the 5 s horizon at 5 Hz
PHASES = ("setup", "ingest", "train", "predict.client", "predict.cli", "eval")
# bounded end-to-end: the mixture NLL; per-layer: figures that spread over
# seeds by more than any bound allows (see bench/README.md)
QUALITY_E2E = ("quality.mixture_nll",)
QUALITY_LAYER = ("quality.rmse_5s_m", "quality.joint_accuracy")


@dataclass(frozen=True)
class Sizes:
    sparse_vehicles: int = 65      # the sparse ingest scene (~85 tracks)
    dense_vehicles: int = 260      # 4x the sparse scene's vehicles
    scene_s: float = 16.2          # shortest scene the scripted events fit
    ingest_stride: int = 40        # frames between query times
    bench_vehicles: int = 120      # make_benchmark scene for train/predict
    epochs: int = 2                # per loop, per model.train call
    setup_repeats: int = 3         # setup_s is their median
    # least work per phase in an untraced run; the focus phase does more
    ingest_rounds: int = 3         # each ingests both scenes
    train_calls: int = 3
    client_calls: int = 1000       # p90 with 100 calls beyond it
    cli_rounds: int = 3            # each runs cli predict and both evals
    grid: str = "-10,10,-10,150,1"


FULL = Sizes()
QUICK = replace(FULL, sparse_vehicles=20, dense_vehicles=80, bench_vehicles=60,
                setup_repeats=1, ingest_rounds=1, train_calls=1,
                client_calls=20, cli_rounds=1)


@dataclass
class Inputs:
    work: str
    scenes: dict         # name -> (csv path, data rows)
    train: list          # whole batches of the make_benchmark train split
    traj_losses: list    # per-epoch losses of the setup training
    cls_losses: list
    ckpt: str
    test_path: str
    test: list           # samples read back from test_path
    model: M.Model       # loaded from ckpt


class StepClock:
    """Times `model.train` optimizer steps from outside the program.

    `model.train` runs `train_trajectory` and then `train_classifier`;
    each step of a loop ends in `nnkernel.adam_step`. A trajectory step
    lasts from the end of the previous one (or the loop's start) to the
    end of its own Adam update. The classifier's losses, which
    `model.train` drops, are kept for the loss checks.
    """

    def __init__(self):
        self.traj_ms = []
        self.cls_losses = None
        self._last = None

    def install(self):
        traj, cls, adam = M.train_trajectory, M.train_classifier, nk.adam_step

        def train_trajectory(*args, **kwargs):
            self._last = perf_counter()
            try:
                return traj(*args, **kwargs)
            finally:
                self._last = None

        def train_classifier(*args, **kwargs):
            weights, losses = cls(*args, **kwargs)
            self.cls_losses = losses
            return weights, losses

        def adam_step(*args, **kwargs):
            out = adam(*args, **kwargs)
            if self._last is not None:
                now = perf_counter()
                self.traj_ms.append((now - self._last) * 1e3)
                self._last = now
            return out

        M.train_trajectory = train_trajectory
        M.train_classifier = train_classifier
        nk.adam_step = adam_step


def run_cli(argv):
    """`cli.main(argv)` with its stdout captured; returns (code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def setup(sizes, seed, work, clock):
    scenes = {}
    for name, n in zip(SCENES, (sizes.sparse_vehicles, sizes.dense_vehicles)):
        store, _ = synth.generate(synth.SynthConfig(
            n_vehicles=n, duration_s=sizes.scene_s, pct_lane_changes=0.3,
            pct_braking=0.3), seed)
        path = os.path.join(work, name + ".csv")
        rows = -1                                    # the header is no row
        with open(path, "w") as f:
            for line in synth.store_to_lines(store):
                f.write(line + "\n")
                rows += 1
        scenes[name] = (path, rows)
    train, test = evaluation.make_benchmark(n_vehicles=sizes.bench_vehicles,
                                            seed=seed)
    train = train[:len(train) // BATCH * BATCH]      # every step a full batch
    if not train or not test:
        raise ValueError(f"seed {seed}: benchmark split too small")
    m, traj_losses = M.train(train, CFG, epochs=sizes.epochs, batch=BATCH,
                             seed=seed, lr=LR)
    ckpt = os.path.join(work, "model.ckpt")
    m.save(ckpt)
    test_path = os.path.join(work, "test.bin")
    trackstore.write_samples_binary(test_path, test)
    return Inputs(work=work, scenes=scenes, train=train,
                  traj_losses=traj_losses, cls_losses=clock.cls_losses,
                  ckpt=ckpt, test_path=test_path,
                  test=trackstore.read_samples_binary(test_path),
                  model=M.Model.load(ckpt))


def sample_digest(samples):
    """SHA-256 over every field a sample file keeps."""
    h = hashlib.sha256()
    for s in samples:
        h.update(struct.pack("<qddqBB", s.vehicle_id, s.origin[0], s.origin[1],
                             int(s.origin[2]), int(s.label.lateral),
                             int(s.label.longitudinal)))
        h.update(np.packbits(np.asarray(s.neighbor_mask, dtype=bool)).tobytes())
        h.update(np.ascontiguousarray(s.history, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(s.future, dtype="<f8").tobytes())
    return len(samples), h.hexdigest()


def direct_reference(inputs, stride):
    """(count, digest) of `build_samples` run directly on each scene."""
    ref = {}
    for name, (path, _) in inputs.scenes.items():
        with open(path) as f:
            store = trackstore.parse_trajectories(f)
        ref[name] = sample_digest(trackstore.build_samples(store, stride=stride)[0])
    return ref


def check_dist(d, t_f):
    """Six modes, probabilities summing to 1, sigma > 0 and |rho| < 1."""
    modes = d["modes"]
    if len(modes) != M.N_JOINT:
        return False, f"{len(modes)} modes"
    total = math.fsum(m["probability"] for m in modes)
    if not abs(total - 1.0) <= 1e-9:
        return False, f"probabilities sum to {total!r}"
    for m in modes:
        if len(m["trajectory"]) != t_f:
            return False, f"{len(m['trajectory'])} steps"
        for g in m["trajectory"]:
            if not (g["sx"] > 0 and g["sy"] > 0 and abs(g["rho"]) < 1
                    and math.isfinite(g["mux"]) and math.isfinite(g["muy"])):
                return False, f"invalid step {g}"
    return True, ""


def quality(dicts, samples):
    """Argmax-mode 5 s RMSE (m), mixture NLL per future step, joint accuracy."""
    sq5, nll, hits = [], [], 0
    for d, s in zip(dicts, samples):
        modes = d["modes"]
        p = np.array([m["probability"] for m in modes])
        g = np.array([[[st["mux"], st["muy"], st["sx"], st["sy"], st["rho"]]
                       for st in m["trajectory"]] for m in modes])
        k = int(np.argmax(p))                     # ties go to the lowest index
        sq5.append(((g[k, STEP_5S, :2] - s.future[STEP_5S]) ** 2).sum())
        hits += (modes[k]["lateral"], modes[k]["longitudinal"]) == (
            s.label.lateral.name, s.label.longitudinal.name)
        dx = (s.future[None, :, 0] - g[..., 0]) / g[..., 2]
        dy = (s.future[None, :, 1] - g[..., 1]) / g[..., 3]
        rho = g[..., 4]
        omr = 1.0 - rho * rho
        logpdf = (-np.log(2.0 * np.pi * g[..., 2] * g[..., 3] * np.sqrt(omr))
                  - (dx * dx + dy * dy - 2.0 * rho * dx * dy) / (2.0 * omr))
        with np.errstate(divide="ignore"):
            logp = np.log(p)[:, None] + logpdf    # (modes, steps)
        top = logp.max(axis=0)
        nll.append(-(top + np.log(np.exp(logp - top).sum(axis=0))).mean())
    return {"quality.rmse_5s_m": math.sqrt(sum(sq5) / len(sq5)),
            "quality.mixture_nll": sum(nll) / len(nll),
            "quality.joint_accuracy": hits / len(dicts)}


def read_rmse_5s(path, column):
    with open(path) as f:
        rows = [line.strip().split(",") for line in f if line.strip()]
    col = rows[0].index(column)
    return float(next(r for r in rows[1:] if r[0] == "5")[col])


class Bench:
    """Runs the phases on fixed inputs and tallies work, checks and times."""

    def __init__(self, sizes, seed, inputs, clock):
        self.sizes, self.seed, self.inp, self.clock = sizes, seed, inputs, clock
        self.reference = direct_reference(inputs, sizes.ingest_stride)
        self.tally = {p: [0, 0] for p in PHASES}     # attempted, failed
        self.failures = []
        self.first_pass = []      # phase-a outputs, one per test sample
        self.quality = None
        self.reset_measures()

    def reset_measures(self):
        # rates are per round; a metric is their median
        self.ingest_rates, self.train_rates = [], []
        self.cli_rates, self.eval_rates = [], []
        self.step_ms, self.latency_ms = [], []
        self.final_nll, self.rows_parsed = None, 0

    def record(self, phase, ok, why=""):
        t = self.tally[phase]
        t[0] += 1
        if not ok:
            t[1] += 1
            if len(self.failures) < 20:
                self.failures.append(f"{phase}: {why}")

    def attempt(self, phase, op):
        """Run one operation; an exception or a failed check is a failure."""
        try:
            ok, why = op()
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            ok, why = False, repr(e)
        self.record(phase, ok, why)

    # -- phases -------------------------------------------------------------

    def run_phases(self, focus, seconds, tracer, least=None, counts=None):
        """Ingest, train, predict; the `focus` phase repeats for `seconds`.

        Each phase does at least `least[phase]` units (default: the sizes'
        untraced minimum). With `counts`, as returned by an earlier call,
        each phase does exactly that many instead. Returns (wall s, counts).
        """
        s = self.sizes
        least = least or {"ingest": s.ingest_rounds, "train": s.train_calls,
                          "client": s.client_calls, "cli": s.cli_rounds}

        def plan(phase):
            if counts:
                return counts[phase], None
            return least[phase], (perf_counter() + seconds if phase == focus
                                  else None)

        start = perf_counter()
        done = {}
        done["ingest"] = _repeat(lambda: self.ingest_once(tracer),
                                 *plan("ingest"))
        done["train"] = _repeat(lambda: self.train_once(tracer),
                                *plan("train"))
        done["client"] = self.client(tracer, *plan("client"))
        done["cli"] = _repeat(lambda: self.cli_once(tracer), *plan("cli"))
        return perf_counter() - start, done

    def ingest_once(self, tracer):
        """One round: `cli ingest` of each scene, timed, then read back."""
        done = []
        for name in SCENES:
            self.attempt("ingest", lambda: self._ingest(name, tracer, done))
        if len(done) == len(SCENES):
            self.ingest_rates.append(sum(n for n, _ in done)
                                     / sum(dt for _, dt in done))

    def _ingest(self, name, tracer, done):
        path, rows = self.inp.scenes[name]
        out = os.path.join(self.inp.work, name + ".bin")
        with tracer.span("bench.ingest." + name):
            t0 = perf_counter()
            code, _ = run_cli(["ingest", "--data", path, "--out", out,
                               "--stride", str(self.sizes.ingest_stride)])
            dt = perf_counter() - t0
            if code != 0:
                return False, f"{name}: cli ingest exited {code}"
            got = trackstore.read_samples_binary(out)
        done.append((len(got), dt))
        self.rows_parsed += rows
        count, digest = sample_digest(got)
        return (count, digest) == self.reference[name], (
            f"{name}: read back {count} samples, digest {digest[:12]}; direct "
            f"build_samples gives {self.reference[name][0]}, "
            f"{self.reference[name][1][:12]}")

    def train_once(self, tracer):
        self.attempt("train", lambda: self._train(tracer))

    def _train(self, tracer):
        inp, epochs = self.inp, self.sizes.epochs
        first_step = len(self.clock.traj_ms)
        with tracer.span("bench.train"):
            t0 = perf_counter()
            _, losses = M.train(inp.train, CFG, epochs=epochs, batch=BATCH,
                                seed=self.seed, lr=LR)
            dt = perf_counter() - t0
        cls_losses = self.clock.cls_losses
        # sample-epochs over both loops
        self.train_rates.append(2 * epochs * len(inp.train) / dt)
        self.step_ms += self.clock.traj_ms[first_step:]
        self.final_nll = losses[-1]
        for name, got, want in (("trajectory", losses, inp.traj_losses),
                                ("classifier", cls_losses, inp.cls_losses)):
            if not all(math.isfinite(x) for x in got):
                return False, f"{name} losses not finite: {got}"
            if not got[-1] < got[0]:
                return False, f"{name} losses do not decrease: {got}"
            if got != want:
                return False, f"{name} losses {got} differ from set-up {want}"
        return True, ""

    def cli_once(self, tracer):
        """Phases b and c: `cli predict` with a grid, `cli eval` twice."""
        self.attempt("predict.cli", lambda: self._cli_predict(tracer))
        self.attempt("eval", lambda: self._cli_eval(tracer))

    def client(self, tracer, calls, deadline):
        """Phase a: one closed-loop client, the next call after the last.

        Makes at least one pass over the test set, whose outputs the CLI
        and quality checks compare against.
        """
        test, m, first = self.inp.test, self.inp.model, self.first_pass
        t_f = CFG.t_f
        calls = max(calls, len(test))
        n = 0
        with tracer.span("bench.predict.client"):
            while n < calls or (deadline is not None
                                and perf_counter() < deadline):
                i = n % len(test)
                try:
                    t0 = perf_counter()
                    d = evaluation.dist_to_dict(
                        M.predict_multimodal(test[i].history, m))
                    self.latency_ms.append((perf_counter() - t0) * 1e3)
                    if i == len(first):
                        ok, why = check_dist(d, t_f)
                        first.append(d if ok else None)
                    else:
                        ok, why = d == first[i], "differs from its first call"
                except Exception as e:
                    traceback.print_exc(file=sys.stderr)
                    ok, why = False, repr(e)
                    if i == len(first):
                        first.append(None)
                self.record("predict.client", ok, f"sample {i}: {why}")
                n += 1
        if self.quality is None and None not in first:
            self.quality = quality(first, test)
        return n

    def _cli_predict(self, tracer):
        inp = self.inp
        out = os.path.join(inp.work, "pred.jsonl")
        grid_out = os.path.join(inp.work, "grid.csv")
        with tracer.span("bench.predict.cli"):
            t0 = perf_counter()
            code, _ = run_cli(["predict", "--samples", inp.test_path,
                               "--checkpoint", inp.ckpt, "--out", out,
                               "--grid=" + self.sizes.grid,
                               "--grid-out", grid_out])
            dt = perf_counter() - t0
        if code != 0:
            return False, f"cli predict exited {code}"
        self.cli_rates.append(len(inp.test) / dt)
        with open(out) as f:
            lines = [json.loads(line) for line in f if line.strip()]
        if len(lines) != len(inp.test):
            return False, f"{len(lines)} predictions for {len(inp.test)} samples"
        bad = [i for i, (a, b) in enumerate(zip(lines, self.first_pass))
               if a != b]
        if bad:
            return False, f"JSONL differs from phase a at samples {bad[:5]}"
        xmin, xmax, ymin, ymax, res = (float(v) for v in self.sizes.grid.split(","))
        n_cells = len(np.arange(xmin, xmax + res / 2, res)) * len(
            np.arange(ymin, ymax + res / 2, res))
        with open(grid_out) as f:
            dens = [float(line.rsplit(",", 1)[1]) for line in list(f)[1:]]
        if len(dens) != n_cells or not all(math.isfinite(v) and v >= 0
                                           for v in dens):
            return False, f"grid has {len(dens)} cells, want {n_cells}, >= 0"
        return True, ""

    def _cli_eval(self, tracer):
        inp = self.inp
        csv_m = os.path.join(inp.work, "eval_model.csv")
        csv_cv = os.path.join(inp.work, "eval_cv.csv")
        with tracer.span("bench.eval"):
            t0 = perf_counter()
            code_m, out_m = run_cli(["eval", "--samples", inp.test_path,
                                     "--checkpoint", inp.ckpt, "--out", csv_m])
            code_cv, _ = run_cli(["eval", "--samples", inp.test_path,
                                  "--baseline", "cv", "--out", csv_cv])
            dt = perf_counter() - t0
        if code_m or code_cv:
            return False, f"cli eval exited {code_m} (model), {code_cv} (cv)"
        self.eval_rates.append(2 * len(inp.test) / dt)
        if self.quality is None:
            return False, "phase a failed, nothing to compare with"
        rmse_m = read_rmse_5s(csv_m, "M_LSTM")
        rmse_cv = read_rmse_5s(csv_cv, "CV")
        joint = float(re.search(r"joint=([0-9.]+)", out_m).group(1))
        want_rmse = self.quality["quality.rmse_5s_m"]
        want_joint = self.quality["quality.joint_accuracy"]
        # the CSV keeps 4 decimals and the printed accuracy 3
        if abs(rmse_m - want_rmse) > 2e-4:
            return False, f"eval 5 s RMSE {rmse_m} vs phase a {want_rmse}"
        if abs(joint - want_joint) > 1e-3:
            return False, f"eval joint accuracy {joint} vs phase a {want_joint}"
        if not (math.isfinite(rmse_cv) and rmse_cv > 0):
            return False, f"CV 5 s RMSE {rmse_cv}"
        return True, ""

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, setup_s):
        def pct(xs, q):
            return float(np.percentile(xs, q)) if xs else None

        out = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "ingest.samples_per_s": pct(self.ingest_rates, 50),
            "train.samples_per_s": pct(self.train_rates, 50),
            "train.step_ms.p50": pct(self.step_ms, 50),
            "train.step_ms.p90": pct(self.step_ms, 90),
            "train.final_nll": self.final_nll,
            "predict.samples_per_s": pct(self.cli_rates, 50),
            "predict.latency_ms.p50": pct(self.latency_ms, 50),
            "predict.latency_ms.p90": pct(self.latency_ms, 90),
            "eval.samples_per_s": pct(self.eval_rates, 50),
        }
        out.update({k: (self.quality or {}).get(k) for k in QUALITY_E2E})
        return out

    def sample_counts(self):
        return {"ingest_rounds": len(self.ingest_rates),
                "train_calls": len(self.train_rates),
                "train_steps": len(self.step_ms),
                "client_calls": len(self.latency_ms),
                "client_latency_ms_p99": (float(np.percentile(
                    self.latency_ms, 99)) if self.latency_ms else None),
                "cli_rounds": len(self.cli_rates)}


def _repeat(op, least, deadline):
    n = 0
    while n < least or (deadline is not None and perf_counter() < deadline):
        op()
        n += 1
    return n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads_observed():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_note():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:                   # older NumPy has no mode="dicts"
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "blas_threads_observed": _blas_threads_observed(),
            # cli predict sizes its pool with multiprocessing.cpu_count()
            "cli_predict_pool": multiprocessing.cpu_count(),
            "platform": platform.platform()}


def run(args, spec_path, bench_dir):
    spec = json.loads(Path(spec_path).read_text())
    sizes = QUICK if args.quick else FULL
    results = Path(bench_dir) / "results"
    results.mkdir(exist_ok=True)
    work_root = Path(bench_dir) / "_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                            dir=work_root)
    try:
        return _run(args, spec, sizes, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def _run(args, spec, sizes, work, results):
    machine = machine_note()
    print("# machine " + json.dumps(machine))
    clock = StepClock()
    clock.install()
    setup_s, ckpts = [], []
    try:
        for _ in range(sizes.setup_repeats):
            t0 = perf_counter()
            inputs = setup(sizes, args.seed, work, clock)
            setup_s.append(perf_counter() - t0)
            ckpts.append(hashlib.sha256(Path(inputs.ckpt).read_bytes()).hexdigest())
        bench = Bench(sizes, args.seed, inputs, clock)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        print("bench: set-up failed", file=sys.stderr)
        return 2
    for digest in ckpts:
        bench.record("setup", digest == ckpts[0],
                     "set-up repeats gave different checkpoints")

    extra = {}
    if args.trace == 0:
        wall, counts = bench.run_phases(args.workload, args.seconds,
                                        tracing.NullTracer)
        values = bench.end_to_end(float(np.median(setup_s)))
        kind = "end_to_end"
    else:
        # the same work untraced and traced; the difference is the overhead.
        # Besides the focus phase, each phase does one round: per-layer
        # figures are means, with no percentile that needs many calls.
        least = {"ingest": 1, "train": 1, "client": len(inputs.test), "cli": 1}
        plain, counts = bench.run_phases(args.workload, args.seconds / 2,
                                         tracing.NullTracer, least=least)
        bench.reset_measures()
        tracer = tracing.Tracer()
        tracing.install(tracer, trackstore, maneuvers, M, nk, evaluation)
        try:
            traced, _ = bench.run_phases(args.workload, None, tracer,
                                         counts=counts)
        finally:
            tracer.uninstall()
        wall = traced
        pickle_bytes = len(pickle.dumps((inputs.model, inputs.test[0])))
        values = tracing.layer_metrics(tracer, bench.rows_parsed, pickle_bytes)
        values.update({k: (bench.quality or {}).get(k) for k in QUALITY_LAYER})
        values["trace.overhead_s"] = traced - plain
        values["trace.overhead_pct"] = (traced - plain) / plain * 100.0
        kind = "per_layer"
        stem = f"trace-{args.workload}-seed{args.seed}"
        tracer.write_jsonl(results / (stem + ".jsonl"))
        extra = {"untraced_s": plain, "traced_s": traced,
                 "spans": len(tracer.spans), "layers": tracer.summary()}

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metric names differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(values) ^ set(units))}")
    attempted = sum(t[0] for t in bench.tally.values())
    failed = sum(t[1] for t in bench.tally.values())
    missing = sorted(k for k, v in values.items() if v is None)
    if missing:
        bench.failures.append(f"metrics not measured: {missing}")
    result = {"correct": failed == 0 and not missing,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}

    phases = {p: {"attempted": a, "failed": f,
                  "failed_share": f / a if a else 0.0}
              for p, (a, f) in bench.tally.items()}
    for p, row in phases.items():
        print(f"# {p}: {row['attempted']} attempted, {row['failed']} failed "
              f"({row['failed_share']:.1%})")
    for msg in bench.failures:
        print("# FAILED " + msg)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, "machine": machine, "sizes": asdict(sizes),
              "setup_s": setup_s, "phase_wall_s": wall, "units_run": counts,
              "measured": bench.sample_counts(), "quality": bench.quality,
              "phases": phases,
              "failures": bench.failures, **extra, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / (name + ("-quick" if args.quick else "") + ".json")).write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0
