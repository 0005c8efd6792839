"""Maneuver-conditioned LSTM encoder-decoder with bivariate Gaussian heads.

The encoder embeds each 14-channel frame (64 units, leaky ReLU) and runs
a 128-unit LSTM; its final hidden state is the context vector. The
decoder LSTM receives the context, concatenated with lateral (3) and
longitudinal (2) one-hot maneuver vectors for the maneuver-conditioned
variant, as its input at every future step and a linear head maps each
decoder state to 5 raw values: (mu_x, mu_y) directly, sigma = exp(raw),
rho = tanh(raw). A separate classifier LSTM with its own embedding has
two softmax heads for the maneuver probabilities; lateral and
longitudinal classes are treated as conditionally independent, so joint
probabilities are products.

Each LSTM runs as one fused `nnkernel.lstm_seq` op, fed by an input
projection computed once for all steps (for all frames in the encoders,
once for the constant decoder input), and the loss is one
`nnkernel.gaussian_nll` op over all future steps.

Variants: V_LSTM uses only the predicted vehicle's 2 channels and no
maneuver input; S_LSTM uses all 14 channels, no maneuver input; M_LSTM
adds the classifier and conditioning; M_LSTM_GT is M_LSTM evaluated with
ground-truth maneuvers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import nnkernel as nk
from .errors import DimensionError, SchemaError
from .maneuvers import Lateral, Longitudinal, ManeuverLabel
from .nnkernel import ParamSet, Tape, Tensor

log = logging.getLogger(__name__)

N_LATERAL = 3
N_LONGITUDINAL = 2
N_JOINT = N_LATERAL * N_LONGITUDINAL


class Variant(Enum):
    V_LSTM = "v_lstm"
    S_LSTM = "s_lstm"
    M_LSTM = "m_lstm"
    M_LSTM_GT = "m_lstm_gt"


@dataclass
class ModelConfig:
    variant: Variant = Variant.M_LSTM
    hidden: int = 128
    embed: int = 64
    t_h: int = 15
    t_f: int = 25

    @property
    def input_channels(self) -> int:
        return 2 if self.variant is Variant.V_LSTM else 14

    @property
    def conditioned(self) -> bool:
        return self.variant in (Variant.M_LSTM, Variant.M_LSTM_GT)

    @property
    def has_classifier(self) -> bool:
        # the GT variant bypasses the classifier at evaluation time
        return self.variant is Variant.M_LSTM

    @property
    def decoder_input(self) -> int:
        return self.hidden + (N_LATERAL + N_LONGITUDINAL if self.conditioned else 0)

    def to_dict(self):
        return {"variant": self.variant.value, "hidden": self.hidden,
                "embed": self.embed, "t_h": self.t_h, "t_f": self.t_f}

    @classmethod
    def from_dict(cls, d):
        return cls(variant=Variant(d["variant"]), hidden=int(d["hidden"]),
                   embed=int(d["embed"]), t_h=int(d["t_h"]), t_f=int(d["t_f"]))


@dataclass(frozen=True)
class GaussianStep:
    """Bivariate Gaussian over one future position, meters."""
    mu_x: float
    mu_y: float
    sigma_x: float
    sigma_y: float
    rho: float


@dataclass
class Normalizer:
    """Per-channel standardization fitted on the training set.

    Local-frame longitudinal positions span hundreds of meters, which
    saturates the LSTM gates; the model trains and predicts in
    standardized units and converts back on output. Axis scaling leaves
    the correlation coefficient of a bivariate Gaussian unchanged, so
    only the means and sigmas need rescaling.
    """
    hist_mu: np.ndarray   # (C,)
    hist_sd: np.ndarray   # (C,)
    fut_mu: np.ndarray    # (2,)
    fut_sd: np.ndarray    # (2,)

    SD_FLOOR = 1e-6

    @classmethod
    def fit(cls, hist, fut) -> "Normalizer":
        hist = np.asarray(hist, dtype=np.float64)
        fut = np.asarray(fut, dtype=np.float64)
        return cls(
            hist_mu=hist.reshape(-1, hist.shape[-1]).mean(axis=0),
            hist_sd=np.maximum(hist.reshape(-1, hist.shape[-1]).std(axis=0),
                               cls.SD_FLOOR),
            fut_mu=fut.reshape(-1, 2).mean(axis=0),
            fut_sd=np.maximum(fut.reshape(-1, 2).std(axis=0), cls.SD_FLOOR))

    def apply_hist(self, hist):
        return (np.asarray(hist, dtype=np.float64) - self.hist_mu) / self.hist_sd

    def apply_fut(self, fut):
        return (np.asarray(fut, dtype=np.float64) - self.fut_mu) / self.fut_sd

    def unapply_means(self, means):
        return means * self.fut_sd + self.fut_mu

    def unapply_step(self, g: GaussianStep) -> GaussianStep:
        sx, sy = self.fut_sd
        return GaussianStep(mu_x=g.mu_x * sx + self.fut_mu[0],
                            mu_y=g.mu_y * sy + self.fut_mu[1],
                            sigma_x=g.sigma_x * sx, sigma_y=g.sigma_y * sy,
                            rho=g.rho)

    def to_dict(self):
        return {k: getattr(self, k).tolist()
                for k in ("hist_mu", "hist_sd", "fut_mu", "fut_sd")}

    @classmethod
    def from_dict(cls, d) -> "Normalizer":
        return cls(**{k: np.asarray(d[k], dtype=np.float64)
                      for k in ("hist_mu", "hist_sd", "fut_mu", "fut_sd")})


@dataclass
class ManeuverMode:
    label: ManeuverLabel
    probability: float
    trajectory: list  # t_f GaussianStep


@dataclass
class ManeuverDistribution:
    modes: list = field(default_factory=list)  # ordered by joint index

    def probabilities(self):
        return np.array([m.probability for m in self.modes])


def init_trajectory_weights(cfg: ModelConfig, seed: int) -> ParamSet:
    rng = np.random.default_rng(seed)
    p = ParamSet()
    c = cfg.input_channels
    p.add("embed_W", nk.uniform_init(rng, c, cfg.embed, c))
    p.add("embed_b", np.zeros((1, cfg.embed)))
    for name, arr in zip(("enc_Wx", "enc_Wh", "enc_b"),
                         nk.lstm_init(rng, cfg.embed, cfg.hidden)):
        p.add(name, arr)
    for name, arr in zip(("dec_Wx", "dec_Wh", "dec_b"),
                         nk.lstm_init(rng, cfg.decoder_input, cfg.hidden)):
        p.add(name, arr)
    p.add("head_W", nk.uniform_init(rng, cfg.hidden, 5, cfg.hidden))
    p.add("head_b", np.zeros((1, 5)))
    return p


def init_classifier_weights(cfg: ModelConfig, seed: int) -> ParamSet:
    rng = np.random.default_rng(seed)
    p = ParamSet()
    c = cfg.input_channels
    p.add("embed_W", nk.uniform_init(rng, c, cfg.embed, c))
    p.add("embed_b", np.zeros((1, cfg.embed)))
    for name, arr in zip(("lstm_Wx", "lstm_Wh", "lstm_b"),
                         nk.lstm_init(rng, cfg.embed, cfg.hidden)):
        p.add(name, arr)
    p.add("lat_W", nk.uniform_init(rng, cfg.hidden, N_LATERAL, cfg.hidden))
    p.add("lat_b", np.zeros((1, N_LATERAL)))
    p.add("lon_W", nk.uniform_init(rng, cfg.hidden, N_LONGITUDINAL, cfg.hidden))
    p.add("lon_b", np.zeros((1, N_LONGITUDINAL)))
    return p


@dataclass
class Model:
    cfg: ModelConfig
    traj: ParamSet
    cls: ParamSet | None = None
    norm: Normalizer | None = None

    @classmethod
    def init(cls, cfg: ModelConfig, seed: int) -> "Model":
        clsw = init_classifier_weights(cfg, seed + 1) if cfg.conditioned else None
        return cls(cfg=cfg, traj=init_trajectory_weights(cfg, seed), cls=clsw)

    def save(self, path):
        merged = ParamSet()
        for name, t in self.traj.params.items():
            merged.add("traj/" + name, t.data)
        if self.cls is not None:
            for name, t in self.cls.params.items():
                merged.add("cls/" + name, t.data)
        hyper = self.cfg.to_dict()
        if self.norm is not None:
            hyper["norm"] = self.norm.to_dict()
        nk.save_checkpoint(path, merged, hyper)

    @classmethod
    def load(cls, path) -> "Model":
        merged, hyper = nk.load_checkpoint(path)
        norm_d = hyper.pop("norm", None)
        try:
            cfg = ModelConfig.from_dict(hyper)
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"{path}: not a model checkpoint "
                              f"({type(e).__name__} in header: {e})") from e
        traj, clsw = ParamSet(), ParamSet()
        for name, t in merged.params.items():
            group, _, rest = name.partition("/")
            (traj if group == "traj" else clsw).add(rest, t.data)
        return cls(cfg=cfg, traj=traj,
                   cls=clsw if clsw.params else None,
                   norm=Normalizer.from_dict(norm_d) if norm_d else None)


def _zero_state(rows, hidden):
    return Tensor(np.zeros((rows, hidden)), requires_grad=False)


def _run_lstm(frames, embed_W, embed_b, Wx, Wh, b, hidden, tape):
    """frames: (B, T, C) array -> final hidden state Tensor (B, hidden).

    The embedding and the input projection run once over all T*B frame
    rows, stacked step-major as `lstm_seq` expects.
    """
    B, T, C = frames.shape
    x = Tensor(frames.transpose(1, 0, 2).reshape(T * B, C), requires_grad=False)
    emb = nk.leaky_relu(nk.linear_fwd(embed_W, embed_b, x, tape), 0.1, tape)
    state = _zero_state(B, hidden)
    hs, _ = nk.lstm_seq(nk.linear_fwd(Wx, b, emb, tape), state, state, Wh, T,
                        tape)
    return nk.slice_rows(hs, (T - 1) * B, T * B, tape)


def encode(history, weights: ParamSet, cfg: ModelConfig, tape=None) -> Tensor:
    """Context vector for a batch of histories (B, t_h+1, C) or (t_h+1, C)."""
    arr = np.asarray(history, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.shape[1] != cfg.t_h + 1 or arr.shape[2] != cfg.input_channels:
        raise DimensionError(
            f"encode: expected (B, {cfg.t_h + 1}, {cfg.input_channels}), "
            f"got {arr.shape}")
    return _run_lstm(arr, weights["embed_W"], weights["embed_b"],
                     weights["enc_Wx"], weights["enc_Wh"], weights["enc_b"],
                     cfg.hidden, tape)


def maneuver_onehot(label: ManeuverLabel) -> np.ndarray:
    v = np.zeros(N_LATERAL + N_LONGITUDINAL)
    v[int(label.lateral)] = 1.0
    v[N_LATERAL + int(label.longitudinal)] = 1.0
    return v


def _check_onehots(onehots):
    lat = onehots[:, :N_LATERAL]
    lon = onehots[:, N_LATERAL:]
    ok = ((lat == 1).sum(axis=1) == 1) & ((lat == 0).sum(axis=1) == N_LATERAL - 1) \
        & ((lon == 1).sum(axis=1) == 1) & ((lon == 0).sum(axis=1) == N_LONGITUDINAL - 1)
    if not ok.all():
        raise ValueError("maneuver encoding must be one one-hot per group")


def decode_raw(context: Tensor, onehots, weights: ParamSet, cfg: ModelConfig,
               tape=None) -> Tensor:
    """Raw 5-value head outputs for t_f steps as one (t_f * B, 5) Tensor.

    Rows are step-major: row k*B + j is future step k of batch row j. The
    decoder input (context, plus maneuver one-hots when conditioned) is
    the same at every step, so its projection `dec_in @ dec_Wx + dec_b`
    is computed once and only the LSTM state evolves; the head then maps
    all t_f * B decoder states in one matmul.
    """
    if cfg.conditioned:
        oh = np.atleast_2d(np.asarray(onehots, dtype=np.float64))
        if oh.shape != (context.rows, N_LATERAL + N_LONGITUDINAL):
            raise DimensionError(f"decode: one-hot block has shape {oh.shape}")
        _check_onehots(oh)
        dec_in = nk.concat_cols([context, Tensor(oh, requires_grad=False)], tape)
    else:
        dec_in = context
    xw = nk.linear_fwd(weights["dec_Wx"], weights["dec_b"], dec_in, tape)
    state = _zero_state(context.rows, cfg.hidden)
    hs, _ = nk.lstm_seq(xw, state, state, weights["dec_Wh"], cfg.t_f, tape)
    return nk.linear_fwd(weights["head_W"], weights["head_b"], hs, tape)


def raw_to_gaussian(raw_row) -> GaussianStep:
    m = np.asarray(raw_row, dtype=np.float64).reshape(5)
    return GaussianStep(mu_x=float(m[0]), mu_y=float(m[1]),
                        sigma_x=float(np.exp(m[2])), sigma_y=float(np.exp(m[3])),
                        rho=float(RHO_MAX * np.tanh(m[4])))


def decode(context: Tensor, onehots, weights: ParamSet, cfg: ModelConfig):
    """Inference-mode decode for a single sample -> list of GaussianStep."""
    raws = decode_raw(context, onehots, weights, cfg, tape=None)
    return [raw_to_gaussian(r) for r in raws.data[::context.rows]]


def decode_means(context: Tensor, onehots, weights: ParamSet,
                 cfg: ModelConfig) -> np.ndarray:
    """Batch point predictions: (B, t_f, 2) means, inference mode."""
    raws = decode_raw(context, onehots, weights, cfg, tape=None)
    return raws.data[:, 0:2].reshape(cfg.t_f, context.rows, 2).transpose(1, 0, 2)


def classify_logits(history, weights: ParamSet, cfg: ModelConfig, tape=None):
    arr = np.asarray(history, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    h = _run_lstm(arr, weights["embed_W"], weights["embed_b"],
                  weights["lstm_Wx"], weights["lstm_Wh"], weights["lstm_b"],
                  cfg.hidden, tape)
    lat = nk.linear_fwd(weights["lat_W"], weights["lat_b"], h, tape)
    lon = nk.linear_fwd(weights["lon_W"], weights["lon_b"], h, tape)
    return lat, lon


def classify(history, weights: ParamSet, cfg: ModelConfig):
    """Softmax maneuver probabilities; (B, 3) lateral and (B, 2) longitudinal."""
    lat, lon = classify_logits(history, weights, cfg, tape=None)
    return nk.softmax(lat.data), nk.softmax(lon.data)


def predict_multimodal(history, model: Model) -> ManeuverDistribution:
    """Mixture over the 6 joint maneuvers for one history.

    Joint probability of (lateral a, longitudinal b) is the product of
    the two softmax heads; each mode's trajectory is the decoder output
    conditioned on that maneuver's one-hots.
    """
    if model.cls is None:
        raise ValueError("predict_multimodal needs a classifier-bearing model")
    if model.norm is not None:
        history = model.norm.apply_hist(history)
    p_lat, p_lon = classify(history, model.cls, model.cfg)
    p_lat, p_lon = p_lat[0], p_lon[0]
    context = encode(history, model.traj, model.cfg, tape=None)
    dist = ManeuverDistribution()
    for joint in range(N_JOINT):
        label = ManeuverLabel.from_joint_index(joint)
        steps = decode(context, maneuver_onehot(label), model.traj, model.cfg)
        if model.norm is not None:
            steps = [model.norm.unapply_step(g) for g in steps]
        dist.modes.append(ManeuverMode(
            label=label,
            probability=float(p_lat[int(label.lateral)] * p_lon[int(label.longitudinal)]),
            trajectory=steps))
    return dist


def predict_unimodal(history, model: Model, label: ManeuverLabel | None = None):
    """Single-mode prediction (V/S variants, or M with ground-truth label)."""
    if model.norm is not None:
        history = model.norm.apply_hist(history)
    context = encode(history, model.traj, model.cfg, tape=None)
    onehots = maneuver_onehot(label) if model.cfg.conditioned else None
    steps = decode(context, onehots, model.traj, model.cfg)
    if model.norm is not None:
        steps = [model.norm.unapply_step(g) for g in steps]
    mode = ManeuverMode(label=label or ManeuverLabel(Lateral.KEEP, Longitudinal.NORMAL),
                        probability=1.0, trajectory=steps)
    return ManeuverDistribution(modes=[mode])


# tanh saturates to exactly 1.0 in float64 for |raw| >~ 19; this scale
# keeps |rho| < 1 (and 1 - rho^2 > 0) for any raw head output
RHO_MAX = 1.0 - 1e-9


def nll_loss(raws, truth, tape=None) -> Tensor:
    """Mean bivariate-Gaussian negative log likelihood.

    `raws` is the (t_f * B, 5) step-major Tensor from `decode_raw`,
    `truth` an array (B, t_f, 2). The head mapping sigma = exp, rho =
    RHO_MAX * tanh keeps the density parameters valid for any raw
    values. Mean over steps and batch.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if truth.ndim == 2:
        truth = truth[None]
    B, t_f, _ = truth.shape
    if raws.rows != t_f * B:
        raise DimensionError(
            f"nll_loss: {raws.rows} raw rows vs truth {truth.shape}")
    target = truth.transpose(1, 0, 2).reshape(t_f * B, 2)
    return nk.gaussian_nll(raws, target, RHO_MAX, tape)


def trajectory_loss(history, future, onehots, weights: ParamSet,
                    cfg: ModelConfig, tape=None) -> Tensor:
    context = encode(history, weights, cfg, tape)
    raws = decode_raw(context, onehots, weights, cfg, tape)
    return nll_loss(raws, future, tape)


def classifier_loss(history, lat_targets, lon_targets, weights: ParamSet,
                    cfg: ModelConfig, tape=None) -> Tensor:
    lat, lon = classify_logits(history, weights, cfg, tape)
    return nk.add(nk.softmax_xent(lat, lat_targets, tape),
                  nk.softmax_xent(lon, lon_targets, tape), tape)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _sample_arrays(samples, cfg: ModelConfig):
    hist = np.stack([s.history for s in samples])
    if cfg.variant is Variant.V_LSTM:
        hist = hist[:, :, 0:2]
    fut = np.stack([s.future for s in samples])
    onehots = np.stack([maneuver_onehot(s.label) for s in samples])
    lat = np.array([int(s.label.lateral) for s in samples])
    lon = np.array([int(s.label.longitudinal) for s in samples])
    return hist, fut, onehots, lat, lon


def _minibatches(n, batch, rng):
    order = rng.permutation(n)
    for lo in range(0, n, batch):
        yield order[lo:lo + batch]


def train_trajectory(samples, cfg: ModelConfig, epochs=30, batch=128,
                     seed=0, lr=0.001, weights=None, norm=None):
    """Train the encoder-decoder by NLL with ground-truth maneuver one-hots.

    Deterministic given (samples, cfg, epochs, batch, seed). Returns
    (weights, per-epoch mean losses). With a Normalizer, losses are in
    standardized units.
    """
    if not samples:
        raise ValueError("empty training set")
    hist, fut, onehots, _, _ = _sample_arrays(samples, cfg)
    if norm is not None:
        hist = norm.apply_hist(hist)
        fut = norm.apply_fut(fut)
    if weights is None:
        weights = init_trajectory_weights(cfg, seed)
    rng = np.random.default_rng(seed + 7)
    losses = []
    for epoch in range(epochs):
        total, count = 0.0, 0
        for idx in _minibatches(len(samples), batch, rng):
            tape = Tape()
            loss = trajectory_loss(hist[idx], fut[idx],
                                   onehots[idx] if cfg.conditioned else None,
                                   weights, cfg, tape)
            weights.zero_grad()
            tape.backward(loss)
            nk.adam_step(weights, lr=lr)
            total += loss.item() * len(idx)
            count += len(idx)
        losses.append(total / count)
        log.info("trajectory epoch %d/%d nll=%.4f", epoch + 1, epochs, losses[-1])
    return weights, losses


def train_classifier(samples, cfg: ModelConfig, epochs=30, batch=128,
                     seed=0, lr=0.001, weights=None, norm=None):
    """Train the maneuver classifier on the summed cross-entropies."""
    if not samples:
        raise ValueError("empty training set")
    hist, _, _, lat, lon = _sample_arrays(samples, cfg)
    if norm is not None:
        hist = norm.apply_hist(hist)
    if weights is None:
        weights = init_classifier_weights(cfg, seed + 1)
    rng = np.random.default_rng(seed + 13)
    losses = []
    for epoch in range(epochs):
        total, count = 0.0, 0
        for idx in _minibatches(len(samples), batch, rng):
            tape = Tape()
            loss = classifier_loss(hist[idx], lat[idx], lon[idx],
                                   weights, cfg, tape)
            weights.zero_grad()
            tape.backward(loss)
            nk.adam_step(weights, lr=lr)
            total += loss.item() * len(idx)
            count += len(idx)
        losses.append(total / count)
        log.info("classifier epoch %d/%d xent=%.4f", epoch + 1, epochs, losses[-1])
    return weights, losses


def train(samples, cfg: ModelConfig, epochs=30, batch=128, seed=0, lr=0.001):
    """Train the full variant (trajectory model, plus classifier if any)."""
    if not samples:
        raise ValueError("empty training set")
    hist, fut, _, _, _ = _sample_arrays(samples, cfg)
    norm = Normalizer.fit(hist, fut)
    traj, traj_losses = train_trajectory(samples, cfg, epochs, batch, seed, lr,
                                         norm=norm)
    clsw = None
    if cfg.conditioned:
        clsw, _ = train_classifier(samples, cfg, epochs, batch, seed, lr,
                                   norm=norm)
    model = Model(cfg=cfg, traj=traj, cls=clsw, norm=norm)
    return model, traj_losses
