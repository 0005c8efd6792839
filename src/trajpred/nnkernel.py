"""Minimal reverse-mode differentiation kernel.

Everything is float64 and 2-D: a Tensor is a (rows, cols) matrix and a
batch of vectors is stored row-major, one example per row. Operations
record backward closures on a Tape in creation order; replaying the tape
in reverse is a valid topological order, so no graph search is needed.

The model's hot paths are fused ops with closed-form backward passes:
`lstm_seq` runs a whole LSTM recurrence (BPTT by hand) and
`gaussian_nll` the bivariate-Gaussian loss over all rows at once. The
few generic primitives left serve the embedding, the linear heads and
the gradient-check demo. Gate layout for the LSTM is (input, forget,
cell, output), stacked along the columns of the weight matrices. The
checkpoint format is versioned and documented in `save_checkpoint`.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import DimensionError, NumericError, SchemaError


class Tensor:
    """A 2-D float64 array plus its accumulated gradient.

    Ops compute no gradient for a tensor made with `requires_grad=False`,
    such as input frames and maneuver one-hots.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise DimensionError(f"Tensor must be at most 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise DimensionError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _accum(t: Tensor, g: np.ndarray):
    # no op updates a gradient in place, so the first one is stored as is
    t.grad = g if t.grad is None else t.grad + g


class Tape:
    """Ordered record of primitive ops; backward runs them in reverse."""

    def __init__(self):
        self._backward_ops = []

    def record(self, fn):
        self._backward_ops.append(fn)

    def backward(self, loss: Tensor):
        if loss.data.size != 1:
            raise DimensionError("backward() requires a scalar loss tensor")
        _accum(loss, np.ones_like(loss.data))
        for fn in reversed(self._backward_ops):
            fn()

    def __len__(self):
        return len(self._backward_ops)


# ---------------------------------------------------------------------------
# Primitives. Each takes an optional tape; with tape=None only the forward
# value is computed (inference mode).
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor, tape=None) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)
    if tape is not None:
        def back():
            _accum(a, out.grad)
            _accum(b, out.grad)
        tape.record(back)
    return out


def square(a: Tensor, tape=None) -> Tensor:
    out = Tensor(a.data * a.data)
    if tape is not None:
        def back():
            _accum(a, 2.0 * a.data * out.grad)
        tape.record(back)
    return out


def leaky_relu(a: Tensor, alpha: float = 0.1, tape=None) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, alpha * a.data))
    if tape is not None:
        def back():
            _accum(a, np.where(mask, out.grad, alpha * out.grad))
        tape.record(back)
    return out


def slice_rows(a: Tensor, start: int, stop: int, tape=None) -> Tensor:
    out = Tensor(a.data[start:stop].copy())
    if tape is not None:
        def back():
            g = np.zeros_like(a.data)
            g[start:stop] = out.grad
            _accum(a, g)
        tape.record(back)
    return out


def concat_cols(parts, tape=None) -> Tensor:
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise DimensionError("concat_cols: row counts differ")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    if tape is not None:
        offsets = np.cumsum([0] + [p.cols for p in parts])
        def back():
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if p.requires_grad:
                    _accum(p, out.grad[:, lo:hi])
        tape.record(back)
    return out


def mean_all(a: Tensor, tape=None) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.mean())
    if tape is not None:
        def back():
            _accum(a, np.full_like(a.data, out.grad[0, 0] / n))
        tape.record(back)
    return out


# ---------------------------------------------------------------------------
# Fused and composite ops used by the model
# ---------------------------------------------------------------------------


def linear_fwd(W: Tensor, b: Tensor, x: Tensor, tape=None) -> Tensor:
    """y = x W + b for a batch of row vectors x (b is a single row).

    One op: the bias is added in place, because a second (rows, cols)
    array for the sum costs more in page faults than the matmul when x
    holds all T*B frame rows.
    """
    if x.cols != W.rows or b.cols != W.cols or b.rows != 1:
        raise DimensionError(
            f"linear_fwd: x {x.shape}, W {W.shape}, b {b.shape}")
    out = Tensor(x.data @ W.data)
    out.data += b.data
    if tape is not None:
        def back():
            if x.requires_grad:
                _accum(x, out.grad @ W.data.T)
            _accum(W, x.data.T @ out.grad)
            _accum(b, out.grad.sum(axis=0, keepdims=True))
        tape.record(back)
    return out


_GATE_NAMES = ("input", "forget", "cell", "output")


def _sigmoid(z, out):
    """out = 1 / (1 + exp(-z)), computed in `out` without temporaries."""
    np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)


def lstm_seq(xw: Tensor, h0: Tensor, c0: Tensor, Wh: Tensor, steps: int,
             tape=None):
    """A whole LSTM recurrence as one tape op; returns (hs, c).

    `xw` is the precomputed input projection x Wx + b: either `steps * B`
    rows, step-major (row t*B + k is step t of batch row k), or B rows
    used at every step. Gate pre-activations are stacked column-wise as
    (i, f, g, o). `hs` stacks the hidden states of all steps in the same
    step-major row order, (steps * B, H); `c` is the final cell state
    (B, H). The backward pass is written out by hand (BPTT) from the
    gates and cell states saved in the forward pass; without a tape only
    the current step's gates and cell states are kept. Per-step work
    writes into preallocated buffers: fresh (B, 4H) temporaries each step
    cost more in page faults than the arithmetic.
    """
    B, H = h0.shape
    if c0.shape != (B, H) or Wh.shape != (H, 4 * H) or xw.cols != 4 * H \
            or xw.rows not in (B, steps * B) or steps < 1:
        raise DimensionError(
            f"lstm_seq: xw {xw.shape}, h0 {h0.shape}, c0 {c0.shape}, "
            f"Wh {Wh.shape}, {steps} steps")
    const = xw.rows == B
    # slots kept per quantity; step t uses slot t % n
    n_act, n_c = (steps, steps + 1) if tape is not None else (1, 2)
    acts = np.empty((n_act, B, 4 * H))   # gate activations i, f, g, o
    tcs = np.empty((n_act, B, H))        # tanh(c_t)
    cs = np.empty((n_c, B, H))           # c0, then c_t
    hs = np.empty((steps + 1, B, H))     # h0, then h_t
    z = np.empty((B, 4 * H))
    hs[0], cs[0] = h0.data, c0.data
    for t in range(steps):
        np.matmul(hs[t], Wh.data, out=z)
        z += xw.data if const else xw.data[t * B:(t + 1) * B]
        if not np.isfinite(z).all():
            bad = [_GATE_NAMES[k] for k in range(4)
                   if not np.isfinite(z[:, k * H:(k + 1) * H]).all()]
            raise NumericError(
                f"non-finite pre-activation in gate(s): {', '.join(bad)}")
        a, tc, c = acts[t % n_act], tcs[t % n_act], cs[(t + 1) % n_c]
        _sigmoid(z, a)            # one pass over all gates beats three slices
        np.tanh(z[:, 2 * H:3 * H], out=a[:, 2 * H:3 * H])
        np.multiply(a[:, H:2 * H], cs[t % n_c], out=c)
        c += a[:, :H] * a[:, 2 * H:3 * H]
        np.tanh(c, out=tc)
        np.multiply(a[:, 3 * H:], tc, out=hs[t + 1])
    out_h = Tensor(hs[1:].reshape(steps * B, H))
    out_c = Tensor(cs[steps % n_c])
    if tape is not None:
        def back():
            dH = None if out_h.grad is None else out_h.grad.reshape(steps, B, H)
            dc = np.zeros((B, H)) if out_c.grad is None else out_c.grad.copy()
            dh = np.zeros((B, H))
            tmp = np.empty((B, H))
            upstream = np.empty((B, 4 * H))   # d loss / d gate activation
            dZ = np.empty((steps, B, 4 * H))
            WhT = Wh.data.T
            for t in range(steps - 1, -1, -1):
                a, dz, tc = acts[t], dZ[t], tcs[t]
                if dH is not None:
                    dh += dH[t]
                np.multiply(tc, tc, out=tmp)      # dc += dh o (1 - tanh(c)^2)
                np.subtract(1.0, tmp, out=tmp)
                tmp *= a[:, 3 * H:]
                tmp *= dh
                dc += tmp
                np.multiply(dc, a[:, 2 * H:3 * H], out=upstream[:, :H])
                np.multiply(dc, cs[t], out=upstream[:, H:2 * H])
                np.multiply(dc, a[:, :H], out=upstream[:, 2 * H:3 * H])
                np.multiply(dh, tc, out=upstream[:, 3 * H:])
                np.subtract(1.0, a, out=dz)       # sigmoid' = a (1 - a)
                dz *= a
                np.multiply(a[:, 2 * H:3 * H], a[:, 2 * H:3 * H],
                            out=dz[:, 2 * H:3 * H])
                np.subtract(1.0, dz[:, 2 * H:3 * H], out=dz[:, 2 * H:3 * H])
                dz *= upstream                    # tanh' = 1 - g^2 above
                dc *= a[:, H:2 * H]
                if t > 0 or h0.requires_grad:
                    np.matmul(dz, WhT, out=dh)
            flat = dZ.reshape(steps * B, 4 * H)
            _accum(Wh, hs[:steps].reshape(steps * B, H).T @ flat)
            if xw.requires_grad:
                _accum(xw, dZ.sum(axis=0) if const else flat)
            if h0.requires_grad:
                _accum(h0, dh)
            if c0.requires_grad:
                _accum(c0, dc)
        tape.record(back)
    return out_h, out_c


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, Wx: Tensor,
              Wh: Tensor, b: Tensor, tape=None):
    """One LSTM step for a batch of rows; returns (h, c).

    This is `lstm_seq` with one step. Gate pre-activations are stacked
    column-wise as (i, f, g, o).
    """
    H = h_prev.cols
    if Wx.cols != 4 * H or Wh.shape != (H, 4 * H) or b.cols != 4 * H:
        raise DimensionError(
            f"lstm_cell: hidden {H}, Wx {Wx.shape}, Wh {Wh.shape}, b {b.shape}")
    return lstm_seq(linear_fwd(Wx, b, x, tape), h_prev, c_prev, Wh, 1, tape)


_LOG_2PI = math.log(2.0 * math.pi)


def gaussian_nll(raw: Tensor, target, rho_max: float, tape=None) -> Tensor:
    """Mean bivariate-Gaussian negative log likelihood as one tape op.

    Row n of `raw` (N, 5) parameterises the Gaussian of target row n
    (N, 2): means (raw 0, 1), sigma = exp(raw 2, 3) and rho = rho_max *
    tanh(raw 4). The mean runs over all N rows; the backward pass is
    closed-form.
    """
    target = np.asarray(target, dtype=np.float64)
    if raw.cols != 5 or target.shape != (raw.rows, 2):
        raise DimensionError(
            f"gaussian_nll: raw {raw.shape} vs target {target.shape}")
    r = raw.data
    th = np.tanh(r[:, 4])
    rho = rho_max * th
    sx, sy = np.exp(r[:, 2]), np.exp(r[:, 3])
    nx = (r[:, 0] - target[:, 0]) / sx
    ny = (r[:, 1] - target[:, 1]) / sy
    omr = 1.0 - rho * rho
    z = nx * nx + ny * ny - 2.0 * rho * nx * ny
    nll = r[:, 2] + r[:, 3] + (0.5 * np.log(omr) + _LOG_2PI) + z / (2.0 * omr)
    out = Tensor(nll.mean())
    if tape is not None:
        def back():
            gx = (nx - rho * ny) / omr       # d nll / d nx
            gy = (ny - rho * nx) / omr
            grho = (z * rho / omr - rho - nx * ny) / omr
            g = np.empty_like(r)
            g[:, 0] = gx / sx
            g[:, 1] = gy / sy
            g[:, 2] = 1.0 - gx * nx
            g[:, 3] = 1.0 - gy * ny
            g[:, 4] = grho * rho_max * (1.0 - th * th)
            _accum(raw, g * (out.grad[0, 0] / raw.rows))
        tape.record(back)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: Tensor, targets, tape=None) -> Tensor:
    """Mean cross-entropy of integer targets under softmax(logits).

    `targets` is an int array of length logits.rows. Log-sum-exp is
    stabilised by subtracting the row max.
    """
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    if t.shape[0] != logits.rows:
        raise DimensionError(
            f"softmax_xent: {logits.rows} rows vs {t.shape[0]} targets")
    if (t < 0).any() or (t >= logits.cols).any():
        raise IndexError(f"target class out of range [0, {logits.cols})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(z.shape[0]), t]
    out = Tensor((lse - picked).mean())
    if tape is not None:
        def back():
            p = softmax(logits.data)
            p[np.arange(p.shape[0]), t] -= 1.0
            _accum(logits, out.grad[0, 0] * p / p.shape[0])
        tape.record(back)
    return out


# ---------------------------------------------------------------------------
# Parameters, Adam, gradient check, checkpoints
# ---------------------------------------------------------------------------


class ParamSet:
    """Named trainable tensors with paired Adam moment buffers.

    `adam_step` creates the moment buffers on a parameter's first update,
    so loaded and inference-only sets carry no optimizer state.
    """

    def __init__(self):
        self.params = {}   # name -> Tensor
        self.m = {}
        self.v = {}
        self.step_count = 0

    def add(self, name: str, data) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(data, dtype=np.float64))
        self.params[name] = t
        return t

    def __getitem__(self, name) -> Tensor:
        return self.params[name]

    def __contains__(self, name):
        return name in self.params

    def names(self):
        return list(self.params)

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def n_coords(self):
        return sum(t.data.size for t in self.params.values())

    def copy(self) -> "ParamSet":
        out = ParamSet()
        for name, t in self.params.items():
            out.add(name, t.data.copy())
            if name in self.m:
                out.m[name] = self.m[name].copy()
                out.v[name] = self.v[name].copy()
        out.step_count = self.step_count
        return out


def adam_step(params: ParamSet, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam update using the gradients stored on the tensors.

    Raises NumericError (before touching any state) if a gradient is
    non-finite; missing gradients count as zero.
    """
    grads = {}
    for name, t in params.params.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if g.shape != t.data.shape:
            raise DimensionError(f"gradient shape mismatch for {name!r}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name!r}; update skipped")
        grads[name] = g
    params.step_count += 1
    k = params.step_count
    bc1 = 1.0 - beta1 ** k
    bc2 = 1.0 - beta2 ** k
    for name, g in grads.items():
        if name not in params.m:
            params.m[name] = np.zeros_like(params.params[name].data)
            params.v[name] = np.zeros_like(params.params[name].data)
        m = params.m[name]
        v = params.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        params.params[name].data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def grad_check(loss_fn, params: ParamSet, eps=1e-5, max_coords=500, seed=0):
    """Max relative error between analytic and central-difference gradients.

    `loss_fn(tape)` must rebuild the loss from the current parameter
    values and be deterministic. At most `max_coords` randomly chosen
    coordinates are perturbed. Returns 0.0 for an empty ParamSet.
    """
    total = params.n_coords()
    if total == 0:
        return 0.0
    tape = Tape()
    loss = loss_fn(tape)
    params.zero_grad()
    tape.backward(loss)
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in params.params.items()}

    coords = [(name, idx) for name, t in params.params.items()
              for idx in range(t.data.size)]
    rng = np.random.default_rng(seed)
    if len(coords) > max_coords:
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picks]

    worst = 0.0
    for name, idx in coords:
        flat = params.params[name].data.reshape(-1)
        saved = flat[idx]
        flat[idx] = saved + eps
        lp = loss_fn(None).item()
        flat[idx] = saved - eps
        lm = loss_fn(None).item()
        flat[idx] = saved
        numeric = (lp - lm) / (2.0 * eps)
        a = analytic[name].reshape(-1)[idx]
        rel = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
        worst = max(worst, rel)
    return worst


_CKPT_MAGIC = b"TPCKPT01"


def save_checkpoint(path, params: ParamSet, hyper: dict):
    """Write parameters to a binary checkpoint.

    Layout: magic "TPCKPT01"; u32 header length + UTF-8 JSON of the
    hyperparameter dict; u32 entry count; per entry u16 name length,
    name bytes, u32 rows, u32 cols, then rows*cols little-endian f64.
    """
    header = json.dumps(hyper, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(struct.pack("<I", len(params.params)))
        for name, t in params.params.items():
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<II", t.rows, t.cols))
            f.write(t.data.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (ParamSet, hyper dict).

    A file that is not a checkpoint, is cut short or has an undecodable
    header raises SchemaError naming the path.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n):
            if n > size - f.tell():
                raise SchemaError(
                    f"{path}: truncated checkpoint ({size} bytes, needs "
                    f"{n} more at offset {f.tell()})")
            return f.read(n)

        if f.read(8) != _CKPT_MAGIC:
            raise SchemaError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack("<I", read(4))
        try:
            hyper = json.loads(read(hlen).decode())
        except ValueError as e:     # bad UTF-8 or bad JSON
            raise SchemaError(f"{path}: corrupt checkpoint header: {e}") from e
        if not isinstance(hyper, dict):
            raise SchemaError(f"{path}: checkpoint header is not a JSON object")
        (count,) = struct.unpack("<I", read(4))
        params = ParamSet()
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read(2))
            try:
                name = read(nlen).decode()
            except UnicodeDecodeError as e:
                raise SchemaError(f"{path}: corrupt parameter name: {e}") from e
            rows, cols = struct.unpack("<II", read(8))
            data = np.frombuffer(read(rows * cols * 8), dtype="<f8")
            params.add(name, data.reshape(rows, cols))
    return params, hyper


def uniform_init(rng, rows, cols, fan_in):
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    lim = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-lim, lim, size=(rows, cols))


def lstm_init(rng, input_size, hidden):
    """(Wx, Wh, b) arrays with the forget-gate bias set to 1.0."""
    Wx = uniform_init(rng, input_size, 4 * hidden, input_size + hidden)
    Wh = uniform_init(rng, hidden, 4 * hidden, input_size + hidden)
    b = np.zeros((1, 4 * hidden))
    b[0, hidden:2 * hidden] = 1.0
    return Wx, Wh, b
