"""Fused `lstm_seq` and `gaussian_nll` against the composite ops they replace.

The reference below is a copy of the composite LSTM cell and NLL loss
that the fused ops replaced, with the scalar-sized tape primitives they
were built from. It is kept only as the reference these tests compare
against.
"""

import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from trajpred import model as M
from trajpred import nnkernel as nk
from trajpred.errors import NumericError
from trajpred.nnkernel import ParamSet, Tape, Tensor, _accum

# ---------------------------------------------------------------------------
# Reference: the composite ops, one tape record per primitive
# ---------------------------------------------------------------------------


def _unary(a, value, local_grad, tape):
    out = Tensor(value)
    if tape is not None:
        tape.record(lambda: _accum(a, local_grad(out) * out.grad))
    return out


def ref_matmul(a, b, tape=None):
    out = Tensor(a.data @ b.data)
    if tape is not None:
        def back():
            _accum(a, out.grad @ b.data.T)
            _accum(b, a.data.T @ out.grad)
        tape.record(back)
    return out


def ref_add(a, b, tape=None):
    """a + b, or b a single row broadcast over a's rows."""
    bcast = a.shape != b.shape
    out = Tensor(a.data + b.data)
    if tape is not None:
        def back():
            _accum(a, out.grad)
            _accum(b, out.grad.sum(axis=0, keepdims=True) if bcast else out.grad)
        tape.record(back)
    return out


def ref_sub(a, b, tape=None):
    out = Tensor(a.data - b.data)
    if tape is not None:
        def back():
            _accum(a, out.grad)
            _accum(b, -out.grad)
        tape.record(back)
    return out


def ref_mul(a, b, tape=None):
    out = Tensor(a.data * b.data)
    if tape is not None:
        def back():
            _accum(a, out.grad * b.data)
            _accum(b, out.grad * a.data)
        tape.record(back)
    return out


def ref_div(a, b, tape=None):
    out = Tensor(a.data / b.data)
    if tape is not None:
        def back():
            _accum(a, out.grad / b.data)
            _accum(b, -out.grad * a.data / (b.data * b.data))
        tape.record(back)
    return out


def ref_affine_const(a, mult, shift, tape=None):
    return _unary(a, mult * a.data + shift, lambda out: mult, tape)


def ref_exp(a, tape=None):
    return _unary(a, np.exp(a.data), lambda out: out.data, tape)


def ref_log(a, tape=None):
    return _unary(a, np.log(a.data), lambda out: 1.0 / a.data, tape)


def ref_tanh(a, tape=None):
    return _unary(a, np.tanh(a.data), lambda out: 1.0 - out.data * out.data,
                  tape)


def ref_sigmoid(a, tape=None):
    return _unary(a, 1.0 / (1.0 + np.exp(-a.data)),
                  lambda out: out.data * (1.0 - out.data), tape)


def ref_slice_cols(a, start, stop, tape=None):
    out = Tensor(a.data[:, start:stop].copy())
    if tape is not None:
        def back():
            g = np.zeros_like(a.data)
            g[:, start:stop] = out.grad
            _accum(a, g)
        tape.record(back)
    return out


def ref_sum_all(a, tape=None):
    out = Tensor(a.data.sum())
    if tape is not None:
        tape.record(lambda: _accum(a, np.full_like(a.data, out.grad[0, 0])))
    return out


def ref_lstm_cell(x, h_prev, c_prev, Wx, Wh, b, tape=None):
    H = h_prev.cols
    z = ref_add(ref_add(ref_matmul(x, Wx, tape), ref_matmul(h_prev, Wh, tape),
                        tape), b, tape)
    i = ref_sigmoid(ref_slice_cols(z, 0, H, tape), tape)
    f = ref_sigmoid(ref_slice_cols(z, H, 2 * H, tape), tape)
    g = ref_tanh(ref_slice_cols(z, 2 * H, 3 * H, tape), tape)
    o = ref_sigmoid(ref_slice_cols(z, 3 * H, 4 * H, tape), tape)
    c = ref_add(ref_mul(f, c_prev, tape), ref_mul(i, g, tape), tape)
    h = ref_mul(o, ref_tanh(c, tape), tape)
    return h, c


def ref_nll_loss(raws, truth, tape=None):
    """The loop form: `raws` is a list of t_f (B, 5) Tensors."""
    total = None
    for k, raw in enumerate(raws):
        mux = ref_slice_cols(raw, 0, 1, tape)
        muy = ref_slice_cols(raw, 1, 2, tape)
        lsx = ref_slice_cols(raw, 2, 3, tape)
        lsy = ref_slice_cols(raw, 3, 4, tape)
        rho = ref_affine_const(ref_tanh(ref_slice_cols(raw, 4, 5, tape), tape),
                               M.RHO_MAX, 0.0, tape)
        dx = ref_sub(mux, Tensor(truth[:, k, 0:1]), tape)
        dy = ref_sub(muy, Tensor(truth[:, k, 1:2]), tape)
        nx = ref_div(dx, ref_exp(lsx, tape), tape)
        ny = ref_div(dy, ref_exp(lsy, tape), tape)
        z = ref_sub(ref_add(nk.square(nx, tape), nk.square(ny, tape), tape),
                    ref_affine_const(ref_mul(rho, ref_mul(nx, ny, tape), tape),
                                     2.0, 0.0, tape), tape)
        omr = ref_affine_const(nk.square(rho, tape), -1.0, 1.0, tape)
        step_nll = ref_add(
            ref_add(ref_add(lsx, lsy, tape),
                    ref_affine_const(ref_log(omr, tape), 0.5,
                                     math.log(2.0 * math.pi), tape), tape),
            ref_div(z, ref_affine_const(omr, 2.0, 0.0, tape), tape), tape)
        total = step_nll if total is None else ref_add(total, step_nll, tape)
    return nk.mean_all(ref_affine_const(total, 1.0 / len(raws), 0.0, tape), tape)


# ---------------------------------------------------------------------------
# lstm_seq
# ---------------------------------------------------------------------------

T, B, C, H = 5, 3, 4, 6


def lstm_params(seed, const):
    rng = np.random.default_rng(seed)
    p = ParamSet()
    p.add("Wx", 0.5 * rng.normal(size=(C, 4 * H)))
    p.add("Wh", 0.5 * rng.normal(size=(H, 4 * H)))
    p.add("b", 0.5 * rng.normal(size=(1, 4 * H)))
    p.add("x", rng.normal(size=(B if const else T * B, C)))
    p.add("h0", rng.normal(size=(B, H)))       # nonzero initial state
    p.add("c0", rng.normal(size=(B, H)))
    weights = rng.normal(size=(T * B, H)), rng.normal(size=(B, H))
    return p, weights


def fused_lstm_loss(p, weights, tape):
    xw = nk.linear_fwd(p["Wx"], p["b"], p["x"], tape)
    hs, c = nk.lstm_seq(xw, p["h0"], p["c0"], p["Wh"], T, tape)
    return ref_add(ref_sum_all(ref_mul(hs, Tensor(weights[0]), tape), tape),
                   ref_sum_all(ref_mul(c, Tensor(weights[1]), tape), tape), tape)


def ref_lstm_loss(p, weights, tape, const):
    h, c, total = p["h0"], p["c0"], None
    x_rows = [p["x"]] * T if const else \
        [nk.slice_rows(p["x"], t * B, (t + 1) * B, tape) for t in range(T)]
    for t in range(T):
        h, c = ref_lstm_cell(x_rows[t], h, c, p["Wx"], p["Wh"], p["b"], tape)
        term = ref_sum_all(ref_mul(h, Tensor(weights[0][t * B:(t + 1) * B]),
                                   tape), tape)
        total = term if total is None else ref_add(total, term, tape)
    return ref_add(total, ref_sum_all(ref_mul(c, Tensor(weights[1]), tape),
                                      tape), tape)


def value_and_grads(p, loss_fn):
    tape = Tape()
    loss = loss_fn(tape)
    p.zero_grad()
    tape.backward(loss)
    return loss.item(), {n: p[n].grad.copy() for n in p.names()}


@pytest.mark.parametrize("const", [False, True], ids=["per_step", "constant"])
@pytest.mark.parametrize("seed", range(3))
def test_lstm_seq_matches_reference_cell(seed, const):
    p, weights = lstm_params(seed, const)
    v_fused, g_fused = value_and_grads(
        p, lambda tape: fused_lstm_loss(p, weights, tape))
    v_ref, g_ref = value_and_grads(
        p, lambda tape: ref_lstm_loss(p, weights, tape, const))
    assert v_fused == pytest.approx(v_ref, rel=1e-12, abs=1e-12)
    for name in p.names():
        np.testing.assert_allclose(g_fused[name], g_ref[name], rtol=1e-10,
                                   atol=1e-12, err_msg=name)


def test_lstm_seq_hidden_states_match_reference_cell():
    p, _ = lstm_params(7, const=False)
    xw = nk.linear_fwd(p["Wx"], p["b"], p["x"])
    hs, c = nk.lstm_seq(xw, p["h0"], p["c0"], p["Wh"], T)
    h, c_ref = p["h0"], p["c0"]
    for t in range(T):
        h, c_ref = ref_lstm_cell(Tensor(p["x"].data[t * B:(t + 1) * B]), h,
                                 c_ref, p["Wx"], p["Wh"], p["b"])
        np.testing.assert_allclose(hs.data[t * B:(t + 1) * B], h.data,
                                   rtol=0, atol=1e-12)
    np.testing.assert_allclose(c.data, c_ref.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("const", [False, True], ids=["per_step", "constant"])
def test_lstm_seq_gradient_fd(const):
    p, weights = lstm_params(11, const)
    err = nk.grad_check(lambda tape: fused_lstm_loss(p, weights, tape), p,
                        max_coords=400, seed=1)
    assert err < 1e-4


@pytest.mark.parametrize("gate,col", [("input", 0), ("cell", 2), ("output", 3)])
def test_lstm_seq_nonfinite_names_gate_mid_sequence(gate, col):
    xw = np.zeros((T * B, 4 * H))
    xw[3 * B + 1, col * H + 2] = np.nan          # step 3 only
    zeros = Tensor(np.zeros((B, H)))
    with pytest.raises(NumericError, match=gate):
        nk.lstm_seq(Tensor(xw), zeros, zeros, Tensor(np.zeros((H, 4 * H))), T,
                    Tape())


# ---------------------------------------------------------------------------
# gaussian_nll through model.nll_loss
# ---------------------------------------------------------------------------

TF = 4


def nll_inputs(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(TF, B, 5))
    raw[..., 4] *= 3.0                        # rho well away from zero too
    raw[0, 0, 4] = 25.0                       # tanh saturated: |rho| = RHO_MAX
    truth = rng.normal(scale=2.0, size=(B, TF, 2))
    return raw, truth


@pytest.mark.parametrize("seed", range(3))
def test_nll_matches_reference_loss(seed):
    raw, truth = nll_inputs(seed)
    stacked = Tensor(raw.reshape(TF * B, 5))
    steps = [Tensor(raw[k]) for k in range(TF)]
    tape, ref_tape = Tape(), Tape()
    loss = M.nll_loss(stacked, truth, tape)
    ref = ref_nll_loss(steps, truth, ref_tape)
    assert loss.item() == pytest.approx(ref.item(), rel=1e-12, abs=1e-12)
    tape.backward(loss)
    ref_tape.backward(ref)
    expect = np.stack([s.grad for s in steps]).reshape(TF * B, 5)
    np.testing.assert_allclose(stacked.grad, expect, rtol=1e-10, atol=1e-12)


def test_gaussian_nll_gradient_fd():
    raw, truth = nll_inputs(5)
    raw[0, 0, 4] = 1.5                        # keep central differences usable
    p = ParamSet()
    p.add("raw", raw.reshape(TF * B, 5))
    target = truth.transpose(1, 0, 2).reshape(TF * B, 2)
    err = nk.grad_check(
        lambda tape: nk.gaussian_nll(p["raw"], target, M.RHO_MAX, tape), p)
    assert err < 1e-4


def test_demo_02_autodiff_gradcheck_runs():
    demo = Path(__file__).parents[1] / "demos" / "02_autodiff_gradcheck.py"
    runpy.run_path(str(demo), run_name="__main__")
