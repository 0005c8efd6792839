import numpy as np
import pytest

from trajpred import nnkernel as nk
from trajpred.errors import DimensionError, NumericError
from trajpred.nnkernel import ParamSet, Tape, Tensor


def rand_params(seed, shapes, scale=1.0):
    rng = np.random.default_rng(seed)
    p = ParamSet()
    for name, shape in shapes.items():
        p.add(name, scale * rng.normal(size=shape))
    return p


def test_linear_identity():
    W = Tensor(np.eye(3))
    b = Tensor(np.zeros((1, 3)))
    x = Tensor([[1.0, -2.0, 3.0]])
    y = nk.linear_fwd(W, b, x)
    np.testing.assert_array_equal(y.data, x.data)


def test_linear_shape_mismatch():
    with pytest.raises(DimensionError):
        nk.linear_fwd(Tensor(np.eye(3)), Tensor(np.zeros((1, 3))),
                      Tensor(np.zeros((1, 4))))


def test_leaky_relu_values():
    y = nk.leaky_relu(Tensor([[-1.0, 2.5, 0.0]]))
    np.testing.assert_allclose(y.data, [[-0.1, 2.5, 0.0]])


def test_lstm_zero_weights_zero_state():
    H = 4
    zeros = lambda *s: Tensor(np.zeros(s))
    h, c = nk.lstm_cell(zeros(1, 3), zeros(1, H), zeros(1, H),
                        zeros(3, 4 * H), zeros(H, 4 * H), zeros(1, 4 * H))
    np.testing.assert_array_equal(h.data, 0.0)
    np.testing.assert_array_equal(c.data, 0.0)


def test_lstm_saturated_forget_keeps_cell():
    H = 3
    b = np.zeros((1, 4 * H))
    b[0, 0:H] = -100.0       # input gate ~ 0
    b[0, H:2 * H] = 100.0    # forget gate ~ 1
    c_prev = Tensor([[0.3, -0.7, 1.2]])
    h, c = nk.lstm_cell(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, H))),
                        c_prev, Tensor(np.zeros((2, 4 * H))),
                        Tensor(np.zeros((H, 4 * H))), Tensor(b))
    np.testing.assert_allclose(c.data, c_prev.data, atol=1e-12)


def test_lstm_nonfinite_names_gate():
    H = 2
    b = np.zeros((1, 4 * H))
    b[0, H] = np.inf
    with pytest.raises(NumericError, match="forget"):
        nk.lstm_cell(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, H))),
                     Tensor(np.zeros((1, H))), Tensor(np.zeros((2, 4 * H))),
                     Tensor(np.zeros((H, 4 * H))), Tensor(b))


def test_softmax_xent_uniform():
    loss = nk.softmax_xent(Tensor([[0.0, 0.0, 0.0]]), [1])
    assert loss.item() == pytest.approx(np.log(3.0), abs=1e-12)


def test_softmax_xent_stability():
    loss = nk.softmax_xent(Tensor([[1000.0, 0.0]]), [0])
    assert 0.0 <= loss.item() < 1e-12


def test_softmax_xent_target_out_of_range():
    with pytest.raises(IndexError):
        nk.softmax_xent(Tensor([[0.0, 0.0]]), [2])


def test_softmax_xent_gradient_fd():
    rng = np.random.default_rng(3)
    p = ParamSet()
    p.add("logits", rng.normal(size=(4, 5)))
    targets = rng.integers(0, 5, size=4)
    err = nk.grad_check(lambda tape: nk.softmax_xent(p["logits"], targets, tape),
                        p, eps=1e-6)
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_lstm_cell_gradient_fd(seed):
    H, C, B = 5, 3, 2
    # modest scale keeps gates out of saturation, where gradients shrink
    # below the resolution of central differences at eps=1e-5
    p = rand_params(seed, {"Wx": (C, 4 * H), "Wh": (H, 4 * H), "b": (1, 4 * H),
                           "x": (B, C), "h0": (B, H), "c0": (B, H)}, scale=0.5)

    def loss_fn(tape):
        h, c = nk.lstm_cell(p["x"], p["h0"], p["c0"], p["Wx"], p["Wh"],
                            p["b"], tape)
        return nk.mean_all(nk.square(nk.add(h, c, tape), tape), tape)

    assert nk.grad_check(loss_fn, p, seed=seed) < 1e-4


@pytest.mark.parametrize("seed", range(20))
def test_primitive_chain_gradient_fd(seed):
    # exercises linear_fwd, leaky_relu, add, square, mean_all
    p = rand_params(seed, {"A": (3, 4), "B": (4, 2), "b": (1, 2), "x": (3, 2)})

    def loss_fn(tape):
        y = nk.leaky_relu(nk.linear_fwd(p["B"], p["b"], p["A"], tape), 0.1, tape)
        return nk.mean_all(nk.square(nk.add(y, p["x"], tape), tape), tape)

    assert nk.grad_check(loss_fn, p, seed=seed) < 1e-4


def test_concat_slice_gradient_fd():
    p = rand_params(11, {"a": (2, 3), "b": (2, 2)})

    def loss_fn(tape):
        cat = nk.concat_cols([p["a"], p["b"]], tape)
        return nk.mean_all(nk.square(nk.slice_rows(cat, 1, 2, tape), tape), tape)

    assert nk.grad_check(loss_fn, p) < 1e-6


def test_forward_deterministic_replay():
    p = rand_params(5, {"W": (4, 4), "x": (2, 4), "b": (1, 4)})
    out1 = nk.leaky_relu(nk.linear_fwd(p["W"], p["b"], p["x"], Tape()), 0.1, Tape())
    out2 = nk.leaky_relu(nk.linear_fwd(p["W"], p["b"], p["x"], Tape()), 0.1, Tape())
    assert np.array_equal(out1.data, out2.data)


def test_adam_first_step_magnitude():
    p = ParamSet()
    p.add("w", [[2.0]])
    p["w"].grad = np.array([[4.0]])
    nk.adam_step(p, lr=0.001)
    # after bias correction m_hat/sqrt(v_hat) = sign(g), so |update| ~ lr
    assert p["w"].data[0, 0] == pytest.approx(2.0 - 0.001, abs=1e-6)
    assert p.step_count == 1


def test_adam_zero_gradient_keeps_params():
    p = ParamSet()
    p.add("w", [[1.5, -2.0]])
    p["w"].grad = np.zeros((1, 2))
    before = p["w"].data.copy()
    nk.adam_step(p)
    np.testing.assert_array_equal(p["w"].data, before)


def test_adam_descends_quadratic():
    p = ParamSet()
    p.add("w", [[1.0]])
    prev = 1.0
    for _ in range(100):
        p["w"].grad = 2.0 * p["w"].data
        nk.adam_step(p, lr=0.01)
        cur = abs(p["w"].data[0, 0])
        assert cur < prev
        prev = cur
    assert prev < 0.9


def test_adam_nonfinite_gradient_skips_update():
    p = ParamSet()
    p.add("w", [[1.0]])
    p["w"].grad = np.array([[np.nan]])
    before = p["w"].data.copy()
    with pytest.raises(NumericError):
        nk.adam_step(p)
    np.testing.assert_array_equal(p["w"].data, before)
    assert p.step_count == 0


def test_grad_check_quadratic_tight():
    p = rand_params(7, {"W": (3, 3), "b": (1, 3)})
    x = np.random.default_rng(8).normal(size=(4, 3))

    def loss_fn(tape):
        y = nk.linear_fwd(p["W"], p["b"], Tensor(x), tape)
        return nk.mean_all(nk.square(y, tape), tape)

    assert nk.grad_check(loss_fn, p, eps=1e-5) < 1e-8


def test_grad_check_empty_paramset():
    p = ParamSet()
    assert nk.grad_check(lambda tape: Tensor([[1.0]]), p) == 0.0


def test_checkpoint_roundtrip(tmp_path):
    p = rand_params(9, {"layer/W": (3, 5), "layer/b": (1, 5)})
    path = tmp_path / "ck.bin"
    nk.save_checkpoint(path, p, {"hidden": 128, "variant": "m_lstm"})
    loaded, hyper = nk.load_checkpoint(path)
    assert hyper == {"hidden": 128, "variant": "m_lstm"}
    assert loaded.names() == p.names()
    for name in p.names():
        np.testing.assert_array_equal(loaded[name].data, p[name].data)


def test_lstm_init_forget_bias():
    Wx, Wh, b = nk.lstm_init(np.random.default_rng(0), 4, 8)
    np.testing.assert_array_equal(b[0, 8:16], 1.0)
    assert np.abs(Wx).max() <= 1.0 / np.sqrt(12)


def test_adam_state_created_on_first_update(tmp_path):
    p = ParamSet()
    p.add("w", [[1.0, 2.0]])
    assert p.m == {} and p.v == {}
    assert p.copy().m == {}
    p["w"].grad = np.array([[0.5, -1.0]])
    nk.adam_step(p)
    assert p.m["w"].shape == p.v["w"].shape == (1, 2)
    c = p.copy()
    np.testing.assert_array_equal(c.v["w"], p.v["w"])
    assert c.m["w"] is not p.m["w"]
    nk.save_checkpoint(tmp_path / "ck.bin", p, {})
    loaded, _ = nk.load_checkpoint(tmp_path / "ck.bin")
    assert loaded.m == {} and loaded.v == {}
