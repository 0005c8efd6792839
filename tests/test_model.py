import math
import pickle

import numpy as np
import pytest

from trajpred import model as M
from trajpred import nnkernel as nk
from trajpred.maneuvers import Lateral, Longitudinal, ManeuverLabel
from trajpred.model import ModelConfig, Variant
from trajpred.nnkernel import ParamSet, Tape, Tensor
from trajpred.trackstore import Sample

SMALL = dict(hidden=8, embed=6, t_h=4, t_f=3)


def small_cfg(variant=Variant.M_LSTM):
    return ModelConfig(variant=variant, **SMALL)


def zeroed(params):
    for t in params.params.values():
        t.data[:] = 0.0
    return params


def random_samples(cfg, n, seed=0, scale=5.0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(Sample(
            history=rng.normal(scale=scale, size=(cfg.t_h + 1, 14)),
            future=rng.normal(scale=scale, size=(cfg.t_f, 2)),
            label=ManeuverLabel.from_joint_index(int(rng.integers(0, 6))),
            neighbor_mask=np.ones(6, dtype=bool),
            origin=(0.0, 0.0, 0), vehicle_id=i))
    return out


def test_encode_zero_everything():
    cfg = small_cfg()
    w = zeroed(M.init_trajectory_weights(cfg, 0))
    ctx = M.encode(np.zeros((cfg.t_h + 1, 14)), w, cfg)
    np.testing.assert_array_equal(ctx.data, 0.0)


def test_encode_order_sensitivity():
    cfg = small_cfg()
    w = M.init_trajectory_weights(cfg, 3)
    hist = np.random.default_rng(4).normal(size=(cfg.t_h + 1, 14))
    c1 = M.encode(hist, w, cfg)
    c2 = M.encode(hist[::-1].copy(), w, cfg)
    assert not np.allclose(c1.data, c2.data)


def test_encode_deterministic():
    cfg = small_cfg()
    w = M.init_trajectory_weights(cfg, 3)
    hist = np.random.default_rng(4).normal(size=(cfg.t_h + 1, 14))
    assert np.array_equal(M.encode(hist, w, cfg).data,
                          M.encode(hist, w, cfg).data)


def test_raw_zero_maps_to_standard_gaussian():
    g = M.raw_to_gaussian([0.0, 0.0, 0.0, 0.0, 0.0])
    assert (g.mu_x, g.mu_y, g.sigma_x, g.sigma_y, g.rho) == (0, 0, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("raw", [-50.0, -3.0, 0.0, 3.0, 50.0])
def test_head_validity_at_extremes(raw):
    g = M.raw_to_gaussian([raw] * 5)
    assert g.sigma_x > 0 and g.sigma_y > 0
    assert abs(g.rho) < 1


def test_decode_length_and_maneuver_sensitivity():
    cfg = small_cfg()
    w = M.init_trajectory_weights(cfg, 5)
    ctx = Tensor(np.random.default_rng(6).normal(size=(1, cfg.hidden)))
    lab1 = ManeuverLabel(Lateral.KEEP, Longitudinal.NORMAL)
    lab2 = ManeuverLabel(Lateral.LEFT, Longitudinal.NORMAL)
    steps1 = M.decode(ctx, M.maneuver_onehot(lab1), w, cfg)
    steps2 = M.decode(ctx, M.maneuver_onehot(lab2), w, cfg)
    assert len(steps1) == cfg.t_f
    assert any(s1 != s2 for s1, s2 in zip(steps1, steps2))


def test_decode_rejects_bad_onehot():
    cfg = small_cfg()
    w = M.init_trajectory_weights(cfg, 5)
    ctx = Tensor(np.zeros((1, cfg.hidden)))
    with pytest.raises(ValueError):
        M.decode_raw(ctx, np.array([1.0, 1.0, 0.0, 1.0, 0.0]), w, cfg)


def test_classify_zero_weights_uniform():
    cfg = small_cfg()
    w = zeroed(M.init_classifier_weights(cfg, 0))
    p_lat, p_lon = M.classify(np.zeros((cfg.t_h + 1, 14)), w, cfg)
    np.testing.assert_allclose(p_lat, 1.0 / 3.0)
    np.testing.assert_allclose(p_lon, 0.5)


def test_classify_probability_range_random_weights():
    cfg = small_cfg()
    for seed in range(5):
        w = M.init_classifier_weights(cfg, seed)
        hist = np.random.default_rng(seed).normal(size=(3, cfg.t_h + 1, 14))
        p_lat, p_lon = M.classify(hist, w, cfg)
        for p in (p_lat, p_lon):
            assert (p >= 0).all() and (p <= 1).all()
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_classify_logit_shift_invariance():
    cfg = small_cfg()
    w = M.init_classifier_weights(cfg, 2)
    hist = np.random.default_rng(1).normal(size=(cfg.t_h + 1, 14))
    p1, _ = M.classify(hist, w, cfg)
    w["lat_b"].data += 7.5   # constant shift on one softmax head
    p2, _ = M.classify(hist, w, cfg)
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_predict_multimodal_product_and_normalization():
    cfg = small_cfg()
    m = M.Model.init(cfg, seed=1)
    hist = np.random.default_rng(2).normal(size=(cfg.t_h + 1, 14))
    dist = M.predict_multimodal(hist, m)
    p_lat, p_lon = M.classify(hist, m.cls, cfg)
    probs = dist.probabilities()
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    for mode in dist.modes:
        expect = p_lat[0][int(mode.label.lateral)] * p_lon[0][int(mode.label.longitudinal)]
        assert mode.probability == pytest.approx(expect, abs=1e-12)
        assert len(mode.trajectory) == cfg.t_f


def test_degenerate_classifier_gives_single_mode():
    cfg = small_cfg()
    m = M.Model.init(cfg, seed=1)
    m.cls["lat_b"].data[:] = [1000.0, 0.0, 0.0]
    m.cls["lon_b"].data[:] = [1000.0, 0.0]
    zeroed_cls = m.cls
    for name in ("lat_W", "lon_W"):
        zeroed_cls[name].data[:] = 0.0
    dist = M.predict_multimodal(np.zeros((cfg.t_h + 1, 14)), m)
    probs = dist.probabilities()
    assert probs[0] == pytest.approx(1.0)
    assert probs[1:].max() == pytest.approx(0.0, abs=1e-200)


def nll_of_raw(raw_row, truth_xy):
    raws = Tensor(np.array([raw_row]))
    return M.nll_loss(raws, np.array([[truth_xy]])).item()


def test_nll_standard_normal_at_mean():
    assert nll_of_raw([0, 0, 0, 0, 0], [0.0, 0.0]) == \
        pytest.approx(math.log(2 * math.pi), abs=1e-12)


def test_nll_correlated_at_mean():
    raw_rho = np.arctanh(0.5 / M.RHO_MAX)
    expect = math.log(2 * math.pi * math.sqrt(0.75))
    assert nll_of_raw([0, 0, 0, 0, raw_rho], [0.0, 0.0]) == \
        pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_trajectory_loss_gradient_fd(seed):
    cfg = small_cfg()
    rng = np.random.default_rng(seed)
    hist = rng.normal(scale=3.0, size=(2, cfg.t_h + 1, 14))
    fut = rng.normal(scale=3.0, size=(2, cfg.t_f, 2))
    onehots = np.stack([
        M.maneuver_onehot(ManeuverLabel.from_joint_index(int(rng.integers(6))))
        for _ in range(2)])
    w = M.init_trajectory_weights(cfg, seed)
    err = nk.grad_check(
        lambda tape: M.trajectory_loss(hist, fut, onehots, w, cfg, tape),
        w, max_coords=300, seed=seed)
    assert err < 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_classifier_loss_gradient_fd(seed):
    cfg = small_cfg()
    rng = np.random.default_rng(seed)
    hist = rng.normal(scale=3.0, size=(2, cfg.t_h + 1, 14))
    w = M.init_classifier_weights(cfg, seed)
    err = nk.grad_check(
        lambda tape: M.classifier_loss(hist, [0, 2], [1, 0], w, cfg, tape),
        w, max_coords=300, seed=seed)
    assert err < 1e-4


def test_v_lstm_ignores_neighbors_s_lstm_does_not():
    samples = random_samples(small_cfg(), 4, seed=3)
    perturbed = []
    for s in samples:
        h = s.history.copy()
        h[:, 2:] += 10.0
        perturbed.append(Sample(history=h, future=s.future, label=s.label,
                                neighbor_mask=s.neighbor_mask, origin=s.origin,
                                vehicle_id=s.vehicle_id))
    from trajpred.evaluation import predict_points_model
    for variant, should_change in ((Variant.V_LSTM, False),
                                   (Variant.S_LSTM, True)):
        cfg = small_cfg(variant)
        m = M.Model(cfg=cfg, traj=M.init_trajectory_weights(cfg, 9))
        p1 = predict_points_model(samples, m)
        p2 = predict_points_model(perturbed, m)
        assert np.allclose(p1, p2) == (not should_change)


def test_train_deterministic_bitwise():
    cfg = small_cfg()
    samples = random_samples(cfg, 12, seed=1)
    w1, l1 = M.train_trajectory(samples, cfg, epochs=3, batch=4, seed=5)
    w2, l2 = M.train_trajectory(samples, cfg, epochs=3, batch=4, seed=5)
    assert l1 == l2
    for name in w1.names():
        assert np.array_equal(w1[name].data, w2[name].data)


def test_train_empty_raises():
    with pytest.raises(ValueError):
        M.train_trajectory([], small_cfg())


def test_train_reduces_loss():
    cfg = small_cfg()
    samples = random_samples(cfg, 16, seed=2, scale=1.0)
    _, losses = M.train_trajectory(samples, cfg, epochs=25, batch=16, seed=0)
    assert losses[-1] < losses[0]


def test_classifier_one_class_loss_to_zero():
    cfg = small_cfg()
    samples = random_samples(cfg, 10, seed=4)
    for s in samples:
        s.label = ManeuverLabel(Lateral.KEEP, Longitudinal.NORMAL)
    _, losses = M.train_classifier(samples, cfg, epochs=100, batch=10, seed=0,
                                   lr=0.01)
    assert losses[-1] < 0.05


def test_normalizer_standardizes_and_inverts():
    rng = np.random.default_rng(0)
    hist = rng.normal(loc=30.0, scale=12.0, size=(50, 5, 14))
    fut = rng.normal(loc=55.0, scale=25.0, size=(50, 3, 2))
    norm = M.Normalizer.fit(hist, fut)
    nh = norm.apply_hist(hist)
    np.testing.assert_allclose(nh.reshape(-1, 14).mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(nh.reshape(-1, 14).std(axis=0), 1.0, atol=1e-12)
    nf = norm.apply_fut(fut)
    np.testing.assert_allclose(norm.unapply_means(nf), fut, atol=1e-9)
    g = M.GaussianStep(mu_x=0.5, mu_y=-1.0, sigma_x=0.3, sigma_y=2.0, rho=0.4)
    back = norm.unapply_step(g)
    assert back.rho == g.rho                       # axis scaling preserves rho
    assert back.sigma_x == pytest.approx(0.3 * norm.fut_sd[0])
    assert back.mu_y == pytest.approx(-1.0 * norm.fut_sd[1] + norm.fut_mu[1])


def test_normalizer_constant_channel_stays_finite():
    hist = np.zeros((4, 3, 14))
    fut = np.ones((4, 2, 2))
    norm = M.Normalizer.fit(hist, fut)
    assert np.isfinite(norm.apply_hist(hist)).all()
    np.testing.assert_array_equal(norm.apply_hist(hist), 0.0)


def test_trained_model_checkpoint_keeps_normalizer(tmp_path):
    cfg = small_cfg()
    samples = random_samples(cfg, 8, seed=6)
    m, _ = M.train(samples, cfg, epochs=1, batch=8, seed=0)
    assert m.norm is not None
    path = tmp_path / "m.ckpt"
    m.save(path)
    back = M.Model.load(path)
    assert back.norm is not None
    np.testing.assert_array_equal(back.norm.hist_mu, m.norm.hist_mu)
    hist = samples[0].history
    p1 = M.predict_multimodal(hist, m).modes[0].trajectory[0]
    p2 = M.predict_multimodal(hist, back).modes[0].trajectory[0]
    assert p1 == p2


def test_checkpoint_roundtrip(tmp_path):
    cfg = small_cfg()
    m = M.Model.init(cfg, seed=8)
    path = tmp_path / "model.ckpt"
    m.save(path)
    back = M.Model.load(path)
    assert back.cfg == cfg
    hist = np.random.default_rng(0).normal(size=(cfg.t_h + 1, 14))
    d1 = M.predict_multimodal(hist, m)
    d2 = M.predict_multimodal(hist, back)
    np.testing.assert_array_equal(d1.probabilities(), d2.probabilities())


def test_loaded_model_pickles_without_optimizer_state(tmp_path):
    cfg = small_cfg()
    samples = random_samples(cfg, 8, seed=6)
    m, _ = M.train(samples, cfg, epochs=1, batch=8, seed=0)
    path = tmp_path / "m.ckpt"
    m.save(path)
    back = M.Model.load(path)
    n_bytes = 8 * (back.traj.n_coords() + back.cls.n_coords())
    assert back.traj.m == {} and back.cls.m == {}
    assert len(pickle.dumps(back)) < 1.5 * n_bytes
