import math

import numpy as np
import pytest

from totalcorr.diagnostics import LossProbe, fd_report
from totalcorr.errors import ParameterError, TrainingError
from totalcorr.estimators import _pair_inputs
from totalcorr.nn import (
    AdamState,
    CondGaussianHead,
    Mlp,
    adam_step,
    cond_gaussian_logpdf,
    cond_gaussian_logpdf_backward,
    cond_gaussian_logpdf_matrix,
    pack_parameters,
)


def constant_head(u_dim=1, v_dim=1):
    """Heads with all-zero parameters: mu = 0, logvar = 0 regardless of u."""
    zeros = lambda: Mlp(np.zeros((3, u_dim)), np.zeros(3), np.zeros((v_dim, 3)), np.zeros(v_dim))
    return CondGaussianHead(zeros(), zeros())


class TestMlpForward:
    def test_zero_parameters_give_zero_output(self):
        net = Mlp(np.zeros((4, 2)), np.zeros(4), np.zeros((3, 4)), np.zeros(3))
        out, _ = net.forward(np.random.default_rng(0).standard_normal((5, 2)))
        assert np.array_equal(out, np.zeros((5, 3)))

    def test_relu_definition_with_identity_weights(self):
        net = Mlp(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        out, _ = net.forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, np.array([[0.0, 2.0]]))

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        net = Mlp.initialize(3, 20, 2, rng)
        out, _ = net.forward(rng.standard_normal((7, 3)))
        assert out.shape == (7, 2)

    def test_input_width_mismatch(self):
        net = Mlp.initialize(3, 4, 1, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            net.forward(np.zeros((2, 5)))

    @pytest.mark.parametrize("c", [2.0, 0.5, 4.0, 0.25])
    def test_positive_homogeneity_in_w2(self, c):
        # power-of-two scales keep the float arithmetic exact
        rng = np.random.default_rng(2)
        net = Mlp.initialize(3, 8, 2, rng)
        x = rng.standard_normal((6, 3))
        base, _ = net.forward(x)
        scaled = Mlp(net.w1, net.b1, c * net.w2, net.b2)
        out, _ = scaled.forward(x)
        assert np.array_equal(out, c * base)

    def test_default_hidden_width(self):
        net = Mlp.initialize(4, 20, 1, np.random.default_rng(0))
        assert net.hidden_dim == 20

    def test_seeded_initialization_is_reproducible(self):
        a = Mlp.initialize(4, 20, 1, np.random.default_rng(42))
        b = Mlp.initialize(4, 20, 1, np.random.default_rng(42))
        for k in a.parameters():
            assert np.array_equal(a.parameters()[k], b.parameters()[k])


class TestMlpBackward:
    def test_zero_output_grads_give_zero_grads(self):
        rng = np.random.default_rng(3)
        net = Mlp.initialize(2, 5, 3, rng)
        out, cache = net.forward(rng.standard_normal((4, 2)))
        grads = net.backward(cache, np.zeros_like(out))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_linear_region_matches_hand_gradient(self):
        # biases large enough that every preactivation is positive
        net = Mlp(
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            np.array([10.0, 10.0]),
            np.array([[1.0, -1.0]]),
            np.array([0.0]),
        )
        x = np.array([[0.5, -0.25]])
        out, cache = net.forward(x)
        assert out[0, 0] == -0.5
        grads = net.backward(cache, np.array([[1.0]]))
        assert np.array_equal(grads["w2"], np.array([[10.0, 10.5]]))
        assert np.array_equal(grads["b2"], np.array([1.0]))
        assert np.array_equal(grads["w1"], np.array([[0.5, -0.25], [-0.5, 0.25]]))
        assert np.array_equal(grads["b1"], np.array([1.0, -1.0]))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        net = Mlp.initialize(3, 5, 1, rng)
        x = rng.standard_normal((6, 3))
        weights = rng.standard_normal((6, 1))

        def loss_grad_sig():
            out, cache = net.forward(x)
            grads = net.backward(cache, weights)
            return float((out * weights).sum()), grads, np.packbits(cache.hidden > 0).tobytes()

        assert fd_report(LossProbe("mlp", net.parameters(), loss_grad_sig)).worst_raw < 1e-4

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(14)
        net = Mlp.initialize(2, 4, 1, rng)
        _, stale = net.forward(rng.standard_normal((3, 2)))
        net.forward(rng.standard_normal((3, 2)))
        with pytest.raises(ParameterError, match="stale"):
            net.backward(stale, np.zeros((3, 1)))

    def test_mismatched_cache_rejected(self):
        rng = np.random.default_rng(5)
        net = Mlp.initialize(2, 4, 1, rng)
        other = Mlp.initialize(3, 4, 1, rng)
        _, cache = other.forward(rng.standard_normal((2, 3)))
        with pytest.raises(ParameterError):
            net.backward(cache, np.zeros((2, 1)))


def plain_mlp(net, x, dout):
    """Row-major numpy forward and hand gradients of the same MLP."""
    pre = x @ net.w1.T + net.b1
    hidden = np.maximum(pre, 0.0)
    out = hidden @ net.w2.T + net.b2
    dpre = (dout @ net.w2) * (pre > 0.0)
    grads = {
        "w1": dpre.T @ x,
        "b1": dpre.sum(axis=0),
        "w2": dout.T @ hidden,
        "b2": dout.sum(axis=0),
    }
    return out, grads


def assert_rel_close(got, want, rtol=1e-12):
    """max |got - want| <= rtol * max |want|, over the whole array."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestMlpAgainstPlainNumpy:
    @pytest.mark.parametrize("out_dim", [1, 3])
    @pytest.mark.parametrize("layout", ["row-major", "pair-grid view"])
    def test_forward_and_backward(self, out_dim, layout):
        rng = np.random.default_rng(15)
        net = Mlp.initialize(4, 20, out_dim, rng)
        net.b1[:] = 0.3 * rng.standard_normal(20)
        net.b2[:] = rng.standard_normal(out_dim)
        if layout == "row-major":
            x = rng.standard_normal((4096, 4))
        else:
            # the (N*N, d) transpose of the feature-major grid pair_scores builds
            u, v = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
            x = _pair_inputs(u, v, None).T
            assert x.T.flags.c_contiguous
        dout = rng.standard_normal((4096, out_dim))
        want_out, want_grads = plain_mlp(net, x, dout)
        out, cache = net.forward(x)
        assert_rel_close(out, want_out)
        grads = net.backward(cache, dout)
        assert list(grads) == ["w1", "b1", "w2", "b2"]
        for name, want in want_grads.items():
            assert_rel_close(grads[name], want)


class TestCondGaussian:
    def test_standard_normal_at_mode(self):
        lp, _ = cond_gaussian_logpdf(constant_head(), np.zeros((1, 1)), np.zeros((1, 1)))
        assert lp[0] == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_standard_normal_one_sigma_out(self):
        lp, _ = cond_gaussian_logpdf(constant_head(), np.zeros((1, 1)), np.ones((1, 1)))
        assert lp[0] == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        head = CondGaussianHead.initialize(2, 3, 4, rng)
        u = rng.standard_normal((5, 2))
        v = rng.standard_normal((5, 3))
        weights = rng.standard_normal(5)

        def loss_grad_sig():
            lp, cache = cond_gaussian_logpdf(head, u, v)
            grads = cond_gaussian_logpdf_backward(head, cache, weights)
            return float((lp * weights).sum()), grads, b""

        assert fd_report(LossProbe("head", head.parameters(), loss_grad_sig)).worst_raw < 1e-4

    def test_logvar_clamp_bounds_density(self):
        # a huge log-variance bias must clamp at 10 instead of exploding
        big = Mlp(np.zeros((3, 1)), np.zeros(3), np.zeros((1, 3)), np.array([1e4]))
        zero = Mlp(np.zeros((3, 1)), np.zeros(3), np.zeros((1, 3)), np.zeros(1))
        head = CondGaussianHead(zero, big)
        lp, _ = cond_gaussian_logpdf(head, np.zeros((1, 1)), np.zeros((1, 1)))
        assert lp[0] == pytest.approx(-0.5 * math.log(2 * math.pi) - 5.0, abs=1e-12)

    def test_clamped_logvar_has_zero_gradient(self):
        big = Mlp(np.zeros((3, 1)), np.zeros(3), np.zeros((1, 3)), np.array([1e4]))
        zero = Mlp(np.zeros((3, 1)), np.zeros(3), np.zeros((1, 3)), np.zeros(1))
        head = CondGaussianHead(zero, big)
        _, cache = cond_gaussian_logpdf(head, np.zeros((2, 1)), np.ones((2, 1)))
        grads = cond_gaussian_logpdf_backward(head, cache, np.ones(2))
        assert np.array_equal(grads["logvar.b2"], np.zeros(1))

    def test_pairwise_matrix_matches_rowwise(self):
        rng = np.random.default_rng(7)
        head = CondGaussianHead.initialize(2, 2, 4, rng)
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((6, 2))
        mat = cond_gaussian_logpdf_matrix(cond_gaussian_logpdf(head, u, v)[1])
        for i in range(6):
            for j in range(6):
                lp, _ = cond_gaussian_logpdf(head, u[i : i + 1], v[j : j + 1])
                assert mat[i, j] == pytest.approx(lp[0], rel=1e-10, abs=1e-10)


class TestPackParameters:
    def test_arrays_become_views_in_parameters_order(self):
        rng = np.random.default_rng(12)
        nets = (Mlp.initialize(2, 3, 1, rng), Mlp.initialize(2, 3, 2, rng))
        before = [p.copy() for net in nets for p in net.parameters().values()]
        theta = pack_parameters(nets)
        assert np.array_equal(theta, np.concatenate([p.ravel() for p in before]))
        after = [p for net in nets for p in net.parameters().values()]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        assert all(np.shares_memory(a, theta) for a in after)
        theta[:] = 0.0
        assert all(not p.any() for p in after)


class TestAdam:
    def test_zero_gradient_is_identity_but_counts(self):
        theta = np.array([1.0, -2.0])
        state = AdamState.for_params(theta)
        adam_step(theta, np.zeros(2), state)
        assert np.array_equal(theta, np.array([1.0, -2.0]))
        assert state.step_count == 1

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(4)
        before = theta.copy()
        state = AdamState.for_params(theta, lr=0.0)
        adam_step(theta, rng.standard_normal(4), state)
        assert np.array_equal(theta, before)

    @pytest.mark.parametrize("g", [1.0, -0.5, 3.7])
    def test_single_step_hand_formula(self, g):
        # first step with constant gradient: delta = -lr g / (|g| + eps)
        theta = np.array([0.25])
        state = AdamState.for_params(theta, lr=1e-4)
        adam_step(theta, np.array([g]), state)
        delta = theta[0] - 0.25
        assert delta == pytest.approx(-1e-4 * g / (abs(g) + 1e-8), rel=1e-12)

    def test_quadratic_bowl_convergence(self):
        # frozen from the convergence oracle: |theta| collapses far below 1e-2
        theta = np.array([1.0])
        state = AdamState.for_params(theta, lr=0.01)
        for _ in range(5000):
            adam_step(theta, 2.0 * theta, state)
        assert abs(theta[0]) < 1e-2

    def test_non_finite_gradient_raises_with_step(self):
        theta = np.array([1.0, 2.0])
        state = AdamState.for_params(theta)
        adam_step(theta, np.array([0.5, 0.5]), state)
        with pytest.raises(TrainingError, match="step=2"):
            adam_step(theta, np.array([0.5, math.nan]), state)

    def test_gradient_shape_mismatch_rejected(self):
        theta = np.zeros(3)
        with pytest.raises(ParameterError):
            adam_step(theta, np.zeros(2), AdamState.for_params(theta))

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(10)
            theta = rng.standard_normal(6)
            state = AdamState.for_params(theta, lr=1e-3)
            for _ in range(50):
                adam_step(theta, rng.standard_normal(6), state)
            return theta

        assert np.array_equal(run(), run())


class TestGradientCheck:
    def test_linear_loss_is_near_exact(self):
        rng = np.random.default_rng(11)
        params = {"w": rng.standard_normal(5)}
        coef = rng.standard_normal(5)

        def loss_grad_sig():
            return float(params["w"] @ coef), {"w": coef}, b""

        assert fd_report(LossProbe("linear", params, loss_grad_sig)).worst_raw < 1e-8

    def test_detects_a_corrupted_gradient(self):
        params = {"w": np.array([0.3, -0.7])}

        def loss_grad_sig():
            w = params["w"]
            return float((w * w).sum()), {"w": 2.5 * w}, b""  # wrong scale

        report = fd_report(LossProbe("quadratic", params, loss_grad_sig))
        assert report.worst_checked > 1e-2
