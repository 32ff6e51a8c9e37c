import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totalcorr.diagnostics import LossProbe, fd_report
from totalcorr.errors import ParameterError, TrainingError
from totalcorr.estimators import (
    LOWER_BOUNDS,
    MiEstimatorKind,
    club_bound,
    create_term_estimator,
    pair_scores,
    train_step,
)
from totalcorr.nn import (
    AdamState,
    Mlp,
    MlpScratch,
    GaussianHeads,
    adam_step,
    adam_update,
    cond_gaussian_logpdf,
    cond_gaussian_logpdf_matrix,
    pack_parameters,
)


def pack(w1, b1, w2, b2):
    """One net's arrays in theta's layout: [w1 | b1] row by row, w2, b2."""
    return np.concatenate([np.column_stack([w1, b1]).ravel(), w2.ravel(), b2])


def head_forward(head, u, v):
    """The cache of the one-head pass of ``head`` on the batch (u, v)."""
    return GaussianHeads.of_pair(head).forward(np.hstack([u, v]))


def logpdf_rows(head, u, v):
    return cond_gaussian_logpdf(head_forward(head, u, v))[0]


def constant_head(u_dim=1, v_dim=1, logvar_bias=0.0):
    """A head with all-zero weights: mu = 0 and logvar = logvar_bias regardless of u."""
    return Mlp(
        np.zeros((6, u_dim)), np.zeros(6), np.zeros((2 * v_dim, 3)),
        np.repeat([0.0, logvar_bias], v_dim), groups=2,
    )


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
        assert np.array_equal(a.theta, b.theta)


class TestMlpBackward:
    def test_zero_output_grads_give_zero_grads(self):
        rng = np.random.default_rng(3)
        net = Mlp.initialize(2, 5, 3, rng)
        out, cache = net.forward(rng.standard_normal((4, 2)))
        net.grad[:] = np.nan
        net.backward(cache, np.zeros_like(out))
        assert np.array_equal(net.grad, np.zeros_like(net.grad))

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
        net.backward(cache, np.array([[1.0]]))
        assert np.array_equal(net.dw2, np.array([[10.0, 10.5]]))
        assert np.array_equal(net.db2, np.array([1.0]))
        assert np.array_equal(net.dw1b1[:, :-1], np.array([[0.5, -0.25], [-0.5, 0.25]]))
        assert np.array_equal(net.dw1b1[:, -1], np.array([1.0, -1.0]))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        net = Mlp.initialize(3, 5, 1, rng)
        x = rng.standard_normal((6, 3))
        weights = rng.standard_normal((6, 1))

        def loss_grad_sig():
            out, cache = net.forward(x)
            sig = np.packbits(cache.hidden > 0).tobytes()
            net.backward(cache, weights)
            return float((out * weights).sum()), net.grad, sig

        assert fd_report(LossProbe("mlp", net.theta, loss_grad_sig)).worst_raw < 1e-4

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

    def test_backward_consumes_its_cache(self):
        rng = np.random.default_rng(20)
        net = Mlp.initialize(2, 4, 1, rng)
        _, cache = net.forward(rng.standard_normal((3, 2)))
        net.backward(cache, np.ones((3, 1)))
        with pytest.raises(ParameterError, match="stale"):
            net.backward(cache, np.ones((3, 1)))

    def test_sibling_forward_on_a_shared_scratch_makes_the_cache_stale(self):
        rng = np.random.default_rng(21)
        net, sibling = Mlp.initialize(2, 4, 1, rng), Mlp.initialize(3, 4, 1, rng)
        sibling.scratch = net.scratch
        _, cache = net.forward(rng.standard_normal((3, 2)))
        sibling.forward(rng.standard_normal((3, 3)))
        with pytest.raises(ParameterError, match="stale"):
            net.backward(cache, np.zeros((3, 1)))

    def test_another_nets_forward_leaves_a_private_cache_valid(self):
        rng = np.random.default_rng(21)
        net, other = Mlp.initialize(2, 4, 1, rng), Mlp.initialize(2, 4, 1, rng)
        _, cache = net.forward(rng.standard_normal((3, 2)))
        other.forward(rng.standard_normal((3, 2)))
        net.backward(cache, np.zeros((3, 1)))

    @pytest.mark.parametrize("out_dim", [1, 3])
    def test_backward_writes_the_relu_mask_over_hidden(self, out_dim):
        rng = np.random.default_rng(22)
        net = Mlp.initialize(3, 6, out_dim, rng)
        _, cache = net.forward(rng.standard_normal((10, 3)))
        before = cache.hidden.copy()
        assert (before == 0).any() and (before > 0).any()
        net.backward(cache, rng.standard_normal((10, out_dim)))
        assert np.array_equal(cache.hidden, (before > 0).astype(float))

    @settings(max_examples=100, deadline=None)
    @given(
        in_dim=st.integers(1, 4),
        hidden_dim=st.integers(1, 8),
        rows=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        grid=st.booleans(),
    )
    def test_output_weight_gradient_from_the_first_layer_product(
        self, in_dim, hidden_dim, rows, seed, grid
    ):
        # dw2 comes from w1b1 * G, not from the activations: compare it with
        # dout^T relu^T, relu read before backward. With grid=True every
        # weight, bias and input is a small integer, so many pre-activations
        # are exactly 0, where the mask and relu are both 0
        rng = np.random.default_rng(seed)
        draw = (lambda shape: rng.integers(-2, 3, shape).astype(float)) if grid else rng.standard_normal
        net = Mlp(draw((hidden_dim, in_dim)), draw(hidden_dim), draw((1, hidden_dim)), draw(1))
        x, dout = draw((rows, in_dim)), rng.standard_normal((rows, 1))
        _, cache = net.forward(x)
        relu, x_aug = cache.hidden.copy(), cache.x.copy()
        net.backward(cache, dout)
        want = dout.T @ relu.T
        # rounding is relative to the sum of magnitudes, which cancellation
        # in dout can make much larger than |want|
        scale = np.abs(dout).T @ ((relu > 0) * (np.abs(net.w1b1) @ np.abs(x_aug))).T
        assert np.all(np.abs(net.dw2 - want) <= 1e-12 * scale)


class TestMlpGroups:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows", [2, 17, 64])
    @pytest.mark.parametrize("out_dim", [1, 2, 3])
    @pytest.mark.parametrize("in_dim", [1, 2, 3])
    def test_groups_give_the_bytes_of_separate_nets(self, in_dim, out_dim, rows, dtype):
        # group g of one net is the net of group g's rows of w1, b1, w2 and
        # b2, with a scratch of its own: outputs, masks and gradients agree
        # bit for bit, in either scratch dtype
        rng = np.random.default_rng(in_dim * 100 + out_dim * 10 + rows)
        net = Mlp.initialize(in_dim, 5, out_dim, rng, groups=2)
        net.b1[:], net.b2[:] = rng.standard_normal(10), rng.standard_normal(2 * out_dim)
        parts = [Mlp(*group) for group in groups_of(net, net.theta)]
        for n in (net, *parts):
            n.scratch = MlpScratch(dtype=dtype)
        x, dout = rng.standard_normal((rows, in_dim)), rng.standard_normal((rows, 2 * out_dim))
        out, cache = net.forward(x)
        net.backward(cache, dout)
        for g, part in enumerate(parts):
            cols = slice(g * out_dim, (g + 1) * out_dim)
            part_out, part_cache = part.forward(x)
            assert part_out.tobytes() == np.ascontiguousarray(out[:, cols]).tobytes()
            part.backward(part_cache, np.ascontiguousarray(dout[:, cols]))
            assert part_cache.hidden.tobytes() == cache.hidden[g * 5 : (g + 1) * 5].tobytes()
            for got, want in zip(groups_of(net, net.grad)[g], split(part, part.grad)):
                assert got.tobytes() == want.tobytes()

    def test_initialize_draws_group_by_group(self):
        # each group's w1, then its w2, from the caller's stream
        net = Mlp.initialize(3, 4, 2, np.random.default_rng(40), groups=2)
        rng = np.random.default_rng(40)
        parts = [Mlp.initialize(3, 4, 2, rng) for _ in range(2)]
        assert net.theta.tobytes() == pack(
            *(np.concatenate([getattr(p, name) for p in parts]) for name in ("w1", "b1", "w2", "b2"))
        ).tobytes()

    @pytest.mark.parametrize("name", ["in_dim", "hidden_dim", "out_dim", "groups"])
    @pytest.mark.parametrize("value", [2.5, True, "4", 0])
    def test_initialize_takes_integer_widths_only(self, name, value):
        widths = dict(in_dim=2, hidden_dim=3, out_dim=1, groups=1)
        rng = np.random.default_rng(41)
        with pytest.raises(ParameterError, match=re.escape(f"{name} must be a positive integer, got {value!r}")):
            Mlp.initialize(rng=rng, **{**widths, name: value})
        net = Mlp.initialize(rng=rng, **{**widths, name: np.int64(2)})
        assert (net.in_dim, net.hidden_dim, net.out_dim, net.groups)[list(widths).index(name)] == 2

    @pytest.mark.parametrize(
        "w1_rows, w2_rows, message",
        [(5, 2, "hidden dimensions of w1 and w2 disagree"), (6, 3, "w2 has 3 rows, not a multiple of 2 groups")],
    )
    def test_group_blocks_checked(self, w1_rows, w2_rows, message):
        with pytest.raises(ParameterError, match=message):
            Mlp(np.zeros((w1_rows, 2)), np.zeros(w1_rows), np.zeros((w2_rows, 3)), np.zeros(w2_rows), groups=2)


class TestFloat32Scratch:
    def test_pair_grid_in_the_buffer_is_not_copied(self):
        # the grid is cast to float32 as pair_scores writes it, and forward
        # reads it there: nothing on the way is as large as a float64 copy
        rng = np.random.default_rng(30)
        n, net = 64, Mlp.initialize(4, 20, 1, rng)
        net.scratch = MlpScratch(dtype=np.float32)
        u, v = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        pair_scores(net, u, v)  # the buffers exist from here on
        tracemalloc.start()
        try:
            scores, cache = pair_scores(net, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * net.in_dim * np.dtype(np.float64).itemsize
        assert np.shares_memory(cache.x, net.input_buffer(n * n))
        assert cache.x.dtype == cache.hidden.dtype == np.float32
        assert scores.dtype == np.float64
        pairs = np.concatenate([np.repeat(u, n, axis=0), np.tile(v, (n, 1))], axis=1)
        assert np.array_equal(cache.x[:-1].T, pairs.astype(np.float32))

    def test_float64_and_list_batches_are_cast(self):
        rng = np.random.default_rng(31)
        net = Mlp.initialize(3, 8, 2, rng)
        net.scratch = MlpScratch(dtype=np.float32)
        x = rng.standard_normal((7, 3))
        want, _ = Mlp(net.w1, net.b1, net.w2, net.b2).forward(x)
        for batch in (x, x.tolist()):
            out, cache = net.forward(batch)
            assert out.dtype == np.float64
            assert np.array_equal(cache.x[:-1].T, x.astype(np.float32))
            np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)


def plain_mlp(net, x, dout):
    """Row-major numpy forward and hand gradients of the same MLP, its groups
    (one unless ``net.groups`` says otherwise) as one net whose output
    weights are block-diagonal."""
    groups = getattr(net, "groups", 1)
    h, o = net.w2.shape[1], net.w2.shape[0] // groups
    blocks = [(slice(g * o, (g + 1) * o), slice(g * h, (g + 1) * h)) for g in range(groups)]
    w2 = np.zeros((groups * o, groups * h))
    for rows, cols in blocks:
        w2[rows, cols] = net.w2[rows]
    pre = x @ net.w1.T + net.b1
    hidden = np.maximum(pre, 0.0)
    out = hidden @ w2.T + net.b2
    dpre = (dout @ w2) * (pre > 0.0)
    dw2 = dout.T @ hidden
    dw2 = np.concatenate([dw2[rows, cols] for rows, cols in blocks])
    grad = pack(dpre.T @ x, dpre.sum(axis=0), dw2, dout.sum(axis=0))
    return out, grad


def split(net, vec):
    """w1, b1, w2 and b2 of one net's vector in theta's layout."""
    a = net.w1b1.size
    b = a + net.w2.size
    block = vec[:a].reshape(net.w1b1.shape)
    return block[:, :-1], block[:, -1], vec[a:b].reshape(net.w2.shape), vec[b:]


def groups_of(net, vec):
    """(w1, b1, w2, b2) of each group of one net's vector in theta's layout."""
    h, o = net.hidden_dim, net.out_dim
    return [
        tuple(part[g * size : (g + 1) * size] for part, size in zip(split(net, vec), (h, h, o, o)))
        for g in range(net.groups)
    ]


def assert_rel_close(got, want, rtol=1e-12):
    """max |got - want| <= rtol * max |want|, over the whole array."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestMlpAgainstPlainNumpy:
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("out_dim", [1, 3])
    @pytest.mark.parametrize("layout", ["row-major", "pair-grid view"])
    def test_forward_and_backward(self, out_dim, layout, groups):
        rng = np.random.default_rng(15)
        net = Mlp.initialize(4, 20, out_dim, rng, groups=groups)
        net.b1[:] = 0.3 * rng.standard_normal(groups * 20)
        net.b2[:] = rng.standard_normal(groups * out_dim)
        if layout == "row-major":
            x = rng.standard_normal((4096, 4))
        else:
            # the pair grid as pair_scores writes it: feature-major, straight
            # into the net's input buffer, which forward reads without a copy
            u, v = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
            x = net.input_buffer(4096)
            assert x.T.flags.c_contiguous
            grid = x.T.reshape(4, 64, 64)
            grid[:2] = u.T[:, :, None]
            grid[2:] = v.T[:, None, :]
        dout = rng.standard_normal((4096, groups * out_dim))
        want_out, want_grad = plain_mlp(net, x, dout)
        out, cache = net.forward(x)
        assert_rel_close(out, want_out)
        net.backward(cache, dout)
        for got_group, want_group in zip(groups_of(net, net.grad), groups_of(net, want_grad)):
            for got, want in zip(got_group, want_group):
                assert_rel_close(got, want)


class TestGradientLayout:
    # InfoNCE is left out: its output-bias gradient is zero in exact
    # arithmetic, so a relative tolerance would compare rounding noise
    @pytest.mark.parametrize(
        "kind", [MiEstimatorKind.MINE, MiEstimatorKind.NWJ, MiEstimatorKind.CLUB]
    )
    def test_grad_after_train_step_matches_plain_numpy(self, kind):
        # est.net.grad after one step is the gradient at the parameters
        # before it, packed in theta's layout; backward sums the first-layer
        # products of a CLUB group's two outputs, and takes the scalar
        # critic's one
        rng = np.random.default_rng(18)
        club = kind is MiEstimatorKind.CLUB
        n, v_dim = 16, 2 if club else 1
        est = create_term_estimator(kind, 2, v_dim, rng)
        u, v = rng.standard_normal((n, 2)), rng.standard_normal((n, v_dim))
        before, ema = est.net.theta.copy(), est.ema_denominator
        train_step(est, u, v)
        w1, b1, w2, b2 = split(est.net, before)
        old = SimpleNamespace(w1=w1, b1=b1, w2=w2, b2=b2, groups=est.net.groups)
        if club:
            out = plain_mlp(old, u, np.zeros((n, 2 * v_dim)))[0]
            mu, raw = out[:, :v_dim], out[:, v_dim:]
            inv_var = np.exp(-np.clip(raw, -10.0, 10.0))
            resid, w = v - mu, -1.0 / n
            dmu = w * resid * inv_var
            dlogvar = w * (-0.5 + 0.5 * resid * resid * inv_var) * (np.abs(raw) <= 10.0)
            want = plain_mlp(old, u, np.concatenate([dmu, dlogvar], axis=1))[1]
        else:
            x = np.concatenate([np.repeat(u, n, axis=0), np.tile(v, (n, 1))], axis=1)
            scores = plain_mlp(old, x, np.zeros((n * n, 1)))[0].reshape(n, n)
            dscores = LOWER_BOUNDS[kind](scores, ema)[2]
            want = plain_mlp(old, x, dscores.reshape(-1, 1))[1]
        for got_group, want_group in zip(groups_of(est.net, est.net.grad), groups_of(est.net, want)):
            for got_part, want_part in zip(got_group, want_group):
                assert_rel_close(got_part, want_part)


class TestCondGaussian:
    def test_standard_normal_at_mode(self):
        lp = logpdf_rows(constant_head(), np.zeros((1, 1)), np.zeros((1, 1)))
        assert lp[0] == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_standard_normal_one_sigma_out(self):
        lp = logpdf_rows(constant_head(), np.zeros((1, 1)), np.ones((1, 1)))
        assert lp[0] == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        head = Mlp.initialize(2, 4, 3, rng, groups=2)
        u = rng.standard_normal((5, 2))
        v = rng.standard_normal((5, 3))
        weight = -0.7

        def loss_grad_sig():
            cache = head_forward(head, u, v)
            cache.owner.backward(cache, weight)
            return float(weight * cond_gaussian_logpdf(cache).sum()), head.grad, b""

        assert fd_report(LossProbe("head", head.theta, loss_grad_sig)).worst_raw < 1e-4

    def test_logvar_clamp_bounds_density(self):
        # a huge log-variance bias must clamp at 10 instead of exploding
        head = constant_head(logvar_bias=1e4)
        lp = logpdf_rows(head, np.zeros((1, 1)), np.zeros((1, 1)))
        assert lp[0] == pytest.approx(-0.5 * math.log(2 * math.pi) - 5.0, abs=1e-12)

    def test_clamped_logvar_has_zero_gradient(self):
        head = constant_head(logvar_bias=1e4)
        cache = head_forward(head, np.zeros((2, 1)), np.ones((2, 1)))
        cache.owner.backward(cache, 1.0)
        assert np.array_equal(head.db2[head.out_dim :], np.zeros(1))

    @pytest.mark.parametrize(
        "u, v, message",
        [
            (np.zeros((3, 1)), np.zeros((2, 1)), "batch sizes disagree: 3 vs 2"),
            (np.zeros((3, 1)), np.zeros((3, 2)), "v must have width 1, got 2"),
        ],
    )
    def test_malformed_batch_rejected(self, u, v, message):
        # club_bound takes the batch in; the forward pass checks v's width
        with pytest.raises(ParameterError, match=message):
            club_bound(constant_head(), u, v)

    def test_one_group_net_rejected(self):
        net = Mlp.initialize(1, 3, 1, np.random.default_rng(0))
        with pytest.raises(ParameterError, match="a Gaussian head has 2 groups, got 1"):
            GaussianHeads.of_pair(net)

    def test_pairwise_matrix_takes_a_one_head_pass(self):
        rng = np.random.default_rng(7)
        heads = [Mlp.initialize(1, 4, 1, rng, groups=2) for _ in range(2)]
        theta, grad = pack_parameters(heads)
        u_cols, v_cols = [np.arange(1)] * 2, [np.arange(1, 2), np.arange(2, 3)]
        cache = GaussianHeads(heads, theta, grad, u_cols, v_cols, 3).forward(np.ones((4, 3)))
        with pytest.raises(ParameterError, match="takes a one-head pass, got 2 heads"):
            cond_gaussian_logpdf_matrix(cache)

    def test_one_head_pass_is_kept_until_the_head_is_rebound(self):
        # club_bound makes a head's pass once, not on every call, and makes
        # it again only for a new theta or a new scratch
        rng = np.random.default_rng(3)
        head = Mlp.initialize(2, 4, 1, rng, groups=2)
        u, v = rng.standard_normal((6, 2)), rng.standard_normal((6, 1))
        before = club_bound(head, u, v)
        first = GaussianHeads.of_pair(head)
        assert head.pair_pass is first and GaussianHeads.of_pair(head) is first
        old_grad = head.grad.copy()
        pack_parameters([head])
        assert club_bound(head, u, v) == before
        second = GaussianHeads.of_pair(head)
        assert second is not first and second.theta is head.theta
        assert np.array_equal(head.grad, old_grad)
        head.scratch = MlpScratch()
        assert GaussianHeads.of_pair(head) is not second
        assert club_bound(head, u, v) == before

    def test_pairwise_matrix_matches_rowwise(self):
        rng = np.random.default_rng(7)
        head = Mlp.initialize(2, 4, 2, rng, groups=2)
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((6, 2))
        mat = cond_gaussian_logpdf_matrix(head_forward(head, u, v))
        for i in range(6):
            for j in range(6):
                lp = logpdf_rows(head, u[i : i + 1], v[j : j + 1])
                assert mat[i, j] == pytest.approx(lp[0], rel=1e-10, abs=1e-10)


class TestPackParameters:
    def test_arrays_become_views_in_parameters_order(self):
        rng = np.random.default_rng(12)
        nets = (Mlp.initialize(2, 3, 1, rng), Mlp.initialize(2, 3, 2, rng))
        before = [p.copy() for net in nets for p in (net.w1, net.b1, net.w2, net.b2)]
        theta, grad = pack_parameters(nets)
        assert np.array_equal(theta, np.concatenate([pack(*before[:4]), pack(*before[4:])]))
        assert grad.shape == theta.shape
        after = [p for net in nets for p in (net.w1b1, net.w1, net.b1, net.w2, net.b2, net.theta)]
        grads = [g for net in nets for g in (net.dw1b1, net.dw2, net.db2, net.grad)]
        assert all(np.array_equal(a, b) for a, b in zip(after[1:5] + after[7:11], before))
        assert all(np.shares_memory(a, theta) for a in after)
        assert all(np.shares_memory(g, grad) for g in grads)
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
        before = (theta.copy(), state.m.copy(), state.v.copy())
        with pytest.raises(TrainingError, match="step=2"):
            adam_step(theta, np.array([0.5, math.nan]), state)
        # nothing moved, and the count is the one before the failed step
        assert state.step_count == 1
        assert all(np.array_equal(a, b) for a, b in zip((theta, state.m, state.v), before))

    def test_update_is_the_step_without_its_checks(self):
        # tc_train_step calls the update body, as its terms have checked
        # every slice of the gradient; a direct adam_step checks it first
        rng = np.random.default_rng(11)
        theta, g = rng.standard_normal(6), rng.standard_normal(6)
        checked, unchecked = theta.copy(), theta.copy()
        states = [AdamState.for_params(theta, lr=1e-3) for _ in range(2)]
        for _ in range(3):
            adam_step(checked, g, states[0])
            adam_update(unchecked, g, states[1])
        assert checked.tobytes() == unchecked.tobytes() and states[0].step_count == states[1].step_count == 3
        assert all(getattr(states[0], a).tobytes() == getattr(states[1], a).tobytes() for a in "mv")

    def test_gradient_shape_mismatch_rejected(self):
        theta = np.zeros(3)
        with pytest.raises(ParameterError):
            adam_step(theta, np.zeros(2), AdamState.for_params(theta))

    def test_state_of_another_length_rejected_before_any_change(self):
        theta = np.array([1.0, 2.0, 3.0])
        state = AdamState.for_params(np.zeros(5))
        state.m[:], state.v[:] = 0.5, 0.25
        with pytest.raises(ParameterError, match=r"\(5,\) and \(5,\) do not match parameters \(3,\)"):
            adam_step(theta, np.ones(3), state)
        assert np.array_equal(theta, [1.0, 2.0, 3.0]) and state.step_count == 0
        assert np.array_equal(state.m, np.full(5, 0.5)) and np.array_equal(state.v, np.full(5, 0.25))

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
        theta = rng.standard_normal(5)
        coef = rng.standard_normal(5)

        def loss_grad_sig():
            return float(theta @ coef), coef, b""

        assert fd_report(LossProbe("linear", theta, loss_grad_sig)).worst_raw < 1e-8

    def test_detects_a_corrupted_gradient(self):
        theta = np.array([0.3, -0.7])

        def loss_grad_sig():
            return float((theta * theta).sum()), 2.5 * theta, b""  # wrong scale

        report = fd_report(LossProbe("quadratic", theta, loss_grad_sig))
        assert report.worst_checked > 1e-2

    def test_detects_a_gradient_in_another_layout(self):
        # the right numbers in [w1, b1, w2, b2] order instead of theta's
        rng = np.random.default_rng(19)
        net = Mlp.initialize(2, 3, 1, rng)
        x = rng.standard_normal((6, 2))
        weights = rng.standard_normal((6, 1))

        def loss_grad_sig():
            out, cache = net.forward(x)
            sig = np.packbits(cache.hidden > 0).tobytes()
            net.backward(cache, weights)
            moved = np.concatenate([part.ravel() for part in split(net, net.grad)])
            return float((out * weights).sum()), moved, sig

        report = fd_report(LossProbe("mlp", net.theta, loss_grad_sig))
        assert report.worst_checked > 1e-2
