import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from totalcorr import estimators
from totalcorr.diagnostics import LossProbe, critic_probe, fd_report
from totalcorr.errors import ParameterError, TrainingError
from totalcorr.estimators import (
    LOWER_BOUNDS,
    MiEstimatorKind,
    club_bound,
    create_term_estimator,
    evaluate,
    infonce_bound,
    mine_bound,
    nwj_bound,
    pair_scores,
    train_step,
    _mine_surrogate,
)
from totalcorr.decomposition import PathKind, build_plan, make_tc_estimator, tc_train_step
from totalcorr.gaussian import club_closed_form, equicorrelated_sigma, sample, solve_rho_for_tc
from totalcorr.nn import (
    AdamState,
    CondGaussianHead,
    Mlp,
    adam_step,
    cond_gaussian_forward,
    cond_gaussian_logpdf_matrix,
)

TRUE_MI_RHO09 = -0.5 * math.log(1.0 - 0.81)


def linear_critic():
    """f(u, v) = u - v + 0.5 for u, v > -10 (hidden units kept positive)."""
    return Mlp(
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([10.0, 10.0]),
        np.array([[1.0, -1.0]]),
        np.array([0.5]),
    )


def constant_head(u_dim=1, v_dim=1):
    zeros = lambda: Mlp(
        np.zeros((3, u_dim)), np.zeros(3), np.zeros((v_dim, 3)), np.zeros(v_dim)
    )
    return CondGaussianHead(zeros(), zeros())


def scores_of(critic, u, v):
    return pair_scores(critic, u, v)[0]


def value(bound, scores):
    return bound(scores, 1.0)[0]


def train_on_gaussian(kind, rho=0.9, steps=4000, seed=1234, dim=2):
    model = equicorrelated_sigma(dim, rho)
    rng = np.random.default_rng(seed)
    est = create_term_estimator(kind, 1, 1, rng)
    adam = AdamState.for_params(est.net.theta)
    values = []
    for _ in range(steps):
        batch = sample(model, 64, rng)
        values.append(train_step(est, batch[:, :1], batch[:, 1:]))
        adam_step(est.net.theta, est.net.grad, adam)
    return est, values


class TestScoreMatrix:
    def test_constant_critic(self):
        critic = Mlp(np.zeros((3, 2)), np.zeros(3), np.zeros((1, 3)), np.array([2.5]))
        scores = scores_of(critic, np.zeros((4, 1)), np.zeros((4, 1)))
        assert np.array_equal(scores, np.full((4, 4), 2.5))

    def test_hand_set_linear_critic(self):
        u = np.array([[1.0], [2.0]])
        v = np.array([[3.0], [5.0]])
        scores = scores_of(linear_critic(), u, v)
        assert np.array_equal(scores, np.array([[-1.5, -3.5], [-0.5, -2.5]]))

    def test_shape(self):
        rng = np.random.default_rng(0)
        critic = Mlp.initialize(2, 20, 1, rng)
        scores = scores_of(critic, rng.standard_normal((64, 1)), rng.standard_normal((64, 1)))
        assert scores.shape == (64, 64)

    def test_rejects_pairs_narrower_than_critic(self):
        # the grid is written into the critic's buffer, where a narrower v
        # would broadcast over the missing rows instead of failing
        critic = Mlp.initialize(3, 4, 1, np.random.default_rng(0))
        with pytest.raises(ParameterError, match="pair width 2"):
            scores_of(critic, np.zeros((4, 1)), np.zeros((4, 1)))


class TestMineValue:
    def test_constant_scores_give_zero(self):
        assert value(mine_bound, np.full((8, 8), 3.0)) == 0.0

    def test_ema_update_from_zero_scores(self):
        ema = mine_bound(np.zeros((4, 4)), 1.0)[3]
        assert ema == pytest.approx(0.99 + 0.01, abs=1e-15)

    def test_constant_score_gradient_pattern(self):
        # hand differentiation: -1/N on the diagonal, uniform mass off it
        n = 4
        _, _, grad, _ = mine_bound(np.zeros((n, n)), 1.0)
        assert np.allclose(np.diag(grad), -1.0 / n)
        off = grad[~np.eye(n, dtype=bool)]
        assert np.allclose(off, 1.0 / (n * (n - 1)))

    def test_surrogate_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        critic = Mlp.initialize(2, 6, 1, rng)
        u = rng.standard_normal((8, 1))
        v = rng.standard_normal((8, 1))
        probe = critic_probe("MINE", critic, u, v, lambda s: _mine_surrogate(s, 1.7))
        assert fd_report(probe).worst_raw < 1e-4

    def test_surrogate_ignores_an_overflowing_joint_score(self):
        # e^800 would overflow on the diagonal, which the loss excludes: the
        # diagonal is never exponentiated, so nothing warns, the loss stays
        # finite, and no inf * 0 makes a NaN
        n, ema = 4, 1.7
        s = np.zeros((n, n))
        s[0, 0] = 800.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = _mine_surrogate(s, ema)
            value, bound_loss, bound_grad, _ = mine_bound(s, 1.0)
        off = ~np.eye(n, dtype=bool)
        want = -np.mean(np.diag(s)) + np.sum(np.exp(s[off])) / (ema * n * (n - 1))
        assert math.isfinite(loss) and loss == pytest.approx(want, rel=1e-15)
        assert math.isfinite(value) and math.isfinite(bound_loss)
        assert np.isfinite(grad).all() and np.isfinite(bound_grad).all()
        assert np.allclose(np.diag(grad), -1.0 / n)
        assert np.allclose(grad[off], np.exp(s[off]) / (ema * n * (n - 1)), rtol=1e-15)

    def test_ema_underflow_raises(self):
        # scores of -900 everywhere; the floor is checked by training only
        est = create_term_estimator(MiEstimatorKind.MINE, 1, 1, np.random.default_rng(0))
        est.net.theta[:] = 0.0
        est.net.b2[...] = -900.0
        est.ema_denominator = 1e-31
        u = v = np.zeros((4, 1))
        assert evaluate(est, u, v) == 0.0
        with pytest.raises(TrainingError, match="underflow"):
            train_step(est, u, v)

    def test_ema_overflow_raises(self):
        # scores of 800 everywhere: e^800 overflows the moving average
        est = create_term_estimator(MiEstimatorKind.MINE, 1, 1, np.random.default_rng(0))
        est.net.theta[:] = 0.0
        est.net.b2[...] = 800.0
        u = v = np.zeros((4, 1))
        assert evaluate(est, u, v) == 0.0
        with pytest.raises(TrainingError, match="overflow"):
            train_step(est, u, v)

    @pytest.mark.parametrize(
        "b2, ema, message",
        [
            (-900.0, 1e-31, "MINE moving average underflowed or overflowed: 9.9e-32"),
            # a NaN moving average passes the floor check and ends as a NaN loss
            (math.nan, 1.0, "non-finite loss"),
        ],
    )
    def test_failed_step_names_estimator_and_step(self, b2, ema, message):
        # a one-term TcEstimator: the step count belongs to its optimizer
        tc_est = make_tc_estimator(build_plan(2, PathKind.LINE), MiEstimatorKind.MINE, seed=0)
        est = tc_est.terms[0]
        est.net.theta[:] = 0.0
        est.net.b2[...] = b2
        est.ema_denominator = ema
        with pytest.raises(TrainingError) as info:
            tc_train_step(tc_est, np.zeros((4, 2)))
        assert str(info.value) == f"{message} [estimator=MINE, term=0, step=1]"

    def test_trained_value_on_correlated_gaussian(self):
        # lower bound of MI = 0.830; Adam at lr 1e-4 reaches about 60% of it
        # in 4000 steps (value frozen from a seeded run of this oracle)
        _, values = train_on_gaussian(MiEstimatorKind.MINE)
        smoothed = float(np.mean(values[-500:]))
        assert 0.3 < smoothed < TRUE_MI_RHO09 + 0.05

    def test_trained_value_on_independent_pair(self):
        _, values = train_on_gaussian(MiEstimatorKind.MINE, rho=0.0, steps=2000)
        assert abs(float(np.mean(values[-500:]))) <= 0.05


class TestNwjValue:
    def test_constant_one_gives_zero(self):
        assert value(nwj_bound, np.ones((4, 4))) == pytest.approx(0.0, abs=1e-15)

    def test_constant_zero(self):
        assert value(nwj_bound, np.zeros((4, 4))) == pytest.approx(-math.exp(-1.0), abs=1e-15)

    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        critic = Mlp.initialize(2, 6, 1, rng)
        u = rng.standard_normal((8, 1))
        v = rng.standard_normal((8, 1))
        probe = critic_probe("NWJ", critic, u, v, lambda s: nwj_bound(s, 1.0)[1:3])
        assert fd_report(probe).worst_raw < 1e-4

    def test_bound_ignores_an_overflowing_joint_score(self):
        # e^(800-1) would overflow on the diagonal, whose marginal term no
        # result uses: nothing warns and the value, loss and gradient are finite
        n = 4
        s = np.zeros((n, n))
        s[0, 0] = 800.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, loss, grad, _ = nwj_bound(s, 1.0)
            assert nwj_bound(s, 1.0, value_only=True) == value
        off = ~np.eye(n, dtype=bool)
        assert value == pytest.approx(np.mean(np.diag(s)) - math.exp(-1.0), rel=1e-15)
        assert loss == -value
        assert np.array_equal(np.diag(grad), np.full(n, -1.0 / n))
        assert np.allclose(grad[off], math.exp(-1.0) / (n * (n - 1)), rtol=1e-15)

    def test_trained_value_on_correlated_gaussian(self):
        _, values = train_on_gaussian(MiEstimatorKind.NWJ)
        smoothed = float(np.mean(values[-500:]))
        assert 0.3 < smoothed < TRUE_MI_RHO09 + 0.05


def gathered_terms(kind, scores):
    """(joint, marginal) terms of MINE's or NWJ's value, with the marginal
    pairs gathered by a boolean off-diagonal mask and averaged by np.mean."""
    off = scores[~np.eye(scores.shape[0], dtype=bool)]
    joint = float(np.mean(np.diag(scores)))
    if kind is MiEstimatorKind.MINE:
        shift = np.max(off)
        return joint, float(shift + np.log(np.mean(np.exp(off - shift))))
    return joint, float(np.mean(np.exp(off - 1.0)))


class TestJointPairsLeftOut:
    @pytest.mark.parametrize("kind", [MiEstimatorKind.MINE, MiEstimatorKind.NWJ])
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_value_matches_the_gather_form(self, kind, scale):
        # the -inf diagonal sums the marginal term in another order than the
        # gather does; the difference is rounding, relative to the larger term
        rng = np.random.default_rng(24)
        for n in range(2, 65):
            for joint_score in (None, 800.0):
                scores = scale * rng.standard_normal((n, n))
                if joint_score is not None:
                    scores[n // 2, n // 2] = joint_score
                joint, marginal = gathered_terms(kind, scores)
                got = LOWER_BOUNDS[kind](scores, 1.0, value_only=True)
                assert abs(got - (joint - marginal)) <= 1e-14 * max(abs(joint), abs(marginal))


class TestInfonceValue:
    def test_constant_scores_give_zero(self):
        assert value(infonce_bound, np.full((6, 6), -1.3)) == pytest.approx(0.0, abs=1e-12)

    def test_saturates_at_log_n(self):
        n = 64
        scores = np.full((n, n), -1000.0)
        np.fill_diagonal(scores, 1000.0)
        assert value(infonce_bound, scores) == pytest.approx(math.log(64), abs=1e-9)
        assert math.log(64) == pytest.approx(4.1589, abs=1e-4)

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.sampled_from([(2, 2), (3, 3), (5, 5), (8, 8)]),
            elements=st.floats(-50, 50),
        )
    )
    def test_capped_by_log_n_on_random_matrices(self, scores):
        n = scores.shape[0]
        assert value(infonce_bound, scores) <= math.log(n) + 1e-12

    def test_loss_is_negated_value(self):
        rng = np.random.default_rng(7)
        scores = rng.standard_normal((5, 5))
        val, loss, _, _ = infonce_bound(scores, 1.0)
        assert loss == -val

    def test_trained_value_on_correlated_gaussian(self):
        _, values = train_on_gaussian(MiEstimatorKind.INFONCE)
        smoothed = float(np.mean(values[-500:]))
        assert 0.3 < smoothed < TRUE_MI_RHO09 + 0.05


class TestClubValue:
    def test_constant_heads_give_zero(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal((16, 1))
        v = rng.standard_normal((16, 1))
        # heads ignoring u make the two averages coincide up to rounding
        assert abs(club_bound(constant_head(), u, v, value_only=True)) < 1e-13

    def test_two_sample_hand_computation(self):
        # independent reimplementation of the 2x2 log-density combination
        head = constant_head()
        u = np.array([[0.3], [-0.8]])
        v = np.array([[1.0], [-0.5]])
        logpdf = lambda x: -0.5 * math.log(2 * math.pi) - 0.5 * x * x
        mat = np.array(
            [[logpdf(1.0), logpdf(-0.5)], [logpdf(1.0), logpdf(-0.5)]]
        )
        expected = (mat[0, 0] + mat[1, 1]) / 2 - mat.mean()
        assert club_bound(head, u, v, value_only=True) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(40))
    def test_moments_value_matches_exact_arithmetic(self, seed):
        # the value against mean_i log q(v_i|u_i) - mean_ij log q(v_j|u_i)
        # in rationals over the cache's float64 mu, inv_var and v; the
        # log-normalizers cancel exactly, so only the quadratic terms remain
        rng = np.random.default_rng(seed)
        n = 2 + seed % 12
        scale = (0.01, 1.0, 30.0)[seed % 3]
        head = CondGaussianHead.initialize(2, 2, 5, rng)
        head.logvar_net.b2 += (-700.0, -12.0, 0.0, 9.0, 700.0)[seed % 5]  # past both clamps
        u, v = scale * rng.standard_normal((n, 2)), scale * rng.standard_normal((n, 2))
        cache = cond_gaussian_forward(head, u, v)
        mu, inv_var, vv = ([[Fraction(x) for x in row] for row in a.tolist()]
                           for a in (cache.mu, cache.inv_var, v))
        exact = Fraction(0)
        for i in range(n):
            for k in range(2):
                joint = (vv[i][k] - mu[i][k]) ** 2
                pairs = sum((vv[j][k] - mu[i][k]) ** 2 for j in range(n)) / n
                exact += inv_var[i][k] * (pairs - joint)
        exact /= 2 * n
        got = club_bound(head, u, v, value_only=True)
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**13) * abs(exact)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 65),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.01, 30.0),
        logvar_shift=st.floats(-700.0, 700.0),
    )
    def test_value_is_the_all_pairs_matrix_contrast(self, n, seed, scale, logvar_shift):
        # diag-mean minus full mean of the (N, N) log q matrix; the matrix
        # adds and then cancels the log-normalizers, which can dwarf a small
        # value, so the tolerance also scales with its largest entry
        rng = np.random.default_rng(seed)
        head = CondGaussianHead.initialize(2, 2, 5, rng)
        head.logvar_net.b2 += logvar_shift
        u, v = scale * rng.standard_normal((n, 2)), scale * rng.standard_normal((n, 2))
        logq = cond_gaussian_logpdf_matrix(cond_gaussian_forward(head, u, v))
        expected = float(np.mean(np.diag(logq)) - np.mean(logq))
        got = club_bound(head, u, v, value_only=True)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9 * float(np.max(np.abs(logq))))

    @pytest.mark.parametrize("path", [PathKind.TREE, PathKind.LINE], ids=lambda p: p.value)
    def test_hand_built_optimal_head_gives_the_closed_form(self, path):
        # q*(v | u) = N(B u, diag C), set by hand with no training: the mean
        # head passes each u_k through relu(x) - relu(-x) and scales by B,
        # the log-variance head is the constant log C_kk in b2. A batch of
        # N expects (N - 1) / N of gaussian.club_closed_form
        model = equicorrelated_sigma(4, solve_rho_for_tc(4, 2.0))
        rng = np.random.default_rng(23)
        n, batches = 64, 1500
        for term in build_plan(4, path).terms:
            u_pos, v_pos = term.left.positions(), term.right.positions()
            s = model.sigma
            b = np.linalg.solve(s[np.ix_(u_pos, u_pos)], s[np.ix_(u_pos, v_pos)]).T
            cond_var = np.diag(s[np.ix_(v_pos, v_pos)] - b @ s[np.ix_(u_pos, v_pos)])
            du, dv = len(u_pos), len(v_pos)
            w1, w2 = np.zeros((20, du)), np.zeros((dv, 20))
            for k in range(du):
                w1[2 * k, k], w1[2 * k + 1, k] = 1.0, -1.0
                w2[:, 2 * k], w2[:, 2 * k + 1] = b[:, k], -b[:, k]
            mu_net = Mlp(w1, np.zeros(20), w2, np.zeros(dv))
            logvar_net = Mlp(
                rng.standard_normal((20, du)), np.zeros(20), np.zeros((dv, 20)), np.log(cond_var)
            )
            head = CondGaussianHead(mu_net, logvar_net)
            values = np.empty(batches)
            for t in range(batches):
                x = sample(model, n, rng)
                values[t] = club_bound(head, x[:, u_pos], x[:, v_pos], value_only=True)
            se = values.std(ddof=1) / math.sqrt(batches)
            expected = (n - 1) / n * club_closed_form(model, term.left, term.right)
            assert abs(values.mean() - expected) < 4 * se, (term, values.mean(), expected, se)

    def test_club_bound_takes_nested_lists(self):
        # the exported CLUB bound takes the batch in as evaluate does
        rng = np.random.default_rng(18)
        est = create_term_estimator(MiEstimatorKind.CLUB, 2, 1, rng)
        u, v = rng.standard_normal((8, 2)), rng.standard_normal((8, 1))
        got = club_bound(est.net, u.tolist(), v.tolist(), value_only=True)
        assert got == club_bound(est.net, u, v, value_only=True) == evaluate(est, u, v)
        assert club_bound(est.net, u.tolist(), v.tolist()) == club_bound(est.net, u, v)

    def test_train_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        head = CondGaussianHead.initialize(2, 1, 5, rng)
        u = rng.standard_normal((8, 2))
        v = rng.standard_normal((8, 1))

        def loss_grad_sig():
            return club_bound(head, u, v)[1], head.grad, b""

        assert fd_report(LossProbe("CLUB", head.theta, loss_grad_sig)).worst_raw < 1e-4

    def test_training_reduces_nll_in_coarse_averages(self):
        model = equicorrelated_sigma(2, 0.9)
        rng = np.random.default_rng(10)
        est = create_term_estimator(MiEstimatorKind.CLUB, 1, 1, rng)
        adam = AdamState.for_params(est.net.theta)
        losses = []
        for _ in range(2000):
            batch = sample(model, 64, rng)
            losses.append(club_bound(est.net, batch[:, :1], batch[:, 1:])[1])
            train_step(est, batch[:, :1], batch[:, 1:])
            adam_step(est.net.theta, est.net.grad, adam)
        block = [float(np.mean(losses[i : i + 200])) for i in range(0, 2000, 200)]
        # strictly decreasing until the noise floor (~0.80 nats) is reached,
        # then flat to within a few millinats; frozen from a seeded run
        assert all(b2 < b1 for b1, b2 in zip(block[:8], block[1:8]))
        assert all(b <= block[7] + 0.01 for b in block[8:])
        assert block[-1] < 0.4 * block[0]

    def test_trained_value_on_correlated_gaussian(self):
        # The fitted-q value tends toward the analytic rho^2/(1-rho^2) = 4.263
        # (the bound's Jensen gap), not toward the MI itself; frozen from a
        # seeded run of this oracle. It must stay an upper bound of 0.830.
        _, values = train_on_gaussian(MiEstimatorKind.CLUB)
        smoothed = float(np.mean(values[-500:]))
        analytic_perfect_q = 0.81 / 0.19
        assert TRUE_MI_RHO09 - 0.05 < smoothed < analytic_perfect_q + 0.3


class TestBoundDirectionMetadata:
    def test_constant_score_relation(self):
        # for constant matrices mine is 0 and nwj is c - e^(c-1) <= 0,
        # with equality only at c = 1
        for c in (-2.0, 0.0, 0.3, 1.0, 2.5):
            scores = np.full((6, 6), c)
            assert value(mine_bound, scores) == 0.0
            nwj = value(nwj_bound, scores)
            assert nwj <= 1e-15
            if c != 1.0:
                assert nwj < -1e-6


class TestGradientMutationDetection:
    def test_corrupted_backward_is_flagged(self, monkeypatch):
        # a 1% scale error on one gradient must break the FD comparison
        from totalcorr.diagnostics import check_gradient_integrity
        from totalcorr.nn import Mlp

        original = Mlp.backward

        def corrupted(self, cache, dout):
            original(self, cache, dout)
            self.dw2 *= 1.01

        monkeypatch.setattr(Mlp, "backward", corrupted)
        ok, _ = check_gradient_integrity(points=1)
        assert not ok


class TestTrainStep:
    def test_zero_initialized_mine_starts_at_zero(self):
        rng = np.random.default_rng(11)
        est = create_term_estimator(MiEstimatorKind.MINE, 1, 1, rng)
        est.net.theta[:] = 0.0
        batch = np.random.default_rng(0).standard_normal((16, 2))
        assert train_step(est, batch[:, :1], batch[:, 1:]) == 0.0

    @pytest.mark.parametrize("kind", list(MiEstimatorKind))
    def test_parameters_are_views_of_theta(self, kind):
        rng = np.random.default_rng(14)
        est = create_term_estimator(kind, 2, 1, rng)
        theta, grad = est.net.theta, est.net.grad
        club = kind is MiEstimatorKind.CLUB
        nets = (est.net.mu_net, est.net.logvar_net) if club else (est.net,)
        params = [p for net in nets for p in (net.w1b1, net.w1, net.b1, net.w2, net.b2)]
        grads = [g for net in nets for g in (net.dw1b1, net.dw2, net.db2)]
        assert sum(net.w1b1.size + net.w2.size + net.b2.size for net in nets) == theta.size
        assert grad.shape == theta.shape
        assert all(np.shares_memory(p, theta) for p in params)
        assert all(np.shares_memory(g, grad) for g in grads)
        before = theta.copy()
        train_step(est, rng.standard_normal((16, 2)), rng.standard_normal((16, 1)))
        adam_step(theta, grad, AdamState.for_params(theta))
        assert not np.array_equal(theta, before)
        # theta holds each net as [w1 | b1] row by row, then w2 and b2, and
        # grad holds the gradient views in the same places
        flat = [[np.column_stack([n.w1, n.b1]), n.w2, n.b2] for n in nets]
        assert np.array_equal(np.concatenate([p.ravel() for ps in flat for p in ps]), theta)
        assert np.array_equal(np.concatenate([g.ravel() for g in grads]), grad)

    def test_deterministic_given_seed(self):
        def run():
            _, values = train_on_gaussian(MiEstimatorKind.INFONCE, steps=50)
            return values

        assert run() == run()

    def test_width_mismatch_rejected(self):
        est = create_term_estimator(MiEstimatorKind.NWJ, 2, 1, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            train_step(est, np.zeros((8, 1)), np.zeros((8, 1)))

    def test_kind_must_be_an_estimator_kind(self):
        # a string 'CLUB' is not MiEstimatorKind.CLUB, and would build a scalar critic
        with pytest.raises(ParameterError, match="kind must be a MiEstimatorKind, got 'CLUB'"):
            create_term_estimator("CLUB", 1, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", list(MiEstimatorKind))
    def test_zero_width_rejected(self, kind):
        with pytest.raises(ParameterError, match="u_dim and v_dim must be positive"):
            create_term_estimator(kind, 0, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", list(MiEstimatorKind))
    @pytest.mark.parametrize(
        "u, v, message",
        [
            (np.zeros(8), np.zeros((8, 1)), "u and v must be 2-d batches"),
            (np.zeros((8, 1)), np.zeros((6, 1)), "batch sizes disagree: 8 vs 6"),
            (np.zeros((1, 1)), np.zeros((1, 1)), "need a batch of at least 2"),
        ],
    )
    def test_malformed_batch_rejected_before_any_update(self, kind, u, v, message):
        est = create_term_estimator(kind, 1, 1, np.random.default_rng(0))
        before = est.net.theta.copy()
        for step in (evaluate, train_step):
            with pytest.raises(ParameterError, match=message):
                step(est, u, v)
        assert not est.net.grad.any() and np.array_equal(est.net.theta, before)

    @pytest.mark.parametrize("kind", list(MiEstimatorKind))
    def test_evaluate_rejects_a_split_as_train_step_does(self, kind):
        # widths (2, 2) total 4 as (1, 3) does, which a critic alone would accept
        est = create_term_estimator(kind, 1, 3, np.random.default_rng(0))
        u, v = np.zeros((8, 2)), np.zeros((8, 2))
        for step in (evaluate, train_step):
            with pytest.raises(ParameterError, match=r"expected widths \(1, 3\), got \(2, 2\)"):
                step(est, u, v)

    def test_non_finite_loss_names_kind_and_step(self):
        est = create_term_estimator(MiEstimatorKind.NWJ, 1, 1, np.random.default_rng(1))
        est.net.b2[...] = 1e6  # e^(score-1) overflows to inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingError, match="NWJ"
        ):
            train_step(est, np.zeros((4, 1)), np.zeros((4, 1)))

    @pytest.mark.parametrize("kind", list(MiEstimatorKind))
    def test_non_finite_gradient_names_kind(self, kind, monkeypatch):
        # the term checks its own gradient as it runs, with no optimizer behind it
        est = create_term_estimator(kind, 1, 1, np.random.default_rng(1))
        backward = Mlp.backward

        def nan_backward(self, cache, dout):
            backward(self, cache, dout)
            self.grad[0] = math.nan

        monkeypatch.setattr(Mlp, "backward", nan_backward)
        before = est.net.theta.copy()
        rng = np.random.default_rng(2)
        with pytest.raises(TrainingError) as info:
            train_step(est, rng.standard_normal((8, 1)), rng.standard_normal((8, 1)))
        assert str(info.value) == f"non-finite gradient [estimator={kind.value}]"
        assert np.array_equal(est.net.theta, before)

    @pytest.mark.parametrize("kind", list(MiEstimatorKind))
    def test_permutation_invariance_of_evaluation(self, kind):
        rng = np.random.default_rng(12)
        est = create_term_estimator(kind, 2, 1, rng)
        u = rng.standard_normal((16, 2))
        v = rng.standard_normal((16, 1))
        base = evaluate(est, u, v)
        perm = rng.permutation(16)
        assert evaluate(est, u[perm], v[perm]) == pytest.approx(base, abs=1e-10)

    @pytest.mark.parametrize("kind", list(MiEstimatorKind))
    def test_evaluate_matches_value_functions(self, kind):
        rng = np.random.default_rng(13)
        est = create_term_estimator(kind, 1, 2, rng)
        u = rng.standard_normal((8, 1))
        v = rng.standard_normal((8, 2))
        got = evaluate(est, u, v)
        if kind is MiEstimatorKind.CLUB:
            assert got == club_bound(est.net, u, v)[0]
        else:
            scores = scores_of(est.net, u, v)
            assert got == value(LOWER_BOUNDS[kind], scores)

    @pytest.mark.parametrize("kind", list(MiEstimatorKind))
    def test_value_only_is_the_same_float(self, kind):
        # evaluate asks the bound for its value alone; training takes the value
        # from the full tuple, and the two must agree bit for bit
        rng = np.random.default_rng(16)
        for n, scale, ema in [(64, 1.0, 1.0), (64, 5.0, 0.37), (2, 0.5, 3.1), (17, 30.0, 1e-3)]:
            if kind is MiEstimatorKind.CLUB:
                head = CondGaussianHead.initialize(2, 2, 5, rng)
                u, v = scale * rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
                bound = lambda **kw: club_bound(head, u, v, **kw)
            else:
                scores = scale * rng.standard_normal((n, n))
                bound = lambda **kw: LOWER_BOUNDS[kind](scores, ema, **kw)
            got = bound(value_only=True)
            assert isinstance(got, float) and got == bound()[0]

    @pytest.mark.parametrize("kind", list(MiEstimatorKind))
    def test_batch_is_taken_in_once_per_step(self, kind, monkeypatch):
        # one conversion and check per term step, CLUB's included
        rng = np.random.default_rng(19)
        est = create_term_estimator(kind, 2, 1, rng)
        u, v = rng.standard_normal((16, 2)), rng.standard_normal((16, 1))
        calls = []
        intake = estimators._check_pair_batch
        monkeypatch.setattr(
            estimators, "_check_pair_batch", lambda u, v: calls.append(1) or intake(u, v)
        )
        train_step(est, u, v)
        evaluate(est, u, v)
        assert len(calls) == 2

    def test_club_runs_each_head_forward_once(self, monkeypatch):
        # value, loss and gradient of a CLUB step all come from one forward
        # pass of the two heads, and evaluation needs no more than that
        rng = np.random.default_rng(17)
        est = create_term_estimator(MiEstimatorKind.CLUB, 2, 1, rng)
        u, v = rng.standard_normal((16, 2)), rng.standard_normal((16, 1))
        calls = []
        forward = Mlp.forward

        def counting_forward(self, x):
            calls.append(self)
            return forward(self, x)

        monkeypatch.setattr(Mlp, "forward", counting_forward)
        train_step(est, u, v)
        assert calls == [est.net.mu_net, est.net.logvar_net]
        calls.clear()
        evaluate(est, u, v)
        assert calls == [est.net.mu_net, est.net.logvar_net]
