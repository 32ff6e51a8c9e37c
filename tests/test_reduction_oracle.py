"""The fused training step and the ufunc reductions against the per-term path.

The oracle below is the per-term path the package used before one Adam step
trained all terms of a TcEstimator: every term has its own AdamState and is
updated right after its own bound, and the bounds reduce with numpy's Python
wrappers (np.mean, np.diag, np.sum, np.max, np.clip). Its CLUB head is two
nets, a mean net and a log-variance net with a scratch each, as the package
built it before they became the two groups of one net. The package must give
the same bytes: the ufunc calls it makes instead are the reductions those
wrappers make, in the same order, a group of one net computes what the net
of its rows computes, and Adam's arithmetic is elementwise.
"""

from typing import NamedTuple

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from totalcorr.decomposition import (
    DecompositionPlan,
    MiTerm,
    PathKind,
    build_plan,
    make_tc_estimator,
    tc_evaluate,
    tc_train_step,
)
from totalcorr.errors import TrainingError
from totalcorr.estimators import (
    LOWER_BOUNDS,
    MINE_EMA_DECAY,
    MINE_EMA_FLOOR,
    MiEstimatorKind,
    _club_nll,
    _mine_surrogate,
    club_bound,
    pair_scores,
)
from totalcorr.gaussian import IndexSet, equicorrelated_sigma, sample, solve_rho_for_tc
from totalcorr.nn import (
    LOGVAR_MAX,
    LOGVAR_MIN,
    AdamState,
    Mlp,
    adam_step,
    cond_gaussian_forward,
    cond_gaussian_logpdf,
    logvar_passes,
    pack_parameters,
)

# --- the oracle: the bounds in their numpy-wrapper forms -------------------


def _offdiag(n):
    return ~np.eye(n, dtype=bool)


def wrapped_mine(scores, ema, value_only=False):
    n = scores.shape[0]
    # the joint pairs drop out as e^-inf = 0 from the sum over the whole matrix
    marg = scores.copy()
    np.fill_diagonal(marg, -np.inf)
    shift = np.max(marg)
    logmeanexp = float(shift + np.log(np.sum(np.exp(marg - shift)) / (n * (n - 1))))
    value = float(np.mean(np.diag(scores))) - logmeanexp
    if value_only:
        return value
    try:
        batch_mean = math.exp(logmeanexp)
    except OverflowError:
        batch_mean = math.inf
    ema = MINE_EMA_DECAY * ema + (1.0 - MINE_EMA_DECAY) * batch_mean
    if ema < MINE_EMA_FLOOR or math.isinf(ema):
        raise TrainingError(f"MINE moving average underflowed or overflowed: {ema!r}")
    loss, grad = wrapped_mine_surrogate(scores, ema)
    return value, loss, grad, ema


def wrapped_mine_surrogate(scores, ema_denominator):
    n = scores.shape[0]
    log_ema = math.log(ema_denominator)
    # the joint pairs drop out by selection, so an e^score that overflows on
    # the diagonal gives no inf * 0 = NaN, and errstate keeps it, or an
    # off-diagonal sum that overflows, from warning
    with np.errstate(over="ignore"):
        scaled = np.where(_offdiag(n), np.exp(scores - log_ema), 0.0)
        marginal = float(np.sum(scaled))
    loss = -float(np.mean(np.diag(scores))) + marginal / (n * (n - 1))
    grad = scaled / (n * (n - 1))
    np.fill_diagonal(grad, -1.0 / n)
    return loss, grad


def wrapped_nwj(scores, ema, value_only=False):
    n = scores.shape[0]
    marg = scores - 1.0
    np.fill_diagonal(marg, -np.inf)  # as in wrapped_mine
    marg = np.exp(marg)
    value = float(np.mean(np.diag(scores))) - float(np.sum(marg) / (n * (n - 1)))
    if value_only:
        return value
    grad = marg / (n * (n - 1))
    np.fill_diagonal(grad, -1.0 / n)
    return value, -value, grad, ema


def wrapped_infonce(scores, ema, value_only=False):
    n = scores.shape[0]
    shift = scores.max(axis=1, keepdims=True)
    expd = np.exp(scores - shift)
    rowsum = expd.sum(axis=1)
    logsumexp = shift[:, 0] + np.log(rowsum)
    value = float(np.mean(np.diag(scores) - logsumexp)) + math.log(n)
    if value_only:
        return value
    grad = expd / rowsum[:, None]
    grad[np.diag_indices(n)] -= 1.0
    grad /= n
    return value, -value, grad, ema


WRAPPED = {
    MiEstimatorKind.MINE: wrapped_mine,
    MiEstimatorKind.NWJ: wrapped_nwj,
    MiEstimatorKind.INFONCE: wrapped_infonce,
}


class TwoNetHead:
    """CLUB's q(v | u) as a mean net and a log-variance net, one group each,
    each with a scratch of its own, packed mean net first."""

    def __init__(self, mu_net, logvar_net):
        self.mu_net, self.logvar_net = mu_net, logvar_net
        self.theta, self.grad = pack_parameters((mu_net, logvar_net))

    @classmethod
    def initialize(cls, u_dim, v_dim, hidden, rng):
        return cls(*(Mlp.initialize(u_dim, hidden, v_dim, rng) for _ in range(2)))

    @classmethod
    def of(cls, head):
        """The nets of a two-group head's groups, with copies of its parameters."""
        h, o = head.hidden_dim, head.out_dim
        rows = [(slice(g * h, (g + 1) * h), slice(g * o, (g + 1) * o)) for g in range(2)]
        return cls(*(Mlp(head.w1[hr], head.b1[hr], head.w2[orows], head.b2[orows]) for hr, orows in rows))

    def as_groups(self):
        """One two-group net with copies of the nets' parameters."""
        nets = (self.mu_net, self.logvar_net)
        return Mlp(*(np.concatenate([getattr(n, a) for n in nets]) for a in ("w1", "b1", "w2", "b2")), groups=2)

    def grouped(self, vec):
        """``vec``, laid out as ``theta``, in the layout of :meth:`as_groups`."""
        halves = np.split(vec, [self.mu_net.theta.size])
        parts = [np.split(half, np.cumsum([net.w1b1.size, net.w2.size]))
                 for half, net in zip(halves, (self.mu_net, self.logvar_net))]
        return np.concatenate([part for pair in zip(*parts) for part in pair])


class TwoNetCache(NamedTuple):
    mu_cache: object
    logvar_cache: object
    mu: np.ndarray
    logvar_raw: np.ndarray
    logvar: np.ndarray
    inv_var: np.ndarray
    v: np.ndarray
    resid: np.ndarray
    half_sq: np.ndarray


def wrapped_forward(head, u, v):
    mu, mu_cache = head.mu_net.forward(u)
    logvar_raw, logvar_cache = head.logvar_net.forward(u)
    logvar = np.clip(logvar_raw, LOGVAR_MIN, LOGVAR_MAX)
    inv_var = np.exp(-logvar)
    resid = v - mu
    half_sq = 0.5 * resid * resid * inv_var
    return TwoNetCache(mu_cache, logvar_cache, mu, logvar_raw, logvar, inv_var, v, resid, half_sq)


def two_net_backward(head, cache, dlogpdf):
    """The gradient of sum(dlogpdf * logpdf), one backward per net."""
    w = dlogpdf[:, None]
    dmu = w * cache.resid * cache.inv_var
    dlogvar = w * (-0.5 + cache.half_sq)
    dlogvar *= logvar_passes(cache)
    head.mu_net.backward(cache.mu_cache, dmu)
    head.logvar_net.backward(cache.logvar_cache, dlogvar)


def wrapped_club(head, u, v, value_only=False):
    cache = wrapped_forward(head, u, v)
    # the all-pairs mean from v's column means and biased variances
    m1 = np.mean(v, axis=0)
    s = np.mean((v - m1) * (v - m1), axis=0)
    gap = m1 - cache.mu
    contrast = 0.5 * cache.inv_var * (s + gap * gap) - cache.half_sq
    value = float(np.sum(contrast) / v.shape[0])
    if value_only:
        return value
    logpdf = cond_gaussian_logpdf(cache)
    n = logpdf.shape[0]
    two_net_backward(head, cache, np.full(n, -1.0 / n))
    return value, -float(np.mean(logpdf))


def oracle_term(term, net, u, v, value_only):
    """The term's bound as the per-term path computed it, on its oracle net
    ``net`` (a :class:`TwoNetHead` for CLUB): the value alone, or the value
    with the gradient in ``net.grad`` and the moving average advanced, after
    the per-term loss check."""
    if term.kind is MiEstimatorKind.CLUB:
        result = wrapped_club(net, u, v, value_only)
        if value_only:
            return result
        value, loss = result
    else:
        scores, cache = pair_scores(net, u, v)
        bound = WRAPPED[term.kind]
        if value_only:
            return bound(scores, term.ema_denominator, value_only=True)
        value, loss, dscores, term.ema_denominator = bound(scores, term.ema_denominator)
        net.backward(cache, dscores.reshape(-1, 1))
    assert math.isfinite(loss)
    return value


# --- bytes ------------------------------------------------------------------


def as_bytes(result):
    if isinstance(result, tuple):
        return tuple(as_bytes(r) for r in result)
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    assert isinstance(result, float), type(result)
    return np.float64(result).tobytes()


def outcome(fn, *args, **kwargs):
    try:
        return as_bytes(fn(*args, **kwargs))
    except TrainingError as exc:
        return "raised", str(exc)


# --- the bounds -------------------------------------------------------------

score_matrices = st.integers(2, 65).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(-700.0, 700.0))
)


class TestBoundsMatchTheWrapperForms:
    @settings(max_examples=150, deadline=None)
    @given(
        scores=score_matrices,
        kind=st.sampled_from(sorted(WRAPPED, key=lambda k: k.value)),
        ema=st.one_of(st.floats(1e-3, 1e3), st.floats(1e-31, 1e-29)),
    )
    # a joint score whose e^score overflows at the floor-level moving average
    @example(scores=np.array([[700.0, -700.0], [-700.0, 0.0]]), kind=MiEstimatorKind.MINE, ema=1.02e-30)
    def test_lower_bounds_give_the_same_bytes(self, scores, kind, ema):
        assert outcome(LOWER_BOUNDS[kind], scores, ema) == outcome(WRAPPED[kind], scores, ema)
        assert outcome(LOWER_BOUNDS[kind], scores, ema, value_only=True) == outcome(
            WRAPPED[kind], scores, ema, value_only=True
        )

    @settings(max_examples=150, deadline=None)
    @given(scores=score_matrices, ema=st.floats(1e-3, 1e3))
    # e^(700 - log 0.125) is finite, but 48 * 47 of them overflow the sum
    @example(scores=np.full((48, 48), 700.0), ema=0.125)
    def test_mine_surrogate_gives_the_same_bytes(self, scores, ema):
        assert outcome(_mine_surrogate, scores, ema) == outcome(wrapped_mine_surrogate, scores, ema)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 65),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.01, 30.0),
        logvar_shift=st.floats(-700.0, 700.0),
    )
    def test_club_gives_the_same_bytes(self, n, seed, scale, logvar_shift):
        # shifted log-variances reach past the clamp on either side
        rng = np.random.default_rng(seed)
        two = TwoNetHead.initialize(2, 2, 5, rng)
        two.logvar_net.b2 += logvar_shift
        head = two.as_groups()
        u, v = scale * rng.standard_normal((n, 2)), scale * rng.standard_normal((n, 2))
        want = outcome(wrapped_club, two, u, v)
        assert outcome(club_bound, head, u, v) == want
        assert head.grad.tobytes() == two.grouped(two.grad).tobytes()
        assert outcome(club_bound, head, u, v, value_only=True) == outcome(
            wrapped_club, two, u, v, value_only=True
        )

    @pytest.mark.parametrize("n", [2, 17, 64])
    @pytest.mark.parametrize("v_dim", [1, 2])
    @pytest.mark.parametrize("u_dim", [1, 2, 3])
    def test_club_head_gives_the_two_nets_bytes(self, u_dim, v_dim, n):
        # the forward cache, the NLL and its gradient of one two-group head
        # against the two nets it replaces, drawn from the same stream; the
        # log-variances are shifted past the clamp for some u widths
        seed = 100 * u_dim + 10 * v_dim + n
        head = Mlp.initialize(u_dim, 20, v_dim, np.random.default_rng(seed), groups=2)
        two = TwoNetHead.initialize(u_dim, v_dim, 20, np.random.default_rng(seed))
        assert head.theta.tobytes() == two.grouped(two.theta).tobytes()
        shift = (0.0, -10.5, 10.0)[u_dim - 1]
        head.b2[v_dim:] += shift
        two.logvar_net.b2 += shift
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal((n, u_dim)), rng.standard_normal((n, v_dim))
        got, want = cond_gaussian_forward(head, u, v), wrapped_forward(two, u, v)
        for name in ("mu", "logvar_raw", "logvar", "inv_var", "v", "resid", "half_sq"):
            assert as_bytes(getattr(got, name)) == as_bytes(getattr(want, name)), name
        assert got.net_cache.x.tobytes() == want.mu_cache.x.tobytes() == want.logvar_cache.x.tobytes()
        assert got.net_cache.hidden.tobytes() == np.vstack(
            [want.mu_cache.hidden, want.logvar_cache.hidden]
        ).tobytes()
        logpdf = cond_gaussian_logpdf(want)
        two_net_backward(two, want, np.full(n, -1.0 / n))
        assert as_bytes(_club_nll(head, got)) == as_bytes(-float(np.add.reduce(logpdf) / n))
        assert head.grad.tobytes() == two.grouped(two.grad).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        raw=arrays(
            np.float64,
            st.integers(1, 6),
            elements=st.one_of(
                st.sampled_from([math.nan, math.inf, -math.inf, -0.0, LOGVAR_MIN, LOGVAR_MAX]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
        )
    )
    def test_clamp_matches_clip_on_any_log_variance(self, raw):
        # a log-variance head whose output is exactly its bias
        rng = np.random.default_rng(0)
        head = Mlp.initialize(1, 3, raw.size, rng, groups=2)
        head.w2[raw.size :] = 0.0
        head.b2[raw.size :] = raw
        cache = cond_gaussian_forward(head, np.ones((2, 1)), np.zeros((2, raw.size)))
        assert np.array_equal(cache.logvar_raw, np.vstack([raw, raw]), equal_nan=True)
        assert cache.logvar.tobytes() == np.clip(cache.logvar_raw, LOGVAR_MIN, LOGVAR_MAX).tobytes()


# --- the training step ------------------------------------------------------

PLANS = [
    pytest.param(build_plan(4, PathKind.TREE), id="TREE"),
    pytest.param(build_plan(4, PathKind.LINE), id="LINE"),
    # the tree over the vector variables {1, 2}, {3} and {4, 5, 6}
    pytest.param(
        DecompositionPlan(
            6,
            PathKind.TREE,
            (MiTerm(IndexSet.of(1, 2, 3), IndexSet.of(4, 5, 6)), MiTerm(IndexSet.of(1, 2), IndexSet.of(3))),
        ),
        id="TREE-blocks-2-1-3",
    ),
]


def run_against_the_per_term_path(plan, kind, steps, batch_size, model, lr=1e-3):
    """Train a TcEstimator and the per-term oracle side by side, asserting
    the same bytes at each step and at the end. The oracle's terms share the
    fused estimator's start: a CLUB term's as the :class:`TwoNetHead` of its
    head's groups."""
    fused = make_tc_estimator(plan, kind, seed=31, lr=lr)
    oracle = make_tc_estimator(plan, kind, seed=31, lr=lr)
    club = kind is MiEstimatorKind.CLUB
    nets = [TwoNetHead.of(t.net) if club else t.net for t in oracle.terms]
    adams = [AdamState.for_params(net.theta, lr=lr) for net in nets]
    rng = np.random.default_rng(5)

    def oracle_values(batch, value_only):
        values = np.empty(oracle.n_terms)
        for k, (term, net) in enumerate(zip(oracle.terms, nets)):
            u, v = batch[:, oracle.left_cols[k]], batch[:, oracle.right_cols[k]]
            values[k] = oracle_term(term, net, u, v, value_only)
            if not value_only:
                adam_step(net.theta, net.grad, adams[k])
        return float(np.sum(values)), values

    def fused_layout(vectors):
        return np.concatenate([net.grouped(vec) if club else vec for net, vec in zip(nets, vectors)])

    for _ in range(steps):
        batch = sample(model, batch_size, rng)
        assert as_bytes(tc_train_step(fused, batch)) == as_bytes(oracle_values(batch, False))
    batch = sample(model, batch_size, rng)
    assert as_bytes(tc_evaluate(fused, batch)) == as_bytes(oracle_values(batch, True))

    assert fused.theta.tobytes() == fused_layout([net.theta for net in nets]).tobytes()
    assert fused.adam.m.tobytes() == fused_layout([a.m for a in adams]).tobytes()
    assert fused.adam.v.tobytes() == fused_layout([a.v for a in adams]).tobytes()
    assert fused.adam.step_count == steps == adams[0].step_count
    assert as_bytes(tuple(t.ema_denominator for t in fused.terms)) == as_bytes(
        tuple(t.ema_denominator for t in oracle.terms)
    )
    for term in fused.terms:
        assert np.shares_memory(term.net.theta, fused.theta)
        assert np.shares_memory(term.net.grad, fused.grad)
    assert sum(t.net.theta.size for t in fused.terms) == fused.theta.size


@pytest.mark.parametrize("kind", list(MiEstimatorKind), ids=lambda k: k.value)
@pytest.mark.parametrize("plan", PLANS)
def test_steps_match_the_per_term_path(kind, plan):
    run_against_the_per_term_path(plan, kind, 25, 16, equicorrelated_sigma(plan.n, 0.6))


@pytest.mark.parametrize("path", list(PathKind), ids=lambda p: p.value)
def test_club_theta_after_300_steps_matches_the_two_net_heads(path):
    # the workload's batch of 64 at truth 2, long enough for the heads to move
    model = equicorrelated_sigma(4, solve_rho_for_tc(4, 2.0))
    run_against_the_per_term_path(build_plan(4, path), MiEstimatorKind.CLUB, 300, 64, model)
