"""Four trainable variational mutual-information bounds on paired batches.

MINE, NWJ and InfoNCE are lower bounds scored by a scalar critic f(u, v);
CLUB is an upper bound built on a conditional Gaussian approximation q(v | u).
Product-of-marginals samples are formed from the off-diagonal pairs of the
batch's score matrix (all N(N-1) of them), so no extra shuffling randomness
enters a training step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, TrainingError
from .nn import (
    CondGaussianCache,
    CondGaussianHead,
    DEFAULT_HIDDEN,
    Mlp,
    MlpCache,
    cond_gaussian_forward,
    cond_gaussian_logpdf,
    cond_gaussian_logpdf_backward,
)

MINE_EMA_DECAY = 0.99
MINE_EMA_FLOOR = 1e-30


class MiEstimatorKind(Enum):
    MINE = "MINE"
    NWJ = "NWJ"
    INFONCE = "INFONCE"
    CLUB = "CLUB"


@dataclass
class MiTermEstimator:
    """One MI term's estimator: its network and MINE's moving average.

    ``net`` is the scalar critic of MINE, NWJ and InfoNCE or CLUB's
    conditional Gaussian head. Every parameter array of it is a view into
    ``net.theta``, and backward fills ``net.grad``, laid out the same. The
    term has no optimizer of its own: in a ``TcEstimator`` both vectors are
    slices of the estimator's, which one Adam step updates for all terms.
    """

    kind: MiEstimatorKind
    u_dim: int
    v_dim: int
    net: Mlp | CondGaussianHead
    ema_denominator: float = 1.0


def create_term_estimator(
    kind: MiEstimatorKind,
    u_dim: int,
    v_dim: int,
    rng: np.random.Generator,
    hidden: int = DEFAULT_HIDDEN,
) -> MiTermEstimator:
    if not isinstance(kind, MiEstimatorKind):
        raise ParameterError(f"kind must be a MiEstimatorKind, got {kind!r}")
    if min(u_dim, v_dim) < 1:
        raise ParameterError("u_dim and v_dim must be positive")
    if kind is MiEstimatorKind.CLUB:
        net = CondGaussianHead.initialize(u_dim, v_dim, hidden, rng)
    else:
        net = Mlp.initialize(u_dim + v_dim, hidden, 1, rng)
    return MiTermEstimator(kind, u_dim, v_dim, net)


def _check_pair_batch(u, v) -> tuple[np.ndarray, np.ndarray]:
    """u and v as float64 arrays, 2-d with equal row counts of at least 2: the one
    intake of a pair batch, for :func:`_bound` and :func:`club_bound` only."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 2 or v.ndim != 2:
        raise ParameterError("u and v must be 2-d batches")
    if u.shape[0] != v.shape[0]:
        raise ParameterError(f"batch sizes disagree: {u.shape[0]} vs {v.shape[0]}")
    if u.shape[0] < 2:
        raise ParameterError("contrastive bounds need a batch of at least 2")
    return u, v


def pair_scores(critic: Mlp, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Pairwise critic scores: entry (i, j) = critic(concat(u_i, v_j)).

    The diagonal holds joint-pair scores; the off-diagonal holds
    product-of-marginals scores. Returns the (N, N) scores, a fresh array,
    and the forward cache. The N*N pairs are written feature-major straight
    into the critic's input buffer, pair (i, j) in column i*N + j.
    The batch, taken in by :func:`_check_pair_batch`, is not checked again;
    the pair width is, as a narrower v would broadcast into the buffer.
    """
    n = u.shape[0]
    width = u.shape[1] + v.shape[1]
    if width != critic.in_dim:
        raise ParameterError(f"pair width {width} does not match critic input width {critic.in_dim}")
    pairs = critic.input_buffer(n * n)
    grid = pairs.T.reshape(critic.in_dim, n, n)
    grid[: u.shape[1]] = u.T[:, :, None]
    grid[u.shape[1]:] = v.T[:, None, :]
    out, cache = critic.forward(pairs)
    return out.reshape(n, n), cache


# Each lower bound is one function of the (N, N) score matrix and MINE's
# moving average: (scores, ema) -> (value, loss, d loss / d scores, new ema).
# NWJ and InfoNCE return the moving average unchanged. With value_only=True
# the function returns the value alone, the same float, and skips the rest.
# MINE and NWJ leave the joint pairs out of their marginal terms one way: the
# diagonal is set to -inf before exp, and e^-inf = 0 drops it from the sum over
# the whole matrix, which is divided by N(N-1); so a joint score whose e^score
# would overflow neither warns nor makes an inf.
# The bounds reduce with the ufuncs themselves (np.add.reduce(x) / x.size,
# .diagonal(), np.minimum(np.maximum(...))): the same reductions in the same
# order as np.mean, np.diag, np.sum and np.clip, so the same bits, without
# those wrappers' Python-level cost on every step.


def mine_bound(
    scores: np.ndarray, ema: float, value_only: bool = False
) -> tuple[float, float, np.ndarray, float] | float:
    """Donsker-Varadhan value: mean joint score minus log mean marginal e^score.

    The loss is the bias-corrected objective of :func:`_mine_surrogate`, taken
    at the moving average of mean_{i != j} e^scores_ij after this batch's update
    (decay 0.99); its gradient treats the moving average as a constant. A
    moving average below MINE_EMA_FLOOR or infinite raises TrainingError.
    """
    n = scores.shape[0]
    marg = scores.copy()
    np.fill_diagonal(marg, -np.inf)
    shift = np.maximum.reduce(marg, axis=None)
    marg -= shift
    np.exp(marg, out=marg)
    logmeanexp = float(shift + np.log(np.add.reduce(marg, axis=None) / (n * (n - 1))))
    value = float(np.add.reduce(scores.diagonal()) / n) - logmeanexp
    if value_only:
        return value
    try:
        batch_mean = math.exp(logmeanexp)
    except OverflowError:
        batch_mean = math.inf
    ema = MINE_EMA_DECAY * ema + (1.0 - MINE_EMA_DECAY) * batch_mean
    if ema < MINE_EMA_FLOOR or math.isinf(ema):
        raise TrainingError(f"MINE moving average underflowed or overflowed: {ema!r}")
    loss, grad = _mine_surrogate(scores, ema)
    return value, loss, grad, ema


def _mine_surrogate(
    scores: np.ndarray, ema_denominator: float
) -> tuple[float, np.ndarray]:
    """Bias-corrected training objective with the moving average held fixed.

    loss = -mean(diag) + mean_{i != j} e^scores_ij / ema; its exact gradient
    replaces the log's data-dependent denominator with the moving average.
    """
    n = scores.shape[0]
    log_ema = math.log(ema_denominator)
    scaled = scores - log_ema
    np.fill_diagonal(scaled, -np.inf)
    np.exp(scaled, out=scaled)
    loss = -float(np.add.reduce(scores.diagonal()) / n) + float(
        np.add.reduce(scaled, axis=None)
    ) / (n * (n - 1))
    grad = np.divide(scaled, n * (n - 1), out=scaled)
    np.fill_diagonal(grad, -1.0 / n)
    return loss, grad


def nwj_bound(
    scores: np.ndarray, ema: float, value_only: bool = False
) -> tuple[float, float, np.ndarray, float] | float:
    """f-divergence form: mean joint score minus mean marginal e^(score-1)."""
    n = scores.shape[0]
    marg = scores - 1.0
    np.fill_diagonal(marg, -np.inf)
    np.exp(marg, out=marg)
    marginal = float(np.add.reduce(marg, axis=None) / (n * (n - 1)))
    value = float(np.add.reduce(scores.diagonal()) / n) - marginal
    if value_only:
        return value
    grad = np.divide(marg, n * (n - 1), out=marg)
    np.fill_diagonal(grad, -1.0 / n)
    return value, -value, grad, ema


def infonce_bound(
    scores: np.ndarray, ema: float, value_only: bool = False
) -> tuple[float, float, np.ndarray, float] | float:
    """Contrastive form; bounded above by log N for any score matrix."""
    n = scores.shape[0]
    shift = np.maximum.reduce(scores, axis=1, keepdims=True)
    expd = np.exp(scores - shift)
    rowsum = np.add.reduce(expd, axis=1)
    logsumexp = shift[:, 0] + np.log(rowsum)
    value = float(np.add.reduce(scores.diagonal() - logsumexp) / n) + math.log(n)
    if value_only:
        return value
    grad = np.divide(expd, rowsum[:, None], out=expd)
    grad.flat[:: n + 1] -= 1.0
    grad /= n
    return value, -value, grad, ema


LOWER_BOUNDS = {
    MiEstimatorKind.MINE: mine_bound,
    MiEstimatorKind.NWJ: nwj_bound,
    MiEstimatorKind.INFONCE: infonce_bound,
}


def club_bound(
    head: CondGaussianHead, u: np.ndarray, v: np.ndarray, value_only: bool = False
) -> tuple[float, float] | float:
    """Contrastive log-ratio upper bound and its loss, from one forward pass.

    The value is mean_i log q(v_i | u_i) - mean_{i,j} log q(v_j | u_i).
    q is fit by maximum likelihood on the joint pairs only
    (:func:`_club_nll`); the value itself is never differentiated.
    The batch, any array-like, is taken in here by :func:`_check_pair_batch`.
    """
    u, v = _check_pair_batch(u, v)
    return _club_bound(head, u, v, value_only)


def _club_bound(
    head: CondGaussianHead, u: np.ndarray, v: np.ndarray, value_only: bool
) -> tuple[float, float] | float:
    """:func:`club_bound` on a batch that :func:`_check_pair_batch` took in.

    For a diagonal Gaussian q the all-pairs mean needs only the batch mean
    m1_k and biased variance s_k of each column of v, since
    mean_j (v_jk - mu_ik)^2 = s_k + (m1_k - mu_ik)^2, and the log-normalizers
    cancel exactly, so the value is
    0.5 * mean_i sum_k inv_var_ik * [s_k + (m1_k - mu_ik)^2 - (v_ik - mu_ik)^2]:
    O(N d) work, with no (N, N) matrix.
    """
    cache = cond_gaussian_forward(head, u, v)
    n = v.shape[0]
    m1 = np.add.reduce(v, axis=0) / n
    centered = v - m1
    s = np.add.reduce(centered * centered, axis=0) / n
    gap = m1 - cache.mu
    contrast = 0.5 * cache.inv_var * (s + gap * gap) - cache.half_sq
    value = float(np.add.reduce(contrast, axis=None) / n)
    if value_only:
        return value
    return value, _club_nll(head, cache)


def _club_nll(head: CondGaussianHead, cache: CondGaussianCache) -> float:
    """-mean_i log q(v_i | u_i) from the cache; its gradient goes into ``head.grad``."""
    logpdf = cond_gaussian_logpdf(cache)
    n = logpdf.shape[0]
    cond_gaussian_logpdf_backward(head, cache, np.full(n, -1.0 / n))
    return -float(np.add.reduce(logpdf) / n)


def _bound(
    est: MiTermEstimator, u: np.ndarray, v: np.ndarray, value_only: bool
) -> tuple[float, float] | float:
    """The estimator's bound on the pair batch (u, v), of widths (u_dim, v_dim).

    With value_only=True, the value alone. Otherwise (value, loss), with the
    loss's gradient in ``est.net.grad`` and MINE's moving average advanced.
    """
    u, v = _check_pair_batch(u, v)
    if u.shape[1] != est.u_dim or v.shape[1] != est.v_dim:
        raise ParameterError(
            f"expected widths ({est.u_dim}, {est.v_dim}), got ({u.shape[1]}, {v.shape[1]})"
        )
    if est.kind is MiEstimatorKind.CLUB:
        return _club_bound(est.net, u, v, value_only)
    scores, cache = pair_scores(est.net, u, v)
    bound = LOWER_BOUNDS[est.kind]
    if value_only:
        return bound(scores, est.ema_denominator, value_only=True)
    value, loss, grad_scores, est.ema_denominator = bound(scores, est.ema_denominator)
    est.net.backward(cache, grad_scores.reshape(-1, 1))
    return value, loss


def evaluate(est: MiTermEstimator, u: np.ndarray, v: np.ndarray) -> float:
    """Current bound value on a batch, without any parameter update."""
    return _bound(est, u, v, value_only=True)


def train_step(est: MiTermEstimator, u: np.ndarray, v: np.ndarray) -> float:
    """The term's share of one training step on a joint batch: its bound
    value, returned, and its loss's gradient, written into ``est.net.grad``.

    Lower bounds ascend their own value (MINE through the EMA-corrected
    objective, whose moving average advances here); CLUB descends the
    conditional NLL while the returned value is the upper bound itself. No
    parameter moves: the caller applies the optimizer, as ``tc_train_step``
    does once for all terms. A non-finite loss, then a non-finite gradient,
    raises TrainingError, tagged with the estimator kind.
    """
    try:
        value, loss = _bound(est, u, v, value_only=False)
        if not math.isfinite(loss):
            raise TrainingError("non-finite loss")
        if not np.isfinite(est.net.grad).all():
            raise TrainingError("non-finite gradient")
    except TrainingError as exc:
        exc.kind = est.kind.value
        raise
    return value
