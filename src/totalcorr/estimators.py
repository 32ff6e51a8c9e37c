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
    AdamState,
    CondGaussianCache,
    CondGaussianHead,
    DEFAULT_HIDDEN,
    Mlp,
    MlpCache,
    adam_step,
    cond_gaussian_forward,
    cond_gaussian_logpdf,
    cond_gaussian_logpdf_backward,
    cond_gaussian_logpdf_matrix,
)

MINE_EMA_DECAY = 0.99
MINE_EMA_FLOOR = 1e-30


class MiEstimatorKind(Enum):
    MINE = "MINE"
    NWJ = "NWJ"
    INFONCE = "INFONCE"
    CLUB = "CLUB"

    @property
    def is_upper_bound(self) -> bool:
        return self is MiEstimatorKind.CLUB

    @property
    def is_lower_bound(self) -> bool:
        return not self.is_upper_bound


@dataclass
class MiTermEstimator:
    """One trainable MI estimator: critic or conditional head plus optimizer.

    Every parameter array of the critic or head is a view into ``theta``, the
    one vector that Adam updates; backward fills ``grad``, laid out the same.
    """

    kind: MiEstimatorKind
    u_dim: int
    v_dim: int
    critic: Mlp | None
    head: CondGaussianHead | None
    theta: np.ndarray
    grad: np.ndarray
    adam: AdamState
    ema_denominator: float = 1.0


def create_term_estimator(
    kind: MiEstimatorKind,
    u_dim: int,
    v_dim: int,
    rng: np.random.Generator,
    hidden: int = DEFAULT_HIDDEN,
    lr: float = 1e-4,
) -> MiTermEstimator:
    if min(u_dim, v_dim) < 1:
        raise ParameterError("u_dim and v_dim must be positive")
    if kind is MiEstimatorKind.CLUB:
        critic = None
        head = owner = CondGaussianHead.initialize(u_dim, v_dim, hidden, rng)
    else:
        critic = owner = Mlp.initialize(u_dim + v_dim, hidden, 1, rng)
        head = None
    return MiTermEstimator(
        kind=kind,
        u_dim=u_dim,
        v_dim=v_dim,
        critic=critic,
        head=head,
        theta=owner.theta,
        grad=owner.grad,
        adam=AdamState.for_params(owner.theta, lr=lr),
    )


def _check_pair_batch(u: np.ndarray, v: np.ndarray) -> int:
    if u.ndim != 2 or v.ndim != 2:
        raise ParameterError("u and v must be 2-d batches")
    if u.shape[0] != v.shape[0]:
        raise ParameterError(f"batch sizes disagree: {u.shape[0]} vs {v.shape[0]}")
    if u.shape[0] < 2:
        raise ParameterError("contrastive bounds need a batch of at least 2")
    return u.shape[0]


def pair_scores(critic: Mlp, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Pairwise critic scores: entry (i, j) = critic(concat(u_i, v_j)).

    The diagonal holds joint-pair scores; the off-diagonal holds
    product-of-marginals scores. Returns the (N, N) scores, a fresh array,
    and the forward cache. The N*N pairs are written feature-major straight
    into the critic's input buffer, pair (i, j) in column i*N + j.
    """
    n = _check_pair_batch(u, v)
    width = u.shape[1] + v.shape[1]
    if width != critic.in_dim:
        raise ParameterError(f"pair width {width} does not match critic input width {critic.in_dim}")
    pairs = critic.input_buffer(n * n)
    grid = pairs.T.reshape(critic.in_dim, n, n)
    grid[: u.shape[1]] = u.T[:, :, None]
    grid[u.shape[1]:] = v.T[:, None, :]
    out, cache = critic.forward(pairs)
    return out.reshape(n, n), cache


_offdiag_masks: dict[int, np.ndarray] = {}


def _offdiag(n: int) -> np.ndarray:
    mask = _offdiag_masks.get(n)
    if mask is None:
        mask = ~np.eye(n, dtype=bool)
        mask.setflags(write=False)
        _offdiag_masks[n] = mask
    return mask


# Each lower bound is one function of the (N, N) score matrix and MINE's
# moving average: (scores, ema) -> (value, loss, d loss / d scores, new ema).
# NWJ and InfoNCE return the moving average unchanged. With value_only=True
# the function returns the value alone, the same float, and skips the rest.


def mine_bound(
    scores: np.ndarray, ema: float, value_only: bool = False
) -> tuple[float, float, np.ndarray, float] | float:
    """Donsker-Varadhan value: mean joint score minus log mean marginal e^score.

    The loss is the bias-corrected objective of :func:`_mine_surrogate`, taken
    at the moving average of mean_offdiag(e^scores) after this batch's update
    (decay 0.99); its gradient treats the moving average as a constant.
    """
    vals = scores[_offdiag(scores.shape[0])]
    shift = np.max(vals)
    logmeanexp = float(shift + np.log(np.mean(np.exp(vals - shift))))
    value = float(np.mean(np.diag(scores))) - logmeanexp
    if value_only:
        return value
    try:
        batch_mean = math.exp(logmeanexp)
    except OverflowError:
        batch_mean = math.inf
    ema = MINE_EMA_DECAY * ema + (1.0 - MINE_EMA_DECAY) * batch_mean
    loss, grad = _mine_surrogate(scores, ema)
    return value, loss, grad, ema


def _mine_surrogate(
    scores: np.ndarray, ema_denominator: float
) -> tuple[float, np.ndarray]:
    """Bias-corrected training objective with the moving average held fixed.

    loss = -mean(diag) + mean_offdiag(e^scores) / ema; its exact gradient
    replaces the log's data-dependent denominator with the moving average.
    """
    n = scores.shape[0]
    log_ema = math.log(ema_denominator)
    scaled = np.exp(scores - log_ema) * _offdiag(n)
    loss = -float(np.mean(np.diag(scores))) + float(np.sum(scaled)) / (n * (n - 1))
    grad = scaled / (n * (n - 1))
    np.fill_diagonal(grad, -1.0 / n)
    return loss, grad


def nwj_bound(
    scores: np.ndarray, ema: float, value_only: bool = False
) -> tuple[float, float, np.ndarray, float] | float:
    """f-divergence form: mean joint score minus mean marginal e^(score-1)."""
    n = scores.shape[0]
    marg = np.exp(scores - 1.0)
    value = float(np.mean(np.diag(scores))) - float(np.mean(marg[_offdiag(n)]))
    if value_only:
        return value
    grad = marg / (n * (n - 1))
    np.fill_diagonal(grad, -1.0 / n)
    return value, -value, grad, ema


def infonce_bound(
    scores: np.ndarray, ema: float, value_only: bool = False
) -> tuple[float, float, np.ndarray, float] | float:
    """Contrastive form; bounded above by log N for any score matrix."""
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


LOWER_BOUNDS = {
    MiEstimatorKind.MINE: mine_bound,
    MiEstimatorKind.NWJ: nwj_bound,
    MiEstimatorKind.INFONCE: infonce_bound,
}


def club_bound(
    head: CondGaussianHead, u: np.ndarray, v: np.ndarray, value_only: bool = False
) -> tuple[float, float] | float:
    """Contrastive log-ratio upper bound and its loss, from one forward pass.

    The value, mean_i log q(v_i | u_i) - mean_{i,j} log q(v_j | u_i), comes
    from the all-pairs matrix. q is fit by maximum likelihood on the joint
    pairs only (:func:`_club_nll`); the value itself is never differentiated.
    """
    _check_pair_batch(u, v)
    cache = cond_gaussian_forward(head, u, v)
    logq = cond_gaussian_logpdf_matrix(cache)
    value = float(np.mean(np.diag(logq)) - np.mean(logq))
    if value_only:
        return value
    return value, _club_nll(head, cache)


def _club_nll(head: CondGaussianHead, cache: CondGaussianCache) -> float:
    """-mean_i log q(v_i | u_i) from the cache; its gradient goes into ``head.grad``."""
    logpdf = cond_gaussian_logpdf(cache)
    n = logpdf.shape[0]
    cond_gaussian_logpdf_backward(head, cache, np.full(n, -1.0 / n))
    return -float(np.mean(logpdf))


def _term_batch(est: MiTermEstimator, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """u and v as float64 pair batches of the estimator's widths (u_dim, v_dim)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    _check_pair_batch(u, v)
    if u.shape[1] != est.u_dim or v.shape[1] != est.v_dim:
        raise ParameterError(
            f"expected widths ({est.u_dim}, {est.v_dim}), got ({u.shape[1]}, {v.shape[1]})"
        )
    return u, v


def evaluate(est: MiTermEstimator, u: np.ndarray, v: np.ndarray) -> float:
    """Current bound value on a batch, without any parameter update."""
    u, v = _term_batch(est, u, v)
    if est.kind is MiEstimatorKind.CLUB:
        return club_bound(est.head, u, v, value_only=True)
    scores, _ = pair_scores(est.critic, u, v)
    return LOWER_BOUNDS[est.kind](scores, est.ema_denominator, value_only=True)


def train_step(est: MiTermEstimator, u: np.ndarray, v: np.ndarray) -> float:
    """One optimizer step on a joint batch; returns the step's bound value.

    Lower bounds ascend their own value (MINE through the EMA-corrected
    objective); CLUB descends the conditional NLL while the returned value is
    the upper bound itself.
    """
    u, v = _term_batch(est, u, v)
    step = est.adam.step_count + 1
    if est.kind is MiEstimatorKind.CLUB:
        value, loss = club_bound(est.head, u, v)
    else:
        scores, cache = pair_scores(est.critic, u, v)
        value, loss, grad_scores, ema = LOWER_BOUNDS[est.kind](scores, est.ema_denominator)
        if ema < MINE_EMA_FLOOR or math.isinf(ema):
            raise TrainingError(
                f"MINE moving average underflowed or overflowed: {ema!r}",
                kind=est.kind.value,
                step=step,
            )
        est.ema_denominator = ema
        est.critic.backward(cache, grad_scores.reshape(-1, 1))
    if not math.isfinite(loss):
        raise TrainingError("non-finite loss", kind=est.kind.value, step=step)
    try:
        adam_step(est.theta, est.grad, est.adam)
    except TrainingError as exc:
        exc.kind = est.kind.value
        raise
    return value
