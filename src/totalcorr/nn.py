"""Minimal differentiable building blocks for the variational critics.

A single-hidden-layer ReLU MLP with hand-written reverse-mode gradients, a
conditional diagonal-Gaussian density head, and the Adam update on one flat
parameter vector ``theta``, read with the gradient vector ``grad`` that
backward fills in the same layout. Everything is plain float64 numpy and is
bit-deterministic given identical seeds and call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, TrainingError

DEFAULT_HIDDEN = 20
DEFAULT_LR = 1e-4
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

_LOG_2PI = math.log(2.0 * math.pi)


class MlpCache(NamedTuple):
    """Activations saved by a forward pass for the matching backward pass.

    ``x`` is the (in_dim + 1, rows) input whose last row is ones and
    ``hidden`` the (hidden, rows) post-ReLU activation, both feature-major.
    They alias the net's scratch buffers, so only the most recent forward's
    cache is valid; ``owner``/``token`` let backward reject stale ones.
    """

    x: np.ndarray
    hidden: np.ndarray
    owner: "Mlp"
    token: int


class Mlp:
    """y = w2 @ relu(w1 @ x + b1) + b2, applied row-wise to a batch.

    The parameters are views into one vector ``theta``: the first layer as
    one (hidden, in_dim + 1) block ``w1b1`` whose last column is the bias
    (``w1`` and ``b1`` are views of it), then ``w2`` and ``b2``. backward
    writes into the views ``dw1b1``, ``dw2`` and ``db2`` of ``grad``, which
    has the same layout. :func:`pack_parameters` moves nets into one pair.

    Per batch size, the net keeps an (in_dim + 1, rows) input buffer whose
    last row is ones, so one matmul with the block gives the pre-activations,
    bias included, and (hidden, rows) buffers for the hidden activations and
    the ReLU mask. Feature-major arrays make the work on a large batch
    contiguous matmuls and in-place passes. forward copies its input into the
    buffer unless the caller wrote it there through :meth:`input_buffer`, as
    the critic's pair grid does. As the buffers are reused, backward only
    accepts the cache of the latest forward.

    The buffers are kept for speed, not only to save allocations: a critic's
    two (20, 4096) float64 arrays take 1.3 MB, which glibc's malloc hands
    back to the OS when they are freed and page-faults in again on the next
    step. With fresh arrays per call an InfoNCE ``train_step`` at N = 64 took
    1.5 to 2.6 times as long, with 185 to 344 minor page faults per step
    against none (two sets of runs on a 2-core Xeon, numpy 2.4.6). Raising
    ``MALLOC_TRIM_THRESHOLD_`` and ``MALLOC_MMAP_THRESHOLD_`` in the
    environment also removes the faults, but that setting belongs to the
    process, not to the library.
    """

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray):
        w1, b1, w2, b2 = (np.asarray(a, dtype=np.float64) for a in (w1, b1, w2, b2))
        if w1.ndim != 2 or w2.ndim != 2:
            raise ParameterError("weight matrices must be 2-d")
        if b1.shape != (w1.shape[0],) or b2.shape != (w2.shape[0],):
            raise ParameterError("bias shapes do not match weight shapes")
        if w2.shape[1] != w1.shape[0]:
            raise ParameterError("hidden dimensions of w1 and w2 disagree")
        self.w1b1, self.w2, self.b2 = np.column_stack([w1, b1]), w2, b2
        theta = np.concatenate([p.ravel() for p in (self.w1b1, w2, b2)])
        self._bind(theta, np.zeros_like(theta))
        self._scratch: dict[int, tuple[np.ndarray, ...]] = {}
        self._token = 0

    def _bind(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Make the parameters views of ``theta`` and the gradients views of ``grad``."""
        shapes = (self.w1b1.shape, self.w2.shape, self.b2.shape)
        cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
        self.w1b1, self.w2, self.b2 = map(np.reshape, np.split(theta, cuts), shapes)
        self.dw1b1, self.dw2, self.db2 = map(np.reshape, np.split(grad, cuts), shapes)
        self.w1, self.b1 = self.w1b1[:, :-1], self.w1b1[:, -1]
        self.theta, self.grad = theta, grad

    @classmethod
    def initialize(
        cls,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        rng: np.random.Generator,
    ) -> "Mlp":
        """He-scaled Gaussian weights (ReLU-appropriate), zero biases.

        Draw order is w1 then w2 so initialization is reproducible from the
        caller's stream.
        """
        if min(in_dim, hidden_dim, out_dim) < 1:
            raise ParameterError("all dimensions must be positive")
        w1 = rng.standard_normal((hidden_dim, in_dim)) * math.sqrt(2.0 / in_dim)
        w2 = rng.standard_normal((out_dim, hidden_dim)) * math.sqrt(1.0 / hidden_dim)
        return cls(w1, np.zeros(hidden_dim), w2, np.zeros(out_dim))

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[0]

    def _buffers(self, rows: int) -> tuple[np.ndarray, ...]:
        """(x_aug, x, hidden, mask): the input with its ones row, its (rows,
        in_dim) view without it, and the (hidden_dim, rows) arrays."""
        bufs = self._scratch.get(rows)
        if bufs is None:
            x_aug = np.empty((self.in_dim + 1, rows))
            x_aug[-1] = 1.0
            hidden, mask = np.empty((self.hidden_dim, rows)), np.empty((self.hidden_dim, rows))
            bufs = (x_aug, x_aug[:-1].T, hidden, mask)
            self._scratch[rows] = bufs
        return bufs

    def input_buffer(self, rows: int) -> np.ndarray:
        """The (rows, in_dim) input view for batches of ``rows``, the transpose
        of a C-contiguous array; a batch written here is not copied by forward."""
        return self._buffers(rows)[1]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
        """(rows, out_dim) outputs of the (rows, in_dim) batch ``x``, and the cache."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ParameterError(
                f"input must be (batch, {self.in_dim}), got {x.shape}"
            )
        x_aug, x_view, hidden, _ = self._buffers(x.shape[0])
        if x is not x_view:
            x_view[...] = x
        np.matmul(self.w1b1, x_aug, out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        out = (self.w2 @ hidden).T + self.b2
        self._token += 1
        return out, MlpCache(x=x_aug, hidden=hidden, owner=self, token=self._token)

    def backward(self, cache: MlpCache, dout: np.ndarray) -> None:
        """Exact parameter gradients into ``grad``; ReLU subgradient at 0 is 0."""
        dout = np.asarray(dout, dtype=np.float64)
        if cache.owner is not self or cache.token != self._token:
            raise ParameterError("stale cache: backward must follow its own forward")
        x_aug, hidden = cache.x, cache.hidden
        rows = x_aug.shape[1]
        if dout.shape != (rows, self.out_dim):
            raise ParameterError("output gradient does not match the cached batch")
        # 0/1 float mask: relu'(pre) with the subgradient at 0 defined as 0
        mask = np.greater(hidden, 0.0, out=self._buffers(rows)[3])
        np.matmul(dout.T, hidden.T, out=self.dw2)
        dout.sum(axis=0, out=self.db2)
        if self.out_dim == 1:
            # dpre = w2^T dout^T * mask factorizes through the scalar output:
            # one matmul mask @ (x_aug * dout)^T gives the whole first-layer
            # block, bias column included, up to the factor w2, applied after
            np.matmul(mask, (x_aug * dout.T).T, out=self.dw1b1)
            self.dw1b1 *= self.w2[0][:, None]
        else:
            dpre = self.w2.T @ dout.T
            dpre *= mask
            np.matmul(dpre, x_aug[:-1].T, out=self.dw1b1[:, :-1])
            dpre.sum(axis=1, out=self.dw1b1[:, -1])


class CondGaussianHead:
    """Diagonal Gaussian q(v | u) with MLP mean and log-variance heads,
    packed in that order into one ``theta`` and one ``grad``."""

    def __init__(self, mu_net: Mlp, logvar_net: Mlp):
        if mu_net.in_dim != logvar_net.in_dim or mu_net.out_dim != logvar_net.out_dim:
            raise ParameterError("mean and log-variance heads must share dimensions")
        self.mu_net = mu_net
        self.logvar_net = logvar_net
        self.theta, self.grad = pack_parameters((mu_net, logvar_net))

    @classmethod
    def initialize(
        cls,
        u_dim: int,
        v_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
    ) -> "CondGaussianHead":
        mu_net = Mlp.initialize(u_dim, hidden_dim, v_dim, rng)
        logvar_net = Mlp.initialize(u_dim, hidden_dim, v_dim, rng)
        return cls(mu_net, logvar_net)

    @property
    def v_dim(self) -> int:
        return self.mu_net.out_dim


class CondGaussianCache(NamedTuple):
    mu_cache: MlpCache
    logvar_cache: MlpCache
    mu: np.ndarray
    logvar_raw: np.ndarray
    logvar: np.ndarray
    inv_var: np.ndarray
    v: np.ndarray


def cond_gaussian_forward(
    head: CondGaussianHead, u: np.ndarray, v: np.ndarray
) -> CondGaussianCache:
    """Both heads on the batch, log-variances clamped to [-10, 10]: the cache
    that the row log-densities, the all-pairs matrix and backward work from."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 2 or v.ndim != 2 or u.shape[0] != v.shape[0]:
        raise ParameterError("u and v must be 2-d with equal batch sizes")
    if v.shape[1] != head.v_dim:
        raise ParameterError(f"v must have width {head.v_dim}, got {v.shape[1]}")
    mu, mu_cache = head.mu_net.forward(u)
    logvar_raw, logvar_cache = head.logvar_net.forward(u)
    logvar = np.clip(logvar_raw, LOGVAR_MIN, LOGVAR_MAX)
    inv_var = np.exp(-logvar)
    return CondGaussianCache(mu_cache, logvar_cache, mu, logvar_raw, logvar, inv_var, v)


def logvar_passes(cache: CondGaussianCache) -> np.ndarray:
    """Where the clamp passes the raw log-variance through, and so its gradient."""
    return (cache.logvar_raw >= LOGVAR_MIN) & (cache.logvar_raw <= LOGVAR_MAX)


def cond_gaussian_logpdf(cache: CondGaussianCache) -> np.ndarray:
    """Row-wise log q(v_i | u_i) from the cache of :func:`cond_gaussian_forward`."""
    resid = cache.v - cache.mu
    per_dim = -0.5 * _LOG_2PI - 0.5 * cache.logvar - 0.5 * resid * resid * cache.inv_var
    return per_dim.sum(axis=1)


def cond_gaussian_logpdf_backward(
    head: CondGaussianHead, cache: CondGaussianCache, dlogpdf: np.ndarray
) -> None:
    """Gradients of sum(dlogpdf * logpdf) w.r.t. the head, into ``head.grad``.

    The clamp contributes zero gradient outside [-10, 10].
    """
    dlogpdf = np.asarray(dlogpdf, dtype=np.float64)
    if dlogpdf.shape != (cache.v.shape[0],):
        raise ParameterError("dlogpdf must be one value per row")
    w = dlogpdf[:, None]
    resid = cache.v - cache.mu
    dmu = w * resid * cache.inv_var
    dlogvar = w * (-0.5 + 0.5 * resid * resid * cache.inv_var)
    dlogvar *= logvar_passes(cache)
    head.mu_net.backward(cache.mu_cache, dmu)
    head.logvar_net.backward(cache.logvar_cache, dlogvar)


def cond_gaussian_logpdf_matrix(cache: CondGaussianCache) -> np.ndarray:
    """All-pairs log q(v_j | u_i) as an (N, N) matrix (no gradients).

    Built from the cache of :func:`cond_gaussian_forward` on (u, v) by
    expanding the squared residual; no network runs again.
    """
    mu, inv_var, v = cache.mu, cache.inv_var, cache.v
    const = np.sum(-0.5 * _LOG_2PI - 0.5 * cache.logvar - 0.5 * mu * mu * inv_var, axis=1)
    cross = (mu * inv_var) @ v.T
    quad = (0.5 * inv_var) @ (v * v).T
    return const[:, None] + cross - quad


def pack_parameters(nets: tuple[Mlp, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Copy the nets' parameters, net by net, into one ``theta`` and rebind
    every net's parameter and gradient views into it and a ``grad`` beside it."""
    theta = np.concatenate([net.theta for net in nets])
    grad = np.zeros_like(theta)
    offset = 0
    for net in nets:
        end = offset + net.theta.size
        net._bind(theta[offset:end], grad[offset:end])
        offset = end
    return theta, grad


@dataclass
class AdamState:
    """First/second-moment vectors for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    lr: float = DEFAULT_LR
    step_count: int = 0

    @classmethod
    def for_params(cls, theta: np.ndarray, lr: float = DEFAULT_LR) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta), lr=lr)


def adam_step(theta: np.ndarray, g: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to ``theta`` in place:
    theta -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)."""
    state.step_count += 1
    t = state.step_count
    if g.shape != theta.shape:
        raise ParameterError(f"gradient shape {g.shape} does not match parameters {theta.shape}")
    if not np.isfinite(g).all():
        raise TrainingError("non-finite gradient", step=t)
    state.m *= ADAM_BETA1
    state.m += g * (1.0 - ADAM_BETA1)
    state.v *= ADAM_BETA2
    a = g * g
    a *= 1.0 - ADAM_BETA2
    state.v += a
    np.divide(state.v, 1.0 - ADAM_BETA2 ** t, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS
    b = state.m / a
    b *= state.lr / (1.0 - ADAM_BETA1 ** t)
    theta -= b
