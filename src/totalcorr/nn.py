"""Minimal differentiable building blocks for the variational critics.

A single-hidden-layer ReLU MLP with hand-written reverse-mode gradients, a
conditional diagonal-Gaussian density head, and the Adam update on one flat
parameter vector. Everything is plain float64 numpy and is bit-deterministic
given identical seeds and call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, TrainingError

DEFAULT_HIDDEN = 20

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

_LOG_2PI = math.log(2.0 * math.pi)


class MlpCache(NamedTuple):
    """Activations saved by a forward pass for the matching backward pass.

    ``hidden`` is the (hidden, rows) post-ReLU activation, feature-major. It
    aliases a reusable scratch buffer, so only the most recent forward's
    cache is valid; ``owner``/``token`` let backward reject stale ones.
    """

    x: np.ndarray
    hidden: np.ndarray
    owner: "Mlp"
    token: int


class Mlp:
    """y = w2 @ relu(w1 @ x + b1) + b2, applied row-wise to a batch.

    Hidden activations are kept feature-major, (hidden, rows), so that the
    work on a large batch runs as contiguous matmuls and in-place passes
    when ``x`` is the transpose of a contiguous (features, rows) array, as
    the critic's pair grid is. The hidden activations and the ReLU mask live
    in buffers reused across calls (training touches them tens of thousands
    of times), which is why backward only accepts the cache of the latest
    forward.

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
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ParameterError("weight matrices must be 2-d")
        if self.b1.shape != (self.w1.shape[0],) or self.b2.shape != (self.w2.shape[0],):
            raise ParameterError("bias shapes do not match weight shapes")
        if self.w2.shape[1] != self.w1.shape[0]:
            raise ParameterError("hidden dimensions of w1 and w2 disagree")
        self._scratch: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._token = 0

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

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays, keyed for the optimizer."""
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def _buffers(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """(hidden, mask) scratch arrays of shape (hidden_dim, batch)."""
        bufs = self._scratch.get(batch)
        if bufs is None:
            bufs = (np.empty((self.hidden_dim, batch)), np.empty((self.hidden_dim, batch)))
            self._scratch[batch] = bufs
        return bufs

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
        """(rows, out_dim) outputs of the (rows, in_dim) batch ``x``, and the cache."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ParameterError(
                f"input must be (batch, {self.in_dim}), got {x.shape}"
            )
        hidden = self._buffers(x.shape[0])[0]
        np.matmul(self.w1, x.T, out=hidden)
        hidden += self.b1[:, None]
        np.maximum(hidden, 0.0, out=hidden)
        out = (self.w2 @ hidden).T + self.b2
        self._token += 1
        return out, MlpCache(x=x, hidden=hidden, owner=self, token=self._token)

    def backward(self, cache: MlpCache, dout: np.ndarray) -> dict[str, np.ndarray]:
        """Exact parameter gradients of the forward map; ReLU subgradient at 0 is 0."""
        dout = np.asarray(dout, dtype=np.float64)
        if cache.owner is not self or cache.token != self._token:
            raise ParameterError("stale cache: backward must follow its own forward")
        x = cache.x
        rows = x.shape[0]
        if (
            x.ndim != 2
            or x.shape[1] != self.in_dim
            or cache.hidden.shape != (self.hidden_dim, rows)
            or dout.shape != (rows, self.out_dim)
        ):
            raise ParameterError("cache does not match this network and output gradient")
        # 0/1 float mask: relu'(pre) with the subgradient at 0 defined as 0
        mask = np.greater(cache.hidden, 0.0, out=self._buffers(rows)[1])
        dw2 = dout.T @ cache.hidden.T
        db2 = dout.sum(axis=0)
        if self.out_dim == 1:
            # dpre = w2^T dout^T * mask factorizes through the scalar output:
            # one matmul mask @ [x * dout, dout] gives dw1 and db1 up to the
            # factor w2, applied afterwards
            rhs = np.empty((self.in_dim + 1, rows))
            np.multiply(x.T, dout.T, out=rhs[:-1])
            rhs[-1] = dout[:, 0]
            g = mask @ rhs.T
            dw1 = self.w2[0][:, None] * g[:, :-1]
            db1 = self.w2[0] * g[:, -1]
        else:
            dpre = self.w2.T @ dout.T
            dpre *= mask
            dw1 = dpre @ x
            db1 = dpre.sum(axis=1)
        return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


class CondGaussianHead:
    """Diagonal Gaussian q(v | u) with MLP mean and log-variance heads."""

    def __init__(self, mu_net: Mlp, logvar_net: Mlp):
        if mu_net.in_dim != logvar_net.in_dim or mu_net.out_dim != logvar_net.out_dim:
            raise ParameterError("mean and log-variance heads must share dimensions")
        self.mu_net = mu_net
        self.logvar_net = logvar_net

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
    def u_dim(self) -> int:
        return self.mu_net.in_dim

    @property
    def v_dim(self) -> int:
        return self.mu_net.out_dim

    def parameters(self) -> dict[str, np.ndarray]:
        out = {f"mu.{k}": p for k, p in self.mu_net.parameters().items()}
        out.update({f"logvar.{k}": p for k, p in self.logvar_net.parameters().items()})
        return out


class CondGaussianCache(NamedTuple):
    mu_cache: MlpCache
    logvar_cache: MlpCache
    mu: np.ndarray
    logvar_raw: np.ndarray
    logvar: np.ndarray
    inv_var: np.ndarray
    resid: np.ndarray
    v: np.ndarray


def cond_gaussian_logpdf(
    head: CondGaussianHead, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, CondGaussianCache]:
    """Row-wise log q(v_i | u_i), log-variances clamped to [-10, 10], and the
    cache that the backward pass and the all-pairs matrix both work from."""
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
    resid = v - mu
    per_dim = -0.5 * _LOG_2PI - 0.5 * logvar - 0.5 * resid * resid * inv_var
    logpdf = per_dim.sum(axis=1)
    cache = CondGaussianCache(mu_cache, logvar_cache, mu, logvar_raw, logvar, inv_var, resid, v)
    return logpdf, cache


def cond_gaussian_logpdf_backward(
    head: CondGaussianHead, cache: CondGaussianCache, dlogpdf: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of sum(dlogpdf * logpdf) w.r.t. the head parameters.

    The clamp contributes zero gradient outside [-10, 10].
    """
    dlogpdf = np.asarray(dlogpdf, dtype=np.float64)
    if dlogpdf.shape != (cache.v.shape[0],):
        raise ParameterError("dlogpdf must be one value per row")
    w = dlogpdf[:, None]
    dmu = w * cache.resid * cache.inv_var
    dlogvar = w * (-0.5 + 0.5 * cache.resid * cache.resid * cache.inv_var)
    dlogvar *= (cache.logvar_raw >= LOGVAR_MIN) & (cache.logvar_raw <= LOGVAR_MAX)
    mu_grads = head.mu_net.backward(cache.mu_cache, dmu)
    lv_grads = head.logvar_net.backward(cache.logvar_cache, dlogvar)
    grads = {f"mu.{k}": g for k, g in mu_grads.items()}
    grads.update({f"logvar.{k}": g for k, g in lv_grads.items()})
    return grads


def cond_gaussian_logpdf_matrix(cache: CondGaussianCache) -> np.ndarray:
    """All-pairs log q(v_j | u_i) as an (N, N) matrix (no gradients).

    Built from the cache of :func:`cond_gaussian_logpdf` on (u, v) by
    expanding the squared residual; no network runs again.
    """
    mu, inv_var, v = cache.mu, cache.inv_var, cache.v
    const = np.sum(-0.5 * _LOG_2PI - 0.5 * cache.logvar - 0.5 * mu * mu * inv_var, axis=1)
    cross = (mu * inv_var) @ v.T
    quad = (0.5 * inv_var) @ (v * v).T
    return const[:, None] + cross - quad


def pack_parameters(nets: tuple[Mlp, ...]) -> np.ndarray:
    """Copy the nets' arrays into one contiguous vector and rebind them as views.

    The layout is net by net in ``parameters()`` order, which is also the order
    of the gradient dicts that ``backward`` returns, so concatenating those
    dicts gives the gradient of the returned vector.
    """
    theta = np.concatenate([p.ravel() for net in nets for p in net.parameters().values()])
    offset = 0
    for net in nets:
        for name, p in net.parameters().items():
            setattr(net, name, theta[offset : offset + p.size].reshape(p.shape))
            offset += p.size
    return theta


@dataclass
class AdamState:
    """First/second-moment vectors for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0

    @classmethod
    def for_params(cls, theta: np.ndarray, lr: float = 1e-4) -> "AdamState":
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
    state.m *= state.beta1
    state.m += g * (1.0 - state.beta1)
    state.v *= state.beta2
    a = g * g
    a *= 1.0 - state.beta2
    state.v += a
    np.divide(state.v, 1.0 - state.beta2 ** t, out=a)
    np.sqrt(a, out=a)
    a += state.eps
    b = state.m / a
    b *= state.lr / (1.0 - state.beta1 ** t)
    theta -= b
