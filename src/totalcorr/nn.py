"""Minimal differentiable building blocks for the variational critics.

A single-hidden-layer ReLU MLP with hand-written reverse-mode gradients, a
conditional diagonal-Gaussian density head, and the Adam update on one flat
parameter vector ``theta``, read with the gradient vector ``grad`` that
backward fills in the same layout. Parameters, gradients, outputs and Adam
are float64 numpy; a net's activations, and the arithmetic on them, take the
dtype of its scratch: float32 for the critics of a MINE, NWJ or InfoNCE TC
estimator, float64 for every other net. Everything is bit-deterministic given
identical seeds and call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
    They alias the buffers of the net's :class:`MlpScratch`, so only the
    cache of the scratch's latest forward is valid, and only until its
    backward, which consumes it: after ``backward``, ``hidden`` holds the
    0/1 ReLU mask, not the activations. ``owner``/``token`` let backward
    reject a stale cache.
    """

    x: np.ndarray
    hidden: np.ndarray
    owner: "Mlp"
    token: int


@dataclass
class MlpScratch:
    """The activation buffers of the nets that share it, and its counter.

    ``inputs`` maps (in_dim, rows) to the (in_dim + 1, rows) input buffer,
    last row ones, and its (rows, in_dim) view without that row; ``hidden``
    maps (hidden_dim, rows) to the (hidden_dim, rows) activation buffer.
    ``token`` counts the forwards and the backwards of every net on it.
    ``dtype`` is the buffers' float type, and the type of the arithmetic of
    the forwards and backwards on them; parameters, gradients and outputs
    stay float64.
    """

    inputs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    hidden: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    token: int = 0
    dtype: type[np.floating] = np.float64


class Mlp:
    """y = w2 @ relu(w1 @ x + b1) + b2, applied row-wise to a batch.

    The parameters are views into one vector ``theta``: the first layer as
    one (hidden, in_dim + 1) block ``w1b1`` whose last column is the bias
    (``w1`` and ``b1`` are views of it), then ``w2`` and ``b2``. backward
    writes into the views ``dw1b1``, ``dw2`` and ``db2`` of ``grad``, which
    has the same layout. :func:`pack_parameters` moves nets into one pair.

    The activations live in ``scratch``, an :class:`MlpScratch`: per batch
    size, an (in_dim + 1, rows) input buffer whose last row is ones, so one
    matmul with the block gives the pre-activations, bias included, and a
    (hidden, rows) buffer for the hidden activations. Feature-major arrays
    make the work on a large batch contiguous matmuls and in-place passes.
    The buffers have the scratch's dtype: forward casts ``w1b1`` and ``w2``
    to it once per call and returns float64 outputs, and backward takes each
    G_o (below) in it and casts it as it writes it into the float64 gradient.
    forward copies its input into the buffer, cast as it is written, unless
    the caller wrote it there through :meth:`input_buffer`, as the critic's
    pair grid does. backward writes the ReLU mask ``hidden > 0`` over the
    activations in place and uses that, so no second (hidden, rows) array
    exists. For each output o it takes G_o = mask @ (x_aug * dout_o)^T, the
    first-layer block's gradient through that output up to the factor
    ``w2[o]``; as relu(pre) = mask * (w1b1 @ x_aug), the output weights'
    gradient is dw2[o, k] = sum_c w1b1[k, c] * G_o[k, c], with ``w1b1`` as
    the forward used it, so the activations are read once, for the mask.
    G_0 is written straight into ``dw1b1``, and each further output, as in a
    CLUB head with a two-wide v, adds w2[o] * G_o to it. A backward consumes
    its cache: backward accepts only the cache of the scratch's latest
    forward, once.

    Nets that never hold two live caches at once may share one scratch,
    assigned to each as ``scratch``. The critics of a ``TcEstimator``'s terms
    do, as each term runs its forward and backward before the next term's
    forward; their scratch is float32, one (20, 4096) activation buffer and
    one input buffer per input width at N = 64, 0.46 to 0.52 MB instead of
    4.3 MB with a private float64 scratch and mask per critic, so it stays
    in a 2 MB L2 cache from term to term, and each pass over it takes about
    half its float64 time. Every net starts with a float64 scratch of its
    own, and the two heads of a :class:`CondGaussianHead` keep theirs:
    :func:`cond_gaussian_forward` holds both heads' caches until both
    backwards. The buffers are kept rather than freed because glibc's malloc
    hands arrays of this size back to the OS and page-faults them in again
    on the next step; with fresh arrays per call an InfoNCE ``train_step``
    at N = 64 took 1.5 to 2.6 times as long (2-core Xeon, numpy 2.4.6).
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
        self.scratch = MlpScratch()

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

    def _buffers(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x_aug, x, hidden) from the scratch: the input with its ones row,
        its (rows, in_dim) view without it, and the (hidden_dim, rows) array."""
        inputs = self.scratch.inputs.get((self.in_dim, rows))
        if inputs is None:
            x_aug = np.empty((self.in_dim + 1, rows), dtype=self.scratch.dtype)
            x_aug[-1] = 1.0
            inputs = self.scratch.inputs[self.in_dim, rows] = (x_aug, x_aug[:-1].T)
        hidden = self.scratch.hidden.get((self.hidden_dim, rows))
        if hidden is None:
            hidden = self.scratch.hidden[self.hidden_dim, rows] = np.empty(
                (self.hidden_dim, rows), dtype=self.scratch.dtype
            )
        return *inputs, hidden

    def input_buffer(self, rows: int) -> np.ndarray:
        """The (rows, in_dim) input view for batches of ``rows``, the transpose
        of a C-contiguous array; a batch written here is not copied by forward."""
        return self._buffers(rows)[1]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
        """(rows, out_dim) outputs of the (rows, in_dim) batch ``x``, and the cache."""
        # no float64 copy: a batch already in the input buffer is used there,
        # any other is cast to the scratch's dtype as it is written in
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ParameterError(
                f"input must be (batch, {self.in_dim}), got {x.shape}"
            )
        x_aug, x_view, hidden = self._buffers(x.shape[0])
        if x is not x_view:
            x_view[...] = x
        dt = x_aug.dtype
        np.matmul(self.w1b1.astype(dt, copy=False), x_aug, out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        # float64 outputs: the bias is added in float64
        out = (self.w2.astype(dt, copy=False) @ hidden).T + self.b2
        self.scratch.token += 1
        return out, MlpCache(x=x_aug, hidden=hidden, owner=self, token=self.scratch.token)

    def backward(self, cache: MlpCache, dout: np.ndarray) -> None:
        """Exact parameter gradients into ``grad``, one first-layer product per
        output; ReLU subgradient at 0 is 0. Consumes the cache: its ``hidden``
        becomes the ReLU mask."""
        dout = np.asarray(dout, dtype=np.float64)
        if cache.owner is not self or cache.token != self.scratch.token:
            raise ParameterError("stale cache: backward must follow its own forward")
        x_aug, hidden = cache.x, cache.hidden
        rows = x_aug.shape[1]
        if dout.shape != (rows, self.out_dim):
            raise ParameterError("output gradient does not match the cached batch")
        self.scratch.token += 1
        dout.sum(axis=0, out=self.db2)
        # relu'(pre) as a 0/1 float mask, the subgradient at 0 defined as 0
        mask = np.greater(hidden, 0.0, out=hidden)
        # G_o, dw2[o] and w2[o] * G_o per output o, as the class docstring
        # derives; G_o is taken in the scratch's dtype, as a float64
        # (x_aug * dout_o) would make numpy run the float64 matmul
        dt = x_aug.dtype
        w1b1 = self.w1b1.astype(dt, copy=False)  # as forward used it
        for o in range(self.out_dim):
            g = self.dw1b1 if o == 0 else np.empty_like(self.dw1b1)
            np.matmul(mask, np.multiply(x_aug, dout[:, o], dtype=dt).T, out=g)
            np.add.reduce(w1b1 * g, axis=1, out=self.dw2[o])
            g *= self.w2[o][:, None]
            if o:
                self.dw1b1 += g


class CondGaussianHead:
    """Diagonal Gaussian q(v | u) with MLP mean and log-variance heads,
    packed in that order into one ``theta`` and one ``grad``. Each head keeps
    a scratch of its own: :func:`cond_gaussian_forward` holds both caches."""

    def __init__(self, mu_net: Mlp, logvar_net: Mlp):
        if mu_net.in_dim != logvar_net.in_dim or mu_net.out_dim != logvar_net.out_dim:
            raise ParameterError("mean and log-variance heads must share dimensions")
        self.mu_net = mu_net
        self.logvar_net = logvar_net
        self.theta, self.grad = pack_parameters((mu_net, logvar_net))

    def _bind(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Make both heads' vectors views of ``theta`` and ``grad``, mean head first."""
        cut = self.mu_net.theta.size
        self.mu_net._bind(theta[:cut], grad[:cut])
        self.logvar_net._bind(theta[cut:], grad[cut:])
        self.theta, self.grad = theta, grad

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
    """Both heads' caches and their outputs on one batch, with the residual
    ``resid`` = v - mu and ``half_sq`` = 0.5 * resid**2 * inv_var, which the
    row log-densities, their gradient and CLUB's value all use."""

    mu_cache: MlpCache
    logvar_cache: MlpCache
    mu: np.ndarray
    logvar_raw: np.ndarray
    logvar: np.ndarray
    inv_var: np.ndarray
    v: np.ndarray
    resid: np.ndarray
    half_sq: np.ndarray


def cond_gaussian_forward(
    head: CondGaussianHead, u: np.ndarray, v: np.ndarray
) -> CondGaussianCache:
    """Both heads on the batch, log-variances clamped to [-10, 10]: the cache
    that the row log-densities, CLUB's value and backward work from.
    The batch is used as ``club_bound`` took it in, unchecked but for v's
    width, which the heads, seeing only u, would not catch."""
    if v.shape[1] != head.v_dim:
        raise ParameterError(f"v must have width {head.v_dim}, got {v.shape[1]}")
    mu, mu_cache = head.mu_net.forward(u)
    logvar_raw, logvar_cache = head.logvar_net.forward(u)
    logvar = np.minimum(np.maximum(logvar_raw, LOGVAR_MIN), LOGVAR_MAX)
    inv_var = np.exp(-logvar)
    resid = v - mu
    half_sq = 0.5 * resid * resid * inv_var
    return CondGaussianCache(
        mu_cache, logvar_cache, mu, logvar_raw, logvar, inv_var, v, resid, half_sq
    )


def logvar_passes(cache: CondGaussianCache) -> np.ndarray:
    """Where the clamp passes the raw log-variance through, and so its gradient."""
    return (cache.logvar_raw >= LOGVAR_MIN) & (cache.logvar_raw <= LOGVAR_MAX)


def cond_gaussian_logpdf(cache: CondGaussianCache) -> np.ndarray:
    """Row-wise log q(v_i | u_i) from the cache of :func:`cond_gaussian_forward`."""
    return np.add.reduce(-0.5 * _LOG_2PI - 0.5 * cache.logvar - cache.half_sq, axis=1)


def cond_gaussian_logpdf_backward(
    head: CondGaussianHead, cache: CondGaussianCache, dlogpdf: np.ndarray
) -> None:
    """Gradients of sum(dlogpdf * logpdf) w.r.t. the head, into ``head.grad``.

    ``dlogpdf`` is a float64 array of one value per row. The clamp
    contributes zero gradient outside [-10, 10].
    """
    w = dlogpdf[:, None]
    dmu = w * cache.resid * cache.inv_var
    dlogvar = w * (-0.5 + cache.half_sq)
    dlogvar *= logvar_passes(cache)
    head.mu_net.backward(cache.mu_cache, dmu)
    head.logvar_net.backward(cache.logvar_cache, dlogvar)


def cond_gaussian_logpdf_matrix(cache: CondGaussianCache) -> np.ndarray:
    """All-pairs log q(v_j | u_i) as an (N, N) matrix (no gradients).

    Built from the cache of :func:`cond_gaussian_forward` on (u, v) by
    expanding the squared residual; no network runs again. No production
    path calls it: CLUB's value comes from batch moments (see
    ``estimators.club_bound``). It is the all-pairs reference for tests, and
    the benchmark's tracer looks it up by name.
    """
    mu, inv_var, v = cache.mu, cache.inv_var, cache.v
    const = np.add.reduce(-0.5 * _LOG_2PI - 0.5 * cache.logvar - 0.5 * mu * mu * inv_var, axis=1)
    cross = (mu * inv_var) @ v.T
    quad = (0.5 * inv_var) @ (v * v).T
    return const[:, None] + cross - quad


def pack_parameters(
    nets: Sequence[Mlp | CondGaussianHead],
) -> tuple[np.ndarray, np.ndarray]:
    """Copy the nets' parameters, net by net, into one ``theta`` and rebind
    every net's parameter and gradient views into it and a ``grad`` beside it.
    A net may be an :class:`Mlp` or a :class:`CondGaussianHead`."""
    theta = np.concatenate([net.theta for net in nets]) if nets else np.empty(0)
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
    theta -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps).

    Shapes and the gradient's finiteness are checked before anything moves:
    on either error ``theta``, the moments and ``step_count`` keep their values.
    """
    if g.shape != theta.shape:
        raise ParameterError(f"gradient shape {g.shape} does not match parameters {theta.shape}")
    if state.m.shape != theta.shape or state.v.shape != theta.shape:
        raise ParameterError(
            f"Adam state shapes {state.m.shape} and {state.v.shape} "
            f"do not match parameters {theta.shape}"
        )
    if not np.isfinite(g).all():
        raise TrainingError("non-finite gradient", step=state.step_count + 1)
    state.step_count += 1
    t = state.step_count
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
