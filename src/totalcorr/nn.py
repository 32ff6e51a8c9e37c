"""Minimal differentiable building blocks for the variational critics.

A single-hidden-layer ReLU MLP of one or more groups that share one input,
with hand-written reverse-mode gradients; a conditional diagonal-Gaussian
density read from the two groups of one such MLP; and the Adam update on one
flat parameter vector ``theta``, read with the gradient vector ``grad`` that
backward fills in the same layout. Parameters, gradients, outputs and Adam
are float64 numpy; a net's activations, and the arithmetic on them, take the
dtype of its scratch, which the nets of one TC estimator share: float32 for
the critics of a MINE, NWJ or InfoNCE estimator, float64 for CLUB's heads and
for every net on its own. Everything is bit-deterministic given identical
seeds and call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, TrainingError, check_positive_int

DEFAULT_HIDDEN = 20
DEFAULT_LR = 1e-4
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

_LOG_2PI = math.log(2.0 * math.pi)


class MlpCache(NamedTuple):
    """Activations saved by a forward pass for the matching backward pass.

    ``x`` is the (in_dim + 1, rows) input whose last row is ones and
    ``hidden`` the (groups * hidden_dim, rows) post-ReLU activation, both
    feature-major. They alias the buffers of the net's :class:`MlpScratch`,
    so only the cache of the scratch's latest forward is valid, and only
    until its backward, which consumes it: after ``backward``, ``hidden``
    holds the 0/1 ReLU mask, not the activations. ``owner``/``token`` let
    backward reject a stale cache.
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
    maps (groups, hidden_dim, rows) to the (groups * hidden_dim, rows)
    activation buffer and its (groups, hidden_dim, rows) view.
    ``token`` counts the forwards and the backwards of every net on it.
    ``dtype`` is the buffers' float type, and the type of the arithmetic of
    the forwards and backwards on them; parameters, gradients and outputs
    stay float64.
    """

    inputs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    hidden: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    token: int = 0
    dtype: type[np.floating] = np.float64


class Mlp:
    """``groups`` nets y_g = w2_g @ relu(w1_g @ x + b1_g) + b2_g on one input,
    applied row-wise to a batch; a scalar critic has one group.

    ``hidden_dim`` and ``out_dim`` are one group's widths. Group g owns rows
    g*hidden_dim to (g+1)*hidden_dim of ``w1`` and ``b1`` and rows g*out_dim
    to (g+1)*out_dim of ``w2`` and ``b2``, so its hidden block feeds only
    its own outputs; forward returns the groups' outputs side by side,
    (rows, groups * out_dim). CLUB's q(v | u) is one net of two groups, the
    mean and the log-variance, so both run in one pass: one first-layer
    matmul over the stacked hidden array, one ReLU, one mask.

    The parameters are views into one vector ``theta``: the first layer as
    one (groups * hidden_dim, in_dim + 1) block ``w1b1`` whose last column
    is the bias (``w1`` and ``b1`` are views of it), then ``w2`` and ``b2``.
    backward writes into the views ``dw1b1``, ``dw2`` and ``db2`` of
    ``grad``, which has the same layout. :func:`pack_parameters` moves nets
    into one pair.

    The activations live in ``scratch``, an :class:`MlpScratch`: per batch
    size, an (in_dim + 1, rows) input buffer whose last row is ones, so one
    matmul with the block gives the pre-activations, bias included, and a
    (groups * hidden_dim, rows) buffer for the hidden activations.
    Feature-major arrays make the work on a large batch contiguous matmuls
    and in-place passes. The buffers have the scratch's dtype: forward casts
    ``w1b1`` and ``w2`` to it once per call and returns float64 outputs, and
    backward casts the output gradient to it once, takes each G_o (below) in
    it and casts G_o as it writes it into the float64 gradient. forward
    copies its input into the buffer, cast as it is written, unless the
    caller wrote it there through :meth:`input_buffer`, as the critic's pair
    grid does. backward writes the ReLU mask ``hidden > 0`` over the
    activations in place and uses that, so no second hidden array exists.
    For each output o of a group it takes G_o = mask @ (x_aug * dout_o)^T
    over the group's hidden block, the first-layer block's gradient through
    that output up to the factor ``w2[o]``, for all groups in one batched
    matmul; as relu(pre) = mask * (w1b1 @ x_aug), the output weights'
    gradient is dw2[o, k] = sum_c w1b1[k, c] * G_o[k, c], with ``w1b1`` as
    the forward used it, so the activations are read once, for the mask. G_0
    is written straight into ``dw1b1``, and each further output of a group,
    as in a CLUB head with a two-wide v, adds w2[o] * G_o to it. A backward
    consumes its cache: backward accepts only the cache of the scratch's
    latest forward, once.

    Nets that never hold two live caches at once may share one scratch,
    assigned to each as ``scratch``. The nets of a ``TcEstimator``'s terms
    do, for every estimator kind, as each term runs its forward and backward
    before the next term's forward. The critics' scratch is float32, one
    (20, 4096) activation buffer and one input buffer per input width at
    N = 64, 0.46 to 0.52 MB instead of 4.3 MB with a private float64 scratch
    and mask per critic, so it stays in a 2 MB L2 cache from term to term,
    and each pass over it takes about half its float64 time. CLUB's heads
    share a float64 one. Every net starts with a float64 scratch of its own.
    The buffers are kept rather than freed because glibc's malloc hands
    arrays of this size back to the OS and page-faults them in again on the
    next step; with fresh arrays per call an InfoNCE ``train_step`` at
    N = 64 took 1.5 to 2.6 times as long (2-core Xeon, numpy 2.4.6).
    """

    def __init__(
        self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray, groups: int = 1
    ):
        w1, b1, w2, b2 = (np.asarray(a, dtype=np.float64) for a in (w1, b1, w2, b2))
        self.groups = check_positive_int("groups", groups)
        if w1.ndim != 2 or w2.ndim != 2:
            raise ParameterError("weight matrices must be 2-d")
        if b1.shape != (w1.shape[0],) or b2.shape != (w2.shape[0],):
            raise ParameterError("bias shapes do not match weight shapes")
        if w1.shape[0] != self.groups * w2.shape[1]:
            raise ParameterError("hidden dimensions of w1 and w2 disagree")
        if w2.shape[0] % self.groups:
            raise ParameterError(f"w2 has {w2.shape[0]} rows, not a multiple of {self.groups} groups")
        self.in_dim, self.hidden_dim, self.out_dim = w1.shape[1], w2.shape[1], w2.shape[0] // self.groups
        self.w1b1, self.w2, self.b2 = np.column_stack([w1, b1]), w2, b2
        theta = np.concatenate([p.ravel() for p in (self.w1b1, w2, b2)])
        self._bind(theta, np.zeros_like(theta))
        self.scratch = MlpScratch()

    def _bind(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Make the parameters views of ``theta`` and the gradients views of
        ``grad``, with the per-group views that forward and backward use."""
        shapes = (self.w1b1.shape, self.w2.shape, self.b2.shape)
        cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
        self.w1b1, self.w2, self.b2 = map(np.reshape, np.split(theta, cuts), shapes)
        self.dw1b1, self.dw2, self.db2 = map(np.reshape, np.split(grad, cuts), shapes)
        self.w1, self.b1 = self.w1b1[:, :-1], self.w1b1[:, -1]
        self.theta, self.grad = theta, grad
        g, h = self.groups, self.hidden_dim
        self._w1b1g, self._dw1b1g = (a.reshape(g, h, -1) for a in (self.w1b1, self.dw1b1))
        self._w2g, self._dw2g = (a.reshape(g, -1, h) for a in (self.w2, self.dw2))
        self._db2g = self.db2.reshape(g, -1)

    @classmethod
    def initialize(
        cls,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        groups: int = 1,
    ) -> "Mlp":
        """He-scaled Gaussian weights (ReLU-appropriate), zero biases; the
        widths are per group.

        Draw order is group by group, w1 then w2, so initialization is
        reproducible from the caller's stream.
        """
        widths = {"in_dim": in_dim, "hidden_dim": hidden_dim, "out_dim": out_dim, "groups": groups}
        for name, width in widths.items():
            check_positive_int(name, width)
        draws = [
            (rng.standard_normal((hidden_dim, in_dim)) * math.sqrt(2.0 / in_dim),
             rng.standard_normal((out_dim, hidden_dim)) * math.sqrt(1.0 / hidden_dim))
            for _ in range(groups)
        ]
        w1, w2 = (np.concatenate(blocks) for blocks in zip(*draws))
        return cls(w1, np.zeros(groups * hidden_dim), w2, np.zeros(groups * out_dim), groups)

    def _buffers(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x_aug, x, hidden, grouped hidden) from the scratch: the input with
        its ones row, its (rows, in_dim) view without it, the
        (groups * hidden_dim, rows) array and its (groups, hidden_dim, rows) view."""
        inputs = self.scratch.inputs.get((self.in_dim, rows))
        if inputs is None:
            x_aug = np.empty((self.in_dim + 1, rows), dtype=self.scratch.dtype)
            x_aug[-1] = 1.0
            inputs = self.scratch.inputs[self.in_dim, rows] = (x_aug, x_aug[:-1].T)
        shape = (self.groups, self.hidden_dim, rows)
        hidden = self.scratch.hidden.get(shape)
        if hidden is None:
            flat = np.empty((self.groups * self.hidden_dim, rows), dtype=self.scratch.dtype)
            hidden = self.scratch.hidden[shape] = (flat, flat.reshape(shape))
        return *inputs, *hidden

    def input_buffer(self, rows: int) -> np.ndarray:
        """The (rows, in_dim) input view for batches of ``rows``, the transpose
        of a C-contiguous array; a batch written here is not copied by forward."""
        return self._buffers(rows)[1]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
        """(rows, groups * out_dim) outputs of the (rows, in_dim) batch ``x``,
        group by group, and the cache."""
        # no float64 copy: a batch already in the input buffer is used there,
        # any other is cast to the scratch's dtype as it is written in
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ParameterError(
                f"input must be (batch, {self.in_dim}), got {x.shape}"
            )
        rows = x.shape[0]
        x_aug, x_view, hidden, hidden_g = self._buffers(rows)
        if x is not x_view:
            x_view[...] = x
        dt = x_aug.dtype
        np.matmul(self.w1b1.astype(dt, copy=False), x_aug, out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        # each group's outputs from its own hidden block; float64 outputs:
        # the bias is added in float64
        out = np.matmul(self._w2g.astype(dt, copy=False), hidden_g).reshape(-1, rows).T + self.b2
        self.scratch.token += 1
        return out, MlpCache(x=x_aug, hidden=hidden, owner=self, token=self.scratch.token)

    def backward(self, cache: MlpCache, dout: np.ndarray) -> None:
        """Exact parameter gradients into ``grad``, one first-layer product per
        output of a group, all groups at once; ReLU subgradient at 0 is 0.
        ``dout`` is shaped as forward's outputs. Consumes the cache: its
        ``hidden`` becomes the ReLU mask."""
        dout = np.asarray(dout, dtype=np.float64)
        if cache.owner is not self or cache.token != self.scratch.token:
            raise ParameterError("stale cache: backward must follow its own forward")
        x_aug, hidden = cache.x, cache.hidden
        rows = x_aug.shape[1]
        groups, out_dim = self.groups, self.out_dim
        if dout.shape != (rows, groups * out_dim):
            raise ParameterError("output gradient does not match the cached batch")
        self.scratch.token += 1
        # group by group, each group's (rows, out_dim) block C-contiguous (a
        # copy for two groups), so db2 sums each block in a one-group net's order
        dout = np.ascontiguousarray(dout.reshape(rows, groups, out_dim).transpose(1, 0, 2))
        np.add.reduce(dout, axis=1, out=self._db2g)
        # relu'(pre) as a 0/1 float mask, the subgradient at 0 defined as 0
        mask = np.greater(hidden, 0.0, out=hidden).reshape(groups, -1, rows)
        # G_o, dw2[o] and w2[o] * G_o per output o of every group, as the
        # class docstring derives. dout is cast to the scratch's dtype once,
        # so x_aug * dout_o and G_o are taken in it: a float64 product would
        # make numpy run the float64 matmul, and a cast inside the product
        # makes numpy buffer it
        dt = x_aug.dtype
        w1b1 = self._w1b1g.astype(dt, copy=False)  # as forward used it
        dout = dout.astype(dt, copy=False)
        for o in range(out_dim):
            g = self._dw1b1g if o == 0 else np.empty_like(self._dw1b1g)
            np.matmul(mask, np.multiply(x_aug, dout[:, None, :, o]).transpose(0, 2, 1), out=g)
            np.add.reduce(w1b1 * g, axis=2, out=self._dw2g[:, o])
            g *= self._w2g[:, o, :, None]
            if o:
                self._dw1b1g += g


class CondGaussianCache(NamedTuple):
    """The head's cache and its two output blocks on one batch, with the
    residual ``resid`` = v - mu and ``half_sq`` = 0.5 * resid**2 * inv_var,
    which the row log-densities, their gradient and CLUB's value all use."""

    net_cache: MlpCache
    mu: np.ndarray
    logvar_raw: np.ndarray
    logvar: np.ndarray
    inv_var: np.ndarray
    v: np.ndarray
    resid: np.ndarray
    half_sq: np.ndarray


def cond_gaussian_forward(head: Mlp, u: np.ndarray, v: np.ndarray) -> CondGaussianCache:
    """The diagonal Gaussian q(v | u) of a two-group ``head`` on the batch,
    group 0 the mean and group 1 the raw log-variance, clamped to [-10, 10]:
    the cache that the row log-densities, CLUB's value and backward work from.
    The batch is used as ``club_bound`` took it in, unchecked but for v's
    width, which the head, seeing only u, would not catch."""
    if head.groups != 2:
        raise ParameterError(f"a Gaussian head has 2 groups, got {head.groups}")
    if v.shape[1] != head.out_dim:
        raise ParameterError(f"v must have width {head.out_dim}, got {v.shape[1]}")
    out, net_cache = head.forward(u)
    mu, logvar_raw = out[:, : head.out_dim], out[:, head.out_dim :]
    logvar = np.minimum(np.maximum(logvar_raw, LOGVAR_MIN), LOGVAR_MAX)
    inv_var = np.exp(-logvar)
    resid = v - mu
    half_sq = 0.5 * resid * resid * inv_var
    return CondGaussianCache(net_cache, mu, logvar_raw, logvar, inv_var, v, resid, half_sq)


def logvar_passes(cache: CondGaussianCache) -> np.ndarray:
    """Where the clamp passes the raw log-variance through, and so its gradient."""
    return (cache.logvar_raw >= LOGVAR_MIN) & (cache.logvar_raw <= LOGVAR_MAX)


def cond_gaussian_logpdf(cache: CondGaussianCache) -> np.ndarray:
    """Row-wise log q(v_i | u_i) from the cache of :func:`cond_gaussian_forward`."""
    return np.add.reduce(-0.5 * _LOG_2PI - 0.5 * cache.logvar - cache.half_sq, axis=1)


def cond_gaussian_logpdf_backward(head: Mlp, cache: CondGaussianCache, dlogpdf: np.ndarray) -> None:
    """Gradients of sum(dlogpdf * logpdf) w.r.t. the head, into ``head.grad``.

    ``dlogpdf`` is a float64 array of one value per row. The gradients of
    the mean and of the raw log-variance go to one backward, side by side.
    The clamp contributes zero gradient outside [-10, 10].
    """
    w = dlogpdf[:, None]
    dlogvar = w * (-0.5 + cache.half_sq)
    dlogvar *= logvar_passes(cache)
    head.backward(cache.net_cache, np.concatenate((w * cache.resid * cache.inv_var, dlogvar), axis=1))


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


def pack_parameters(nets: Sequence[Mlp]) -> tuple[np.ndarray, np.ndarray]:
    """Copy the nets' parameters, net by net, into one ``theta`` and rebind
    every net's parameter and gradient views into it and a ``grad`` beside it."""
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
