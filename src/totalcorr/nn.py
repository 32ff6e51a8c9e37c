"""Minimal differentiable building blocks for the variational critics.

A single-hidden-layer ReLU MLP of one or more groups that share one input,
with hand-written reverse-mode gradients; one pass that runs the conditional
diagonal Gaussians of several two-group MLPs, CLUB's heads, on one batch;
and the Adam update on one flat parameter vector ``theta``, read with the
gradient vector ``grad`` that backward fills in the same layout. Parameters,
gradients, outputs and Adam are float64 numpy; activations, and the
arithmetic on them, take the dtype of their scratch: float32 for the
critics of a MINE, NWJ or InfoNCE estimator, float64 otherwise. Everything
is bit-deterministic given identical seeds and call order.
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
    :meth:`buffers` makes them on first use. ``token`` counts the forwards
    and the backwards of every net and pass on it.
    ``dtype`` is the buffers' float type, and the type of the arithmetic of
    the forwards and backwards on them; parameters, gradients and outputs
    stay float64.
    """

    inputs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    hidden: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    token: int = 0
    dtype: type[np.floating] = np.float64

    def buffers(self, in_dim: int, groups: int, hidden_dim: int, rows: int) -> tuple:
        """The (x_aug, x, hidden, grouped hidden) buffers and views above."""
        inputs = self.inputs.get((in_dim, rows))
        if inputs is None:
            x_aug = np.empty((in_dim + 1, rows), dtype=self.dtype)
            x_aug[-1] = 1.0
            inputs = self.inputs[in_dim, rows] = (x_aug, x_aug[:-1].T)
        shape = (groups, hidden_dim, rows)
        hidden = self.hidden.get(shape)
        if hidden is None:
            flat = np.empty((groups * hidden_dim, rows), dtype=self.dtype)
            hidden = self.hidden[shape] = (flat, flat.reshape(shape))
        return *inputs, *hidden


class Mlp:
    """``groups`` nets y_g = w2_g @ relu(w1_g @ x + b1_g) + b2_g on one input,
    applied row-wise to a batch; a scalar critic has one group, a CLUB head
    two, the mean and the log-variance, which :class:`GaussianHeads` runs.

    ``hidden_dim`` and ``out_dim`` are one group's widths. Group g owns rows
    g*hidden_dim to (g+1)*hidden_dim of ``w1`` and ``b1`` and rows g*out_dim
    to (g+1)*out_dim of ``w2`` and ``b2``, so its hidden block feeds only
    its own outputs; forward returns the groups' outputs side by side,
    (rows, groups * out_dim).

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
    assigned to each as ``scratch``. The critics of a ``TcEstimator``'s
    terms do, as each term runs its forward and backward before the next
    term's forward. The critics' scratch is float32, one
    (20, 4096) activation buffer and one input buffer per input width at
    N = 64, 0.46 to 0.52 MB instead of 4.3 MB with a private float64 scratch
    and mask per critic, so it stays in a 2 MB L2 cache from term to term,
    and each pass over it takes about half its float64 time. CLUB's heads
    share a float64 one, which their pass uses. Every net starts with a
    float64 scratch of its own. The buffers are kept rather than freed
    because glibc's malloc hands arrays of this size back to the OS and
    page-faults them in again on the next step; with fresh arrays per call
    an InfoNCE ``train_step`` at N = 64 took 1.5 to 2.6 times as long
    (2-core Xeon, numpy 2.4.6).
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
        self.pair_pass: GaussianHeads | None = None  # a CLUB head's GaussianHeads.of_pair

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

    def input_buffer(self, rows: int) -> np.ndarray:
        """The (rows, in_dim) input view for batches of ``rows``, the transpose
        of a C-contiguous array; a batch written here is not copied by forward."""
        return self.scratch.buffers(self.in_dim, self.groups, self.hidden_dim, rows)[1]

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
        x_aug, x_view, hidden, hidden_g = self.scratch.buffers(
            self.in_dim, self.groups, self.hidden_dim, rows
        )
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
        # dout is cast to the scratch's dtype once, so x_aug * dout_o and G_o
        # are taken in it: a float64 product would make numpy run the float64
        # matmul, and a cast inside the product makes numpy buffer it
        self._first_layer_grads(x_aug, mask, dout.astype(x_aug.dtype, copy=False).transpose(0, 2, 1))

    def _first_layer_grads(self, x_aug: np.ndarray, mask: np.ndarray, dout: np.ndarray) -> None:
        """G_o, dw2[o] and w2[o] * G_o per output o of every group, as the
        class docstring derives them, into ``grad``: the one backward kernel
        of every net, and of every head of a :class:`GaussianHeads` pass.
        ``mask`` is (groups, hidden_dim, rows) and ``dout`` (groups, out_dim,
        rows), both in ``x_aug``'s dtype."""
        w1b1 = self._w1b1g.astype(x_aug.dtype, copy=False)  # as forward used it
        for o in range(dout.shape[1]):
            g = self._dw1b1g if o == 0 else np.empty_like(self._dw1b1g)
            np.matmul(mask, np.multiply(x_aug, dout[:, o, None, :]).transpose(0, 2, 1), out=g)
            np.add.reduce(w1b1 * g, axis=2, out=self._dw2g[:, o])
            g *= self._w2g[:, o, :, None]
            if o:
                self._dw1b1g += g



class GaussianCache(NamedTuple):
    """A :class:`GaussianHeads` pass on one batch: ``x`` and ``hidden`` as in
    :class:`MlpCache`, then the mean, the raw and the clamped log-variance,
    the inverse variance, v, ``resid`` = v - mu and ``half_sq`` =
    0.5 * resid**2 * inv_var, feature-major: head j's in ``owner.v_slices[j]``."""

    owner: "GaussianHeads"
    token: int
    x: np.ndarray
    hidden: np.ndarray
    mu: np.ndarray
    logvar_raw: np.ndarray
    logvar: np.ndarray
    inv_var: np.ndarray
    v: np.ndarray
    resid: np.ndarray
    half_sq: np.ndarray


class GaussianHeads:
    """CLUB's heads, k two-group Mlps (the mean and the raw log-variance,
    clamped to [-10, 10]), as one pass over a batch of ``width`` columns:
    head j reads the columns ``u_cols[j]`` and models the columns
    ``v_cols[j]``. ``theta`` and ``grad`` hold the heads' parameters and
    gradients head by head, as :func:`pack_parameters` lays them out.

    The first layer is one matmul of a block that forward gathers from
    ``theta``, head j's ``w1b1`` in its own rows and in its u and ones
    columns, zeros elsewhere, so ``theta`` keeps its layout. The ReLU, the
    mask, the Gaussian stage and the output gradient run once over all
    heads, feature-major. Per head run the second-layer matmul, the
    first-layer gradient (``Mlp.backward``'s kernel) and the sums whose
    order a head alone fixed: numpy sums one column pairwise but a (rows, d)
    block row by row, so a head with a d > 1 wide v sums its moments, row
    log-densities, value and output-bias gradient over a row-major copy,
    all through :meth:`head_sums`. Each head gets the bytes it gets alone.
    """

    def __init__(self, heads, theta, grad, u_cols, v_cols, width: int):
        self.heads, self.theta, self.grad, self.width = list(heads), theta, grad, width
        for head in self.heads:
            if head.groups != 2:
                raise ParameterError(f"a Gaussian head has 2 groups, got {head.groups}")
        self.scratch = self.heads[0].scratch
        self.x_rows = [np.append(u, width) for u in u_cols]  # each head's input rows of x
        self.v_rows = np.concatenate(v_cols)
        widths = [len(v) for v in v_cols]
        self.starts = np.cumsum(widths) - widths
        self.v_slices = [slice(a, a + d) for a, d in zip(self.starts, widths)]
        self.wide = [j for j, d in enumerate(widths) if d > 1]
        # the gather maps of theta's w1b1 entries into the first-layer block
        # and of its b2 entries into a (2, sum of widths) array
        ends = np.cumsum([head.theta.size for head in self.heads])
        h2 = 2 * self.heads[0].hidden_dim
        self._w1b1 = np.zeros((h2 * len(self.heads), width + 1))
        self._w1b1_at = np.concatenate([
            (np.arange(j * h2, (j + 1) * h2)[:, None] * (width + 1) + x).ravel()
            for j, x in enumerate(self.x_rows)
        ])
        self._w1b1_from = np.concatenate(
            [np.arange(h.w1b1.size) + e - h.theta.size for e, h in zip(ends, self.heads)]
        )
        self._b2_at = np.concatenate(
            [np.arange(e - h.b2.size, e).reshape(2, -1) for e, h in zip(ends, self.heads)], axis=1
        )

    @classmethod
    def of_pair(cls, head: Mlp) -> "GaussianHeads":
        """The one-head pass of ``head`` on a batch whose columns are u, then
        v: made on first use and kept on the head as ``pair_pass``, and made
        again once :func:`pack_parameters` has rebound the head's ``theta``
        or the head has been given another scratch."""
        heads = head.pair_pass
        if heads is None or heads.theta is not head.theta or heads.scratch is not head.scratch:
            u, v = head.in_dim, head.out_dim
            heads = head.pair_pass = cls(
                [head], head.theta, head.grad, [np.arange(u)], [np.arange(u, u + v)], u + v
            )
        return heads

    def forward(self, *parts: np.ndarray) -> GaussianCache:
        """Every head on the batch whose columns are the float64 (rows, ·)
        ``parts`` side by side, ``width`` in all, taken as they are and
        written straight into the input buffer."""
        k, h, rows = len(self.heads), self.heads[0].hidden_dim, parts[0].shape[0]
        x_aug, x, hidden, _ = self.scratch.buffers(self.width, 2 * k, h, rows)
        np.concatenate(parts, axis=1, out=x)
        self._w1b1.reshape(-1)[self._w1b1_at] = self.theta[self._w1b1_from]
        np.matmul(self._w1b1, x_aug, out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        out = np.empty((2, self.v_rows.size, rows))
        for head, feats, hidden_j in zip(self.heads, self.v_slices, hidden.reshape(k, 2, h, rows)):
            np.matmul(head._w2g, hidden_j, out=out[:, feats])
        out += self.theta[self._b2_at][:, :, None]
        mu, logvar_raw = out
        logvar = np.minimum(np.maximum(logvar_raw, LOGVAR_MIN), LOGVAR_MAX)
        inv_var = np.exp(-logvar)
        v = x_aug[self.v_rows]
        resid = v - mu
        half_sq = 0.5 * resid * resid * inv_var
        self.scratch.token += 1
        return GaussianCache(
            self, self.scratch.token, x_aug, hidden, mu, logvar_raw, logvar, inv_var, v, resid, half_sq
        )

    def backward(self, cache: GaussianCache, weight: float) -> None:
        """Gradients of weight * (the sum of every head's row log-densities)
        into ``grad``; the clamp contributes zero gradient outside [-10, 10].
        Consumes the cache, as ``Mlp.backward`` does."""
        if cache.owner is not self or cache.token != self.scratch.token:
            raise ParameterError("stale cache: backward must follow its own forward")
        self.scratch.token += 1
        dout = np.empty((2, *cache.mu.shape))
        np.multiply(weight * cache.resid, cache.inv_var, out=dout[0])
        np.multiply(weight, -0.5 + cache.half_sq, out=dout[1])
        dout[1] *= logvar_passes(cache)
        self.grad[self._b2_at] = self.head_sums(dout.swapaxes(0, 1), per_feature=True).T
        mask = np.greater(cache.hidden, 0.0, out=cache.hidden)
        masks = mask.reshape(len(self.heads), 2, -1, mask.shape[1])
        for head, x_rows, feats, mask_j in zip(self.heads, self.x_rows, self.v_slices, masks):
            head._first_layer_grads(cache.x[x_rows], mask_j, dout[:, feats])

    def head_sums(self, a: np.ndarray, per_feature: bool = False) -> np.ndarray:
        """The sums over the last axis of the feature-major (features, c, m)
        ``a`` in the order each head alone sums its row-major (c, m, d)
        block: per feature, (features, c), or over the head's features too,
        (k, c). numpy sums one column pairwise, but a block with d > 1 row
        by row per feature and its m * d entries in row-major order, so a
        wide head sums a row-major copy."""
        sums = np.add.reduce(a, axis=-1)
        if not per_feature:
            sums = sums[self.starts]
        for j in self.wide:
            feats = self.v_slices[j]
            block = np.ascontiguousarray(a[feats].transpose(1, 2, 0))
            if per_feature:
                sums[feats] = np.add.reduce(block, axis=1).T
            else:
                sums[j] = np.add.reduce(block.reshape(len(block), -1), axis=1)
        return sums


def logvar_passes(cache: GaussianCache) -> np.ndarray:
    """Where the clamp passes the raw log-variance through, and so its gradient."""
    return (cache.logvar_raw >= LOGVAR_MIN) & (cache.logvar_raw <= LOGVAR_MAX)


def cond_gaussian_logpdf(cache: GaussianCache) -> np.ndarray:
    """Row-wise log q_j(v_i | u_i) of every head j of the pass, (k, rows)."""
    terms = -0.5 * _LOG_2PI - 0.5 * cache.logvar - cache.half_sq
    return cache.owner.head_sums(terms[..., None])


def cond_gaussian_logpdf_matrix(cache: GaussianCache) -> np.ndarray:
    """All-pairs log q(v_b | u_a) of a one-head pass as an (N, N) matrix,
    from the cache, with no gradient. No production path calls it: it is the
    tests' all-pairs reference, and the benchmark's tracer looks it up by name."""
    if len(cache.owner.heads) != 1:
        raise ParameterError(f"takes a one-head pass, got {len(cache.owner.heads)} heads")
    mu, inv_var, v, logvar = (a.T for a in (cache.mu, cache.inv_var, cache.v, cache.logvar))
    const = np.add.reduce(-0.5 * _LOG_2PI - 0.5 * logvar - 0.5 * mu * mu * inv_var, axis=1)
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
    """One bias-corrected Adam update of ``theta`` in place, :func:`adam_update`,
    after its checks: shapes and the gradient's finiteness are checked before
    anything moves, so on either error ``theta``, the moments and
    ``step_count`` keep their values."""
    if g.shape != theta.shape:
        raise ParameterError(f"gradient shape {g.shape} does not match parameters {theta.shape}")
    if state.m.shape != theta.shape or state.v.shape != theta.shape:
        raise ParameterError(
            f"Adam state shapes {state.m.shape} and {state.v.shape} "
            f"do not match parameters {theta.shape}"
        )
    if not np.isfinite(g).all():
        raise TrainingError("non-finite gradient", step=state.step_count + 1)
    adam_update(theta, g, state)


def adam_update(theta: np.ndarray, g: np.ndarray, state: AdamState) -> None:
    """theta -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps),
    unchecked: for a caller that has checked every slice of ``g``."""
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
