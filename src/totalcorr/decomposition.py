"""Tree-like and line-like reduction of total correlation to MI terms.

Total correlation obeys TC(X) = TC(X_A) + TC(X_comp) + I(X_A; X_comp) for any
binary split, so recursive splitting expresses TC(X) as a sum of n-1 mutual
information terms. The tree path halves each group at the floor midpoint; the
line path peels one variable at a time: TC(X) = sum_i I(X_{1:i}; x_{i+1}).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ParameterError, TrainingError, check_positive_int
from .estimators import (
    MiEstimatorKind,
    MiTermEstimator,
    check_step,
    club_pass,
    create_term_estimator,
    evaluate,
    train_step,
)
from .gaussian import GaussianModel, IndexSet, mi_closed_form
from .nn import (
    DEFAULT_HIDDEN,
    DEFAULT_LR,
    AdamState,
    GaussianHeads,
    MlpScratch,
    adam_update,
    pack_parameters,
)


class PathKind(Enum):
    TREE = "TREE"
    LINE = "LINE"


@dataclass(frozen=True)
class MiTerm:
    """One MI term I(left; right) of a decomposition."""

    left: IndexSet
    right: IndexSet

    def __post_init__(self):
        if len(self.left) == 0 or len(self.right) == 0:
            raise ParameterError("both sides of an MI term must be non-empty")
        if self.left.overlaps(self.right):
            raise ParameterError(
                f"term sides overlap: {self.left.indices} and {self.right.indices}"
            )


@dataclass(frozen=True)
class DecompositionPlan:
    """Ordered MI terms whose sum equals the total correlation of n variables.

    Variable p, an index in 1..n, is model variable p and column p - 1 of a
    batch. A vector-valued variable is a group of columns that every term
    keeps on one side, so its plan is built by hand over the columns.
    """

    n: int
    kind: PathKind
    terms: tuple[MiTerm, ...]

    def __post_init__(self):
        _check_n_and_kind(self.n, self.kind)
        object.__setattr__(self, "terms", tuple(self.terms))
        for k, term in enumerate(self.terms):
            if not isinstance(term, MiTerm):
                raise ParameterError(f"term {k} is not an MiTerm: {term!r}")
            top = max(term.left.indices[-1], term.right.indices[-1])
            if top > self.n:
                raise ParameterError(f"term {k} names variable {top}, but the plan has n={self.n}")


def _check_n_and_kind(n, kind) -> None:
    """The one rule for a plan's n, a positive integer as an index is, and its kind."""
    check_positive_int("n", n)
    if not isinstance(kind, PathKind):
        raise ParameterError(f"kind must be a PathKind, got {kind!r}")


def _contiguous(lo: int, hi: int) -> IndexSet:
    return IndexSet(tuple(range(lo, hi + 1)))


def build_plan(n: int, kind: PathKind) -> DecompositionPlan:
    """Emit the n-1 MI terms of the requested calculation path.

    TREE recurses depth-first on [i, j], splitting at m = floor((i+j)/2) and
    emitting (X_{i:m}; X_{m+1:j}) before descending into both halves. LINE
    emits (X_{1:i}; x_{i+1}) for i = 1..n-1. A single variable yields an
    empty plan.
    """
    _check_n_and_kind(n, kind)
    terms: list[MiTerm] = []
    if kind is PathKind.TREE:

        def split(i: int, j: int) -> None:
            if j - i <= 0:
                return
            m = (i + j) // 2
            terms.append(MiTerm(_contiguous(i, m), _contiguous(m + 1, j)))
            split(i, m)
            split(m + 1, j)

        split(1, n)
    else:
        for i in range(1, n):
            terms.append(MiTerm(_contiguous(1, i), IndexSet.of(i + 1)))
    return DecompositionPlan(n=n, kind=kind, terms=tuple(terms))


def closed_form_plan_sum(model: GaussianModel, plan: DecompositionPlan) -> float:
    """Sum of exact Gaussian MI over the plan's terms; equals the exact TC."""
    if plan.n != model.dim:
        raise ParameterError(f"plan is for n={plan.n}, model has dim={model.dim}")
    return float(sum(mi_closed_form(model, t.left, t.right) for t in plan.terms))


@dataclass
class TcEstimator:
    """Per-term MI estimators wired to the columns of a sample batch, and
    the one optimizer that trains them together.

    The estimator owns the vectors: ``theta`` holds every term's parameters,
    term by term, and each term's ``net.theta`` and ``net.grad`` are slices
    of ``theta`` and ``grad``. One Adam step per batch, with the state
    ``adam``, updates all terms at once. The terms' nets share one
    activation scratch (see ``nn.Mlp``): float32 for the critics of MINE,
    NWJ and InfoNCE terms, float64 for CLUB's heads; ``theta``, ``grad``,
    the scores and the bounds stay float64.

    A batch has ``plan.n`` columns. ``left_cols[k]`` and ``right_cols[k]``
    index term k's sides in them: a ``slice`` where the side's variables form
    one contiguous range, as in every plan :func:`build_plan` makes, so the
    term reads a view of the batch; an index array otherwise, which copies.
    A CLUB estimator's heads run as one pass, ``heads`` (``nn.GaussianHeads``),
    which reads the same columns through its own maps; the other kinds have
    none.
    """

    plan: DecompositionPlan
    kind: MiEstimatorKind
    terms: list[MiTermEstimator]
    theta: np.ndarray = field(repr=False)
    grad: np.ndarray = field(repr=False)
    adam: AdamState = field(repr=False)
    left_cols: list[slice | np.ndarray] = field(repr=False)
    right_cols: list[slice | np.ndarray] = field(repr=False)
    heads: GaussianHeads | None = field(default=None, repr=False)

    @property
    def n_terms(self) -> int:
        return len(self.terms)


def make_tc_estimator(
    plan: DecompositionPlan,
    kind: MiEstimatorKind,
    seed: int | np.random.SeedSequence,
    hidden: int = DEFAULT_HIDDEN,
    lr: float = DEFAULT_LR,
) -> TcEstimator:
    """One independent estimator per MI term, initialized from ``seed``, and
    one Adam state at learning rate ``lr`` over all their parameters.

    Term k reads the batch columns ``p - 1`` of its sides' variables p, so
    its estimator has input widths ``len(term.left)`` and ``len(term.right)``.
    """
    if not isinstance(kind, MiEstimatorKind):
        raise ParameterError(f"kind must be a MiEstimatorKind, got {kind!r}")
    check_positive_int("hidden", hidden)
    if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not 0 < lr < math.inf:
        raise ParameterError(f"lr must be positive and finite, got {lr!r}")

    def columns(subset: IndexSet) -> slice | np.ndarray:
        lo, hi = subset.indices[0], subset.indices[-1]
        if hi - lo + 1 == len(subset):  # strictly increasing, so one range
            return slice(lo - 1, hi)
        return subset.positions()

    rng = np.random.default_rng(seed)
    terms = [
        create_term_estimator(kind, len(term.left), len(term.right), rng, hidden)
        for term in plan.terms
    ]
    theta, grad = pack_parameters([t.net for t in terms])
    scratch = MlpScratch(dtype=np.float64 if kind is MiEstimatorKind.CLUB else np.float32)
    for term in terms:
        term.net.scratch = scratch
    heads = None
    if kind is MiEstimatorKind.CLUB and terms:
        u_cols = [term.left.positions() for term in plan.terms]
        v_cols = [term.right.positions() for term in plan.terms]
        heads = GaussianHeads([t.net for t in terms], theta, grad, u_cols, v_cols, plan.n)
    return TcEstimator(
        plan=plan,
        kind=kind,
        terms=terms,
        theta=theta,
        grad=grad,
        adam=AdamState.for_params(theta, lr=lr),
        left_cols=[columns(term.left) for term in plan.terms],
        right_cols=[columns(term.right) for term in plan.terms],
        heads=heads,
    )


def _each_term(
    est: TcEstimator, batch: np.ndarray, value_only: bool
) -> tuple[float | np.ndarray, np.ndarray]:
    """(sum, per-term values) of every term's bound on its columns of the
    batch, trained once or, with value_only, evaluated: one (N, n) batch
    gives a float sum and (k,) values, and a (c, N, n) stack, which only
    value_only takes, (c,) sums and (c, k) values. A critic term runs
    ``train_step`` or ``evaluate`` as this module binds them at call time,
    on views of the batch where its columns are one range; CLUB's heads run
    as one :func:`club_pass`, and each head's loss, then its gradient, is
    checked in term order. A TrainingError is tagged with its term, and a
    CLUB pass's with its kind too, as no ``train_step`` ran to tag it.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim not in (2, 3) or batch.shape[-1] != est.plan.n:
        raise ParameterError(
            f"batch must be (N, {est.plan.n}) or a (c, N, {est.plan.n}) stack, got {batch.shape}"
        )
    if batch.ndim == 3 and not value_only:
        raise ParameterError(
            f"training takes one (N, {est.plan.n}) batch, got a stack {batch.shape}"
        )
    if batch.shape[-2] < 2:
        raise ParameterError("contrastive bounds need a batch of at least 2")
    k = 0
    try:
        if est.heads is not None:
            values, losses = club_pass(est.heads, (batch,), value_only)
            for k, loss in enumerate([] if value_only else losses):
                check_step(loss, est.terms[k].net.grad)
        else:
            term_fn = evaluate if value_only else train_step
            values = np.empty((*batch.shape[:-2], est.n_terms))
            for k, term_est in enumerate(est.terms):
                values[..., k] = term_fn(
                    term_est, batch[..., est.left_cols[k]], batch[..., est.right_cols[k]]
                )
    except TrainingError as exc:
        if est.heads is not None:
            exc.kind, k = est.kind.value, _charged_term(est, batch, k)
        exc.term = k
        raise
    totals = np.add.reduce(values, axis=-1)
    return (float(totals) if batch.ndim == 2 else totals), values


def _charged_term(est: TcEstimator, batch: np.ndarray, k: int) -> int:
    """The term that a failed CLUB pass, failing first at term ``k``, is
    charged to. The pass's first layer spreads a non-finite entry of the
    batch to every head, so that is the first term whose columns hold one,
    the term that would fail first on its own; else ``k``."""
    bad = ~np.isfinite(batch).all(axis=0)
    for j in range(est.n_terms):
        if bad[est.left_cols[j]].any() or bad[est.right_cols[j]].any():
            return j
    return k


def tc_train_step(est: TcEstimator, batch: np.ndarray) -> tuple[float, np.ndarray]:
    """Train every term once on the batch; returns (sum, per-term values).

    Each term writes its gradient into its slice of ``est.grad``, then one
    Adam update moves ``est.theta``, with no second scan of the checked
    gradient. All or nothing: each term's loss, then its gradient, is
    checked in term order, so the first failing term raises and no
    parameter, moment, step count or MINE moving average changes. The
    TrainingError's estimator and term are set by ``_each_term`` (and by
    ``train_step``), its step by this function.
    """
    step = est.adam.step_count + 1
    emas = [t.ema_denominator for t in est.terms]
    try:
        result = _each_term(est, batch, value_only=False)
        adam_update(est.theta, est.grad, est.adam)
    except TrainingError as exc:
        for term_est, ema in zip(est.terms, emas):
            term_est.ema_denominator = ema
        exc.step = step
        raise
    return result


def tc_evaluate(est: TcEstimator, batch: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """(sum, per-term values) of the bounds on one (N, n) batch, or (c,) sums
    and (c, k) values on a (c, N, n) stack, without updating any parameters.
    A stack gives the bytes of one call per batch unless a CLUB pass over
    all c * N rows gives a row other last bits, as the BLAS may when N is
    not a multiple of 8."""
    return _each_term(est, batch, value_only=True)
