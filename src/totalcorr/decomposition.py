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
    create_term_estimator,
    evaluate,
    train_step,
)
from .gaussian import GaussianModel, IndexSet, mi_closed_form
from .nn import DEFAULT_HIDDEN, DEFAULT_LR, AdamState, MlpScratch, adam_step, pack_parameters


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
    ``adam``, updates all terms at once. The critics of MINE, NWJ and
    InfoNCE terms share one float32 activation scratch (see ``nn.Mlp``);
    ``theta``, ``grad``, the scores and the bounds stay float64.

    A batch has ``plan.n`` columns. ``left_cols[k]`` and ``right_cols[k]``
    index term k's sides in them: a ``slice`` where the side's variables form
    one contiguous range, as in every plan :func:`build_plan` makes, so the
    term reads a view of the batch; an index array otherwise, which copies.
    """

    plan: DecompositionPlan
    kind: MiEstimatorKind
    terms: list[MiTermEstimator]
    theta: np.ndarray = field(repr=False)
    grad: np.ndarray = field(repr=False)
    adam: AdamState = field(repr=False)
    left_cols: list[slice | np.ndarray] = field(repr=False)
    right_cols: list[slice | np.ndarray] = field(repr=False)

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
    if kind is not MiEstimatorKind.CLUB:
        scratch = MlpScratch(dtype=np.float32)
        for term in terms:
            term.net.scratch = scratch
    return TcEstimator(
        plan=plan,
        kind=kind,
        terms=terms,
        theta=theta,
        grad=grad,
        adam=AdamState.for_params(theta, lr=lr),
        left_cols=[columns(term.left) for term in plan.terms],
        right_cols=[columns(term.right) for term in plan.terms],
    )


def _each_term(est: TcEstimator, batch: np.ndarray, term_fn) -> tuple[float, np.ndarray]:
    """(sum, per-term values) of ``term_fn(term estimator, u, v)`` on each
    term's columns of the batch, views of it where the columns are one range;
    a TrainingError is tagged with its term.

    The callers pass ``train_step`` or ``evaluate`` as this module binds it
    at call time, so rebinding either name (as a tracer does) sees every call.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != est.plan.n:
        raise ParameterError(f"batch must be (N, {est.plan.n}), got {batch.shape}")
    values = np.empty(est.n_terms)
    for k, term_est in enumerate(est.terms):
        try:
            values[k] = term_fn(term_est, batch[:, est.left_cols[k]], batch[:, est.right_cols[k]])
        except TrainingError as exc:
            exc.term = k
            raise
    return float(np.add.reduce(values)), values


def tc_train_step(est: TcEstimator, batch: np.ndarray) -> tuple[float, np.ndarray]:
    """Train every term once on the batch; returns (sum, per-term values).

    Each term writes its gradient into its slice of ``est.grad``, then one
    Adam step moves ``est.theta``. All or nothing: ``train_step`` checks
    each term's loss, then its gradient, so the first failing term in term
    order raises and no parameter, moment, step count or MINE moving average
    changes. The TrainingError's estimator, term and step are set by
    ``train_step``, ``_each_term`` and this function.
    """
    step = est.adam.step_count + 1
    emas = [t.ema_denominator for t in est.terms]
    try:
        result = _each_term(est, batch, train_step)
        adam_step(est.theta, est.grad, est.adam)
    except TrainingError as exc:
        for term_est, ema in zip(est.terms, emas):
            term_est.ema_denominator = ema
        exc.step = step
        raise
    return result


def tc_evaluate(est: TcEstimator, batch: np.ndarray) -> tuple[float, np.ndarray]:
    """Per-term bound values on a batch without updating any parameters."""
    return _each_term(est, batch, evaluate)
