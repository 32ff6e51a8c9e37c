"""Gaussian targets: covariance construction, sampling, and closed-form oracles.

All information quantities are in nats. Models are zero-mean with unit
marginal variances, so the total correlation of a model with covariance
``sigma`` is ``-0.5 * log det(sigma)`` and every marginal is standard normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, check_positive_int

SYMMETRY_TOL = 1e-12
PIVOT_TOL = 1e-12
CHOL_RECONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class IndexSet:
    """A strictly increasing set of 1-based integer variable indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(check_positive_int("index", i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ParameterError(f"indices must be strictly increasing, got {idx}")

    @classmethod
    def of(cls, *indices: int) -> "IndexSet":
        return cls(tuple(indices))

    def __len__(self) -> int:
        return len(self.indices)

    def positions(self) -> np.ndarray:
        """Zero-based positions suitable for numpy indexing."""
        return np.asarray(self.indices, dtype=np.intp) - 1

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(tuple(sorted(set(self.indices) | set(other.indices))))

    def overlaps(self, other: "IndexSet") -> bool:
        return bool(set(self.indices) & set(other.indices))


@dataclass(frozen=True)
class GaussianModel:
    """A unit-diagonal covariance together with its Cholesky factor."""

    dim: int
    sigma: np.ndarray = field(repr=False)
    chol: np.ndarray = field(repr=False)


def gaussian_model(sigma: np.ndarray) -> GaussianModel:
    """Validate and canonicalize a covariance into a :class:`GaussianModel`.

    Requirements: square, symmetric to 1e-12, unit diagonal to 1e-12, and
    positive definite (Cholesky pivots > 1e-12). The stored matrix is exactly
    symmetrized with the diagonal pinned to 1.0.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ParameterError(f"covariance must be square, got shape {sigma.shape}")
    n = sigma.shape[0]
    if n < 1:
        raise ParameterError("covariance must be at least 1x1")
    asym = np.max(np.abs(sigma - sigma.T)) if n > 1 else 0.0
    if asym > SYMMETRY_TOL:
        raise ParameterError(f"covariance is asymmetric by {asym:.3e} (> {SYMMETRY_TOL})")
    diag_err = np.max(np.abs(np.diag(sigma) - 1.0))
    if diag_err > SYMMETRY_TOL:
        raise ParameterError(
            f"diagonal must be 1.0 (max deviation {diag_err:.3e} > {SYMMETRY_TOL})"
        )
    canonical = 0.5 * (sigma + sigma.T)
    np.fill_diagonal(canonical, 1.0)
    try:
        chol = np.linalg.cholesky(canonical)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"covariance is not positive definite: {exc}") from exc
    if np.min(np.diag(chol)) <= PIVOT_TOL:
        raise ParameterError(
            f"covariance is numerically singular (Cholesky pivot <= {PIVOT_TOL})"
        )
    recon_err = np.max(np.abs(chol @ chol.T - canonical))
    if recon_err > CHOL_RECONSTRUCTION_TOL:
        raise ParameterError(
            f"Cholesky reconstruction error {recon_err:.3e} exceeds {CHOL_RECONSTRUCTION_TOL}"
        )
    canonical.setflags(write=False)
    chol.setflags(write=False)
    return GaussianModel(dim=n, sigma=canonical, chol=chol)


def equicorrelated_sigma(dim: int, rho: float) -> GaussianModel:
    """Build the one-parameter family sigma = (1-rho) I + rho 11^T.

    Positive definiteness requires rho in (-1/(dim-1), 1); the determinant is
    ``(1-rho)**(dim-1) * (1 + (dim-1)*rho)``.
    """
    dim = check_positive_int("dim", dim)
    lower = -1.0 / (dim - 1) if dim > 1 else -math.inf
    if not (lower < rho < 1.0):
        raise ParameterError(
            f"rho={rho} outside the positive-definite interval ({lower}, 1) for dim={dim}"
        )
    sigma = np.full((dim, dim), float(rho))
    np.fill_diagonal(sigma, 1.0)
    return gaussian_model(sigma)


def _equicorrelated_tc(dim: int, rho: float) -> float:
    # -0.5 * log[(1-rho)^(dim-1) * (1+(dim-1)rho)], evaluated in log space
    return -0.5 * ((dim - 1) * math.log1p(-rho) + math.log1p((dim - 1) * rho))


def solve_rho_for_tc(dim: int, target_tc: float) -> float:
    """Invert the equicorrelated total-correlation map by bisection.

    Returns rho in [0, 1) with ``tc_closed_form(equicorrelated_sigma(dim, rho))``
    equal to ``target_tc``; the map is strictly increasing on [0, 1) and onto
    [0, inf) for dim >= 2. The bisection bracket ends at rho = 1 - 1e-12, so a
    target above the TC there (about 40.75 nats at dim 4) is rejected.
    """
    dim = check_positive_int("dim", dim)
    if not math.isfinite(target_tc):
        raise ParameterError(f"target_tc must be finite, got {target_tc}")
    if target_tc < 0.0:
        raise ParameterError(f"target_tc must be nonnegative, got {target_tc}")
    if target_tc == 0.0:
        return 0.0
    if dim < 2:
        raise ParameterError("a single variable has zero total correlation for every rho")
    lo, hi = 0.0, 1.0 - 1e-12
    ceiling = _equicorrelated_tc(dim, hi)
    if target_tc > ceiling:
        raise ParameterError(
            f"target_tc={target_tc} exceeds {ceiling:.6g}, the largest total correlation "
            f"the solver reaches for dim={dim}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _equicorrelated_tc(dim, mid) < target_tc:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tc_closed_form(model: GaussianModel) -> float:
    """Total correlation -0.5 log det(sigma), via the Cholesky diagonal."""
    return float(-np.sum(np.log(np.diag(model.chol))))


def _logdet_submatrix(sigma: np.ndarray, positions: np.ndarray) -> float:
    sub = sigma[np.ix_(positions, positions)]
    chol = np.linalg.cholesky(sub)
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def _check_blocks(model: GaussianModel, left: IndexSet, right: IndexSet) -> None:
    if len(left) == 0 or len(right) == 0:
        raise ParameterError("both index sets must be non-empty")
    if left.overlaps(right):
        raise ParameterError(f"index sets overlap: {left.indices} and {right.indices}")
    if max(left.indices[-1], right.indices[-1]) > model.dim:
        raise ParameterError(
            f"index out of range for dim={model.dim}: {left.indices} | {right.indices}"
        )


def mi_closed_form(model: GaussianModel, left: IndexSet, right: IndexSet) -> float:
    """Gaussian mutual information between two disjoint variable blocks.

    0.5 * [log det(sigma_LL) + log det(sigma_RR) - log det(sigma_{L u R})].
    """
    _check_blocks(model, left, right)
    both = left.union(right)
    ld_left = _logdet_submatrix(model.sigma, left.positions())
    ld_right = _logdet_submatrix(model.sigma, right.positions())
    ld_both = _logdet_submatrix(model.sigma, both.positions())
    return 0.5 * (ld_left + ld_right - ld_both)


def club_closed_form(model: GaussianModel, left: IndexSet, right: IndexSet) -> float:
    """CLUB's value at its fixed point, with u the ``left`` block, v the
    ``right`` one and q(v | u) a Gaussian with diagonal covariance.

    The best such q is N(B u, diag C), with B = sigma_vu sigma_uu^-1 and
    C = sigma_vv - B sigma_uv. E_joint log q - E_indep log q is then
    0.5 * sum_k [(sigma_vv + B sigma_uu B^T)_kk / C_kk - 1], which for a
    scalar v is e^(2 MI) - 1. A batch of N expects (N - 1) / N of it, since
    the all-pairs mean includes the N joint pairs.
    """
    _check_blocks(model, left, right)
    u, v = left.positions(), right.positions()
    sigma_uv = model.sigma[np.ix_(u, v)]
    # B sigma_uu B^T = sigma_vu sigma_uu^-1 sigma_uv
    explained = np.diag(sigma_uv.T @ np.linalg.solve(model.sigma[np.ix_(u, u)], sigma_uv))
    var_v = np.diag(model.sigma[np.ix_(v, v)])
    return float(0.5 * np.sum((var_v + explained) / (var_v - explained) - 1.0))


def sample(model: GaussianModel, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``batch`` rows of L z with z i.i.d. standard normal."""
    batch = check_positive_int("batch", batch)
    z = rng.standard_normal((batch, model.dim))
    return z @ model.chol.T


def mc_tc_oracle(
    model: GaussianModel, num_samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo total correlation: mean of log p(X) - sum_i log p(x_i).

    Returns (estimate, standard error of the mean). Uses the known joint and
    marginal densities; unit-diagonal models have standard-normal marginals,
    so the 2-pi terms cancel exactly.
    """
    num_samples = check_positive_int("num_samples", num_samples)
    x = sample(model, num_samples, rng)
    y = np.linalg.solve(model.chol, x.T)
    log_ratio = 0.5 * np.sum(x * x, axis=1) - 0.5 * np.sum(y * y, axis=0) + tc_closed_form(model)
    estimate = float(np.mean(log_ratio))
    if num_samples == 1:
        return estimate, float("inf")
    stderr = float(np.std(log_ratio, ddof=1) / math.sqrt(num_samples))
    return estimate, stderr


def random_correlation(dim: int, rng: np.random.Generator) -> GaussianModel:
    """A random unit-diagonal positive-definite covariance (Wishart, normalized)."""
    dim = check_positive_int("dim", dim)
    a = rng.standard_normal((dim, 2 * dim))
    raw = a @ a.T
    scale = np.sqrt(np.diag(raw))
    sigma = raw / np.outer(scale, scale)
    return gaussian_model(sigma)
