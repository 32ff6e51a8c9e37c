"""Numerical identity checks shared by the CLI selftest and the test suite.

The gradient probes compare reverse-mode gradients against central finite
differences on fixed batches. Central differences are only a valid oracle
where the loss is C^1 on [theta-h, theta+h]; coordinates whose perturbation
flips a ReLU or log-variance clamp state are detected exactly (by comparing
activation masks at both ends) and reported separately instead of polluting
the comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .decomposition import PathKind, build_plan, closed_form_plan_sum, make_tc_estimator
from .estimators import (
    MiEstimatorKind,
    _club_nll,
    _mine_surrogate,
    create_term_estimator,
    infonce_bound,
    nwj_bound,
    pair_scores,
)
from .gaussian import (
    equicorrelated_sigma,
    mc_tc_oracle,
    random_correlation,
    sample,
    solve_rho_for_tc,
    tc_closed_form,
)
from .nn import Mlp, logvar_passes

FD_STEP = 1e-5  # the central-difference step of every gradient probe


@dataclass
class LossProbe:
    """One estimator loss on a fixed batch, instrumented for FD checking.

    ``loss_grad_sig`` returns (loss, gradient laid out like ``theta``,
    activation signature); the signature captures every kink state so FD
    validity is decidable exactly.
    """

    name: str
    theta: np.ndarray
    loss_grad_sig: Callable[[], tuple[float, np.ndarray, bytes]]


def critic_probe(
    name: str, critic: Mlp, u: np.ndarray, v: np.ndarray, loss_fn: Callable[[np.ndarray], tuple]
) -> LossProbe:
    """LossProbe of ``loss_fn(scores) -> (loss, dscores)`` through the critic
    on the pair grid of (u, v); the signature is the critic's ReLU mask."""

    def loss_grad_sig():
        scores, cache = pair_scores(critic, u, v)
        # read before backward, which writes the mask over the activations
        sig = np.packbits(cache.hidden > 0).tobytes()
        loss, grad = loss_fn(scores)
        critic.backward(cache, grad.reshape(-1, 1))
        return loss, critic.grad, sig

    return LossProbe(name, critic.theta, loss_grad_sig)


def make_loss_probes(rng: np.random.Generator) -> list[LossProbe]:
    """The four estimator losses on one fixed dim-4 batch of 16: the critics'
    on its split 2 + 2, CLUB's summed over the three terms of its TREE path."""
    data = sample(equicorrelated_sigma(4, 0.7), 16, rng)
    u, v = data[:, :2], data[:, 2:]
    probes = []
    for kind, loss_fn in (
        # MINE's training loss moves its moving average with the scores, and
        # its gradient treats the average as a constant; the probe holds it fixed
        (MiEstimatorKind.MINE, lambda s: _mine_surrogate(s, 1.3)),
        (MiEstimatorKind.NWJ, lambda s: nwj_bound(s, 1.0)[1:3]),
        # InfoNCE is invariant to adding any function of u to a row of scores,
        # so some coordinates (the output bias always; w1 entries whose unit
        # has a row-constant ReLU mask) carry exactly-zero gradients
        (MiEstimatorKind.INFONCE, lambda s: infonce_bound(s, 1.0)[1:3]),
    ):
        critic = create_term_estimator(kind, 2, 2, rng).net
        probes.append(critic_probe(kind.value, critic, u, v, loss_fn))

    # CLUB's pass over all heads of a TREE estimator on the batch: a head
    # with a two-wide v and two with one, so the checker also covers the
    # block placement and the gather maps of the first layer and b2
    plan, seed = build_plan(4, PathKind.TREE), int(rng.integers(2**32))
    est = make_tc_estimator(plan, MiEstimatorKind.CLUB, seed=seed)

    def club_lgs():
        cache = est.heads.forward(data)
        masks = (cache.hidden > 0, logvar_passes(cache))
        sig = b"".join(np.packbits(m).tobytes() for m in masks)
        return float(np.add.reduce(_club_nll(cache))), est.grad, sig

    return probes + [LossProbe("CLUB", est.theta, club_lgs)]


@dataclass
class GradientReport:
    """FD-vs-reverse-mode comparison for one probe at one parameter point.

    ``worst_checked`` is the spec metric |ad - fd| / max(1e-8, |ad| + |fd|)
    maximized over coordinates where FD is a meaningful oracle: the loss is
    C^1 across [theta-h, theta+h] (no kink crossing) and at least one of
    ad, fd rises above the FD rounding floor ~ eps * |loss| / h. Coordinates
    where both are below that floor have gradients that are zero to FD
    precision (InfoNCE's shift invariances produce such exact zeros);
    ``worst_raw`` keeps the unfiltered metric for reference.
    """

    worst_checked: float
    worst_raw: float
    kink_coords: list[str]
    zero_verified: int


def fd_report(probe: LossProbe) -> GradientReport:
    eps = float(np.finfo(np.float64).eps)
    # a copy: the probe may write each call's gradient into the same vector
    grad = np.array(probe.loss_grad_sig()[1], dtype=np.float64)
    theta = probe.theta
    worst_checked = 0.0
    worst_raw = 0.0
    zero_verified = 0
    kinks: list[str] = []
    for k in range(theta.size):
        orig = theta[k]
        theta[k] = orig + FD_STEP
        loss_plus, _, sig_plus = probe.loss_grad_sig()
        theta[k] = orig - FD_STEP
        loss_minus, _, sig_minus = probe.loss_grad_sig()
        theta[k] = orig
        fd = (loss_plus - loss_minus) / (2.0 * FD_STEP)
        ad = grad[k]
        err = abs(ad - fd) / max(1e-8, abs(ad) + abs(fd))
        worst_raw = max(worst_raw, err)
        if sig_plus != sig_minus:
            kinks.append(f"{probe.name}[{k}]")
            continue
        noise = 4.0 * eps * max(abs(loss_plus), abs(loss_minus), 1.0) / (2.0 * FD_STEP)
        if abs(ad) <= noise and abs(fd) <= noise:
            zero_verified += 1
        else:
            worst_checked = max(worst_checked, err)
    return GradientReport(worst_checked, worst_raw, kinks, zero_verified)


# ------------------------------------------------------------ identity checks

def check_decomposition_identity(trials: int = 100) -> tuple[bool, str]:
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        model = random_correlation(n, rng)
        truth = tc_closed_form(model)
        for kind in PathKind:
            err = abs(closed_form_plan_sum(model, build_plan(n, kind)) - truth)
            worst = max(worst, err)
    return worst < 1e-9, f"max |plan sum - closed form| = {worst:.3e} over {trials} covariances"


def check_target_calibration() -> tuple[bool, str]:
    worst = 0.0
    for target in (2.0, 4.0, 6.0, 8.0, 10.0):
        rho = solve_rho_for_tc(4, target)
        worst = max(worst, abs(tc_closed_form(equicorrelated_sigma(4, rho)) - target))
    return worst < 1e-9, f"max calibration residual = {worst:.3e}"


def check_mc_oracle(num_samples: int = 100_000, seeds: int = 20) -> tuple[bool, str]:
    details = []
    ok = True
    for rho in (0.3, 0.5, 0.826):
        model = equicorrelated_sigma(4, rho)
        truth = tc_closed_form(model)
        hits = sum(
            abs(est - truth) < 3 * se
            for est, se in (
                mc_tc_oracle(model, num_samples, np.random.default_rng(seed))
                for seed in range(seeds)
            )
        )
        ok &= hits >= seeds - 1
        details.append(f"rho={rho}: {hits}/{seeds}")
    return ok, "within 3 SE on " + ", ".join(details)


def check_gradient_integrity(points: int = 10) -> tuple[bool, str]:
    rng = np.random.default_rng(77)
    worst = 0.0
    worst_raw = 0.0
    kinks = 0
    zeros = 0
    total_coords = 0
    for _ in range(points):
        for probe in make_loss_probes(rng):
            report = fd_report(probe)
            worst = max(worst, report.worst_checked)
            worst_raw = max(worst_raw, report.worst_raw)
            kinks += len(report.kink_coords)
            zeros += report.zero_verified
            total_coords += probe.theta.size
    ok = worst < 1e-4 and kinks <= 0.01 * total_coords
    return ok, (
        f"max FD error {worst:.3e} over {points} points "
        f"({total_coords} coordinates: {zeros} zero to FD precision, "
        f"{kinks} kink crossings excluded); unfiltered metric {worst_raw:.1e}"
    )


def check_infonce_cap(trials: int = 200) -> tuple[bool, str]:
    rng = np.random.default_rng(5150)
    worst_margin = -math.inf
    for _ in range(trials):
        n = int(rng.integers(2, 65))
        scores = rng.standard_normal((n, n)) * rng.uniform(0.1, 30)
        worst_margin = max(worst_margin, infonce_bound(scores, 1.0)[0] - math.log(n))
    return worst_margin <= 1e-12, f"max (value - ln N) = {worst_margin:.3e}"
