import math
import re

import numpy as np
import pytest

from totalcorr import (
    IndexSet,
    ParameterError,
    PathKind,
    build_plan,
    club_closed_form,
    equicorrelated_sigma,
    gaussian_model,
    mc_tc_oracle,
    mi_closed_form,
    random_correlation,
    sample,
    solve_rho_for_tc,
    tc_closed_form,
)


class TestIndexSet:
    def test_rejects_unsorted(self):
        with pytest.raises(ParameterError):
            IndexSet.of(2, 1)

    def test_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            IndexSet.of(1, 1)

    def test_rejects_zero_based(self):
        with pytest.raises(ParameterError):
            IndexSet.of(0, 1)

    @pytest.mark.parametrize("index", [1.7, 2.0, np.float64(3.0), "2", True, None])
    def test_rejects_a_non_integer_index_by_name(self, index):
        # int() would read 1.7 as 1, '2' as 2 and True as 1
        with pytest.raises(ParameterError, match=re.escape(f"index must be a positive integer, got {index!r}")):
            IndexSet.of(index)

    def test_numpy_integers_become_ints(self):
        indices = IndexSet.of(np.int64(1), np.int32(3)).indices
        assert indices == (1, 3) and all(type(i) is int for i in indices)

    def test_closed_form_refuses_truncated_indices(self):
        model = equicorrelated_sigma(3, 0.5)
        with pytest.raises(ParameterError, match="index must be a positive integer, got 1.9"):
            mi_closed_form(model, IndexSet.of(1.9), IndexSet.of(2.2))

    def test_positions_are_zero_based(self):
        assert IndexSet.of(1, 3, 4).positions().tolist() == [0, 2, 3]

    def test_empty_set_is_allowed(self):
        assert len(IndexSet(())) == 0


class TestEquicorrelated:
    def test_identity_at_rho_zero(self):
        model = equicorrelated_sigma(4, 0.0)
        assert np.array_equal(model.sigma, np.eye(4))
        assert tc_closed_form(model) == 0.0

    def test_determinant_matches_closed_form(self):
        # independent oracle: hand determinant (1-rho)^(d-1) (1+(d-1)rho)
        model = equicorrelated_sigma(4, 0.5)
        assert np.linalg.det(model.sigma) == pytest.approx(0.5**3 * 2.5, abs=1e-12)
        model2 = equicorrelated_sigma(2, 0.5)
        assert np.linalg.det(model2.sigma) == pytest.approx(0.75, abs=1e-14)

    def test_structure(self):
        model = equicorrelated_sigma(3, 0.2)
        off = model.sigma[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.2)
        assert np.all(np.diag(model.sigma) == 1.0)

    @pytest.mark.parametrize("dim,rho", [(4, 1.0), (4, -0.34), (2, -1.0), (3, 1.5)])
    def test_out_of_range_rho_names_interval(self, dim, rho):
        with pytest.raises(ParameterError, match="interval"):
            equicorrelated_sigma(dim, rho)

    def test_cholesky_reproduces_sigma(self):
        model = equicorrelated_sigma(6, 0.9)
        assert np.max(np.abs(model.chol @ model.chol.T - model.sigma)) < 1e-10


class TestModelValidation:
    def test_rejects_asymmetric(self):
        sigma = np.eye(3)
        sigma[0, 1] = 1e-6
        with pytest.raises(ParameterError, match="asymmetric"):
            gaussian_model(sigma)

    def test_rejects_non_unit_diagonal(self):
        sigma = np.eye(3) * 2.0
        with pytest.raises(ParameterError, match="diagonal"):
            gaussian_model(sigma)

    def test_rejects_indefinite(self):
        sigma = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        with pytest.raises(ParameterError, match="positive definite"):
            gaussian_model(sigma)


class TestTcClosedForm:
    def test_dim4_rho_half(self):
        # -0.5 ln 0.3125 = 0.581576 to 6 decimals
        assert tc_closed_form(equicorrelated_sigma(4, 0.5)) == pytest.approx(
            -0.5 * math.log(0.3125), abs=1e-12
        )

    def test_dim2_rho_half(self):
        assert tc_closed_form(equicorrelated_sigma(2, 0.5)) == pytest.approx(
            -0.5 * math.log(0.75), abs=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        model = random_correlation(5, rng)
        base = tc_closed_form(model)
        for _ in range(5):
            perm = rng.permutation(5)
            permuted = gaussian_model(model.sigma[np.ix_(perm, perm)])
            assert abs(tc_closed_form(permuted) - base) < 1e-10


class TestSolveRho:
    def test_zero_target(self):
        assert solve_rho_for_tc(4, 0.0) == 0.0

    @pytest.mark.parametrize("target", [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    def test_round_trip_on_paper_targets(self, target):
        rho = solve_rho_for_tc(4, target)
        assert abs(tc_closed_form(equicorrelated_sigma(4, rho)) - target) < 1e-9

    def test_known_rho_for_tc2(self):
        # frozen from the bisection oracle; (1-rho)^3 (1+3 rho) must equal e^-4
        rho = solve_rho_for_tc(4, 2.0)
        assert rho == pytest.approx(0.826, abs=5e-4)
        assert (1 - rho) ** 3 * (1 + 3 * rho) == pytest.approx(math.exp(-4.0), rel=1e-9)

    def test_high_target(self):
        rho = solve_rho_for_tc(4, 10.0)
        assert 0.999 < rho < 1.0
        assert (1 - rho) ** 3 * (1 + 3 * rho) == pytest.approx(math.exp(-20.0), rel=1e-6)

    def test_rejects_negative_target(self):
        with pytest.raises(ParameterError):
            solve_rho_for_tc(4, -0.5)

    @pytest.mark.parametrize("target", [math.nan, math.inf, 41.0, 1e6])
    def test_rejects_target_it_cannot_reach(self, target):
        # the bracket ends at rho = 1 - 1e-12, where the TC is 40.75 nats at dim 4
        with pytest.raises(ParameterError, match=f"target_tc.*{target}"):
            solve_rho_for_tc(4, target)

    def test_reaches_targets_just_below_the_bracket_edge(self):
        # sigma is nearly singular here, so its Cholesky factor keeps fewer digits
        rho = solve_rho_for_tc(4, 40.7)
        assert abs(tc_closed_form(equicorrelated_sigma(4, rho)) - 40.7) < 1e-3


class TestMiClosedForm:
    def test_block_diagonal_gives_zero(self):
        sigma = np.eye(4)
        sigma[0, 1] = sigma[1, 0] = 0.7
        sigma[2, 3] = sigma[3, 2] = -0.4
        model = gaussian_model(sigma)
        assert abs(mi_closed_form(model, IndexSet.of(1, 2), IndexSet.of(3, 4))) < 1e-12

    def test_dim4_rho_half_balanced_split(self):
        model = equicorrelated_sigma(4, 0.5)
        expected = 0.5 * (math.log(0.75) + math.log(0.75) - math.log(0.3125))
        got = mi_closed_form(model, IndexSet.of(1, 2), IndexSet.of(3, 4))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.293894, abs=1e-6)

    def test_dim4_rho_half_three_one_split(self):
        model = equicorrelated_sigma(4, 0.5)
        expected = 0.5 * (math.log(0.5) - math.log(0.3125))
        got = mi_closed_form(model, IndexSet.of(1, 2, 3), IndexSet.of(4))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.235002, abs=1e-6)

    def test_overlap_rejected(self):
        model = equicorrelated_sigma(4, 0.5)
        with pytest.raises(ParameterError, match="overlap"):
            mi_closed_form(model, IndexSet.of(1, 2), IndexSet.of(2, 3))

    def test_out_of_range_rejected(self):
        model = equicorrelated_sigma(3, 0.5)
        with pytest.raises(ParameterError):
            mi_closed_form(model, IndexSet.of(1), IndexSet.of(4))

    def test_nonnegative_on_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = random_correlation(5, rng)
            mi = mi_closed_form(model, IndexSet.of(1, 3), IndexSet.of(2, 4, 5))
            assert mi >= -1e-12


class TestClubClosedForm:
    @pytest.mark.parametrize(
        "truth, kind, expected",
        [
            (2.0, PathKind.TREE, 10.211),
            (2.0, PathKind.LINE, 8.488),
            (4.0, PathKind.TREE, 49.450),
            (4.0, PathKind.LINE, 40.732),
        ],
    )
    def test_plan_sums_on_the_protocol_models(self, truth, kind, expected):
        model = equicorrelated_sigma(4, solve_rho_for_tc(4, truth))
        plan = build_plan(4, kind)
        total = sum(club_closed_form(model, t.left, t.right) for t in plan.terms)
        assert round(total, 3) == expected

    def test_scalar_v_gives_exp_of_twice_the_mi_minus_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_correlation(5, rng)
            for left in (IndexSet.of(1), IndexSet.of(1, 3), IndexSet.of(1, 2, 4, 5)):
                right = IndexSet.of(3) if 3 not in left.indices else IndexSet.of(2)
                expected = math.expm1(2.0 * mi_closed_form(model, left, right))
                assert club_closed_form(model, left, right) == pytest.approx(expected, rel=1e-10)

    def test_block_v_exceeds_exp_of_twice_the_mi_minus_one(self):
        # TREE's first term at truth 2: v = (x3, x4), where the diagonal q
        # cannot follow v's own correlation
        model = equicorrelated_sigma(4, solve_rho_for_tc(4, 2.0))
        left, right = IndexSet.of(1, 2), IndexSet.of(3, 4)
        assert round(club_closed_form(model, left, right), 3) == 5.915
        assert round(math.expm1(2.0 * mi_closed_form(model, left, right)), 3) == 4.510

    def test_matches_monte_carlo_of_the_fitted_q(self):
        # E_joint log q(v|u) - E_indep log q(v|u) with q = N(B u, diag C),
        # the independent pairs made by pairing each u with another row's v
        model = random_correlation(4, np.random.default_rng(8))
        left, right = IndexSet.of(1, 2), IndexSet.of(3, 4)
        u_pos, v_pos = left.positions(), right.positions()
        s = model.sigma
        b = np.linalg.solve(s[np.ix_(u_pos, u_pos)], s[np.ix_(u_pos, v_pos)]).T
        cond_var = np.diag(s[np.ix_(v_pos, v_pos)] - b @ s[np.ix_(u_pos, v_pos)])
        x = sample(model, 400_000, np.random.default_rng(9))
        u, v = x[:, u_pos], x[:, v_pos]

        def log_q(u, v):
            return -0.5 * np.sum((v - u @ b.T) ** 2 / cond_var + np.log(2 * np.pi * cond_var), 1)

        gap = log_q(u, v) - log_q(u, np.roll(v, 1, axis=0))
        se = gap.std(ddof=1) / math.sqrt(len(gap))
        assert abs(gap.mean() - club_closed_form(model, left, right)) < 4 * se

    def test_bad_blocks_rejected(self):
        model = equicorrelated_sigma(4, 0.5)
        with pytest.raises(ParameterError, match="overlap"):
            club_closed_form(model, IndexSet.of(1, 2), IndexSet.of(2, 3))
        with pytest.raises(ParameterError, match="out of range"):
            club_closed_form(model, IndexSet.of(1), IndexSet.of(5))


class TestBinaryPartitionIdentity:
    """TC(X) = TC(X_A) + TC(X_comp) + I(X_A; X_comp) for every binary partition."""

    def test_random_models_all_partitions(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            model = random_correlation(n, rng)
            total = tc_closed_form(model)
            for mask in range(1, 2 ** n - 1):
                left = IndexSet(tuple(i + 1 for i in range(n) if mask >> i & 1))
                right = IndexSet(tuple(i + 1 for i in range(n) if not mask >> i & 1))
                tc_left, tc_right = (
                    tc_closed_form(gaussian_model(model.sigma[np.ix_(p, p)]))
                    for p in (left.positions(), right.positions())
                )
                parts = tc_left + tc_right + mi_closed_form(model, left, right)
                assert abs(parts - total) < 1e-9


class TestSampling:
    def test_shape_and_finiteness(self):
        model = equicorrelated_sigma(4, 0.3)
        x = sample(model, 1, np.random.default_rng(0))
        assert x.shape == (1, 4)
        assert np.all(np.isfinite(x))

    def test_identity_sample_covariance(self):
        model = equicorrelated_sigma(4, 0.0)
        x = sample(model, 10**5, np.random.default_rng(1))
        cov = np.cov(x, rowvar=False)
        assert np.max(np.abs(cov - np.eye(4))) < 0.02

    def test_high_correlation_sample_covariance(self):
        model = equicorrelated_sigma(4, 0.9)
        x = sample(model, 10**5, np.random.default_rng(2))
        corr = np.corrcoef(x, rowvar=False)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off - 0.9)) < 0.02

    def test_deterministic_given_seed(self):
        model = equicorrelated_sigma(3, 0.5)
        a = sample(model, 16, np.random.default_rng(9))
        b = sample(model, 16, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ParameterError):
            sample(equicorrelated_sigma(2, 0.1), 0, np.random.default_rng(0))


class TestMcOracle:
    def test_identity_model_is_zero(self):
        est, se = mc_tc_oracle(equicorrelated_sigma(4, 0.0), 10**4, np.random.default_rng(5))
        assert est == 0.0
        assert se == 0.0

    @pytest.mark.parametrize("rho,label", [(0.5, "moderate"), (0.826021824097835, "tc2")])
    def test_matches_closed_form_within_3se(self, rho, label):
        model = equicorrelated_sigma(4, rho)
        est, se = mc_tc_oracle(model, 10**5, np.random.default_rng(17))
        assert abs(est - tc_closed_form(model)) < 3 * se

    def test_convergence_over_seeds(self):
        model = equicorrelated_sigma(4, 0.5)
        truth = tc_closed_form(model)
        hits = 0
        for seed in range(20):
            est, se = mc_tc_oracle(model, 10**4, np.random.default_rng(seed))
            hits += abs(est - truth) < 3 * se
        assert hits >= 19
