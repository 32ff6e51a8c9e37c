import math
import pickle

import numpy as np
import pytest

from totalcorr import (
    IndexSet,
    ParameterError,
    equicorrelated_sigma,
    random_correlation,
    tc_closed_form,
)
from totalcorr.decomposition import (
    DecompositionPlan,
    MiTerm,
    PathKind,
    build_plan,
    closed_form_plan_sum,
    make_tc_estimator,
    tc_evaluate,
    tc_train_step,
)
from totalcorr.errors import TrainingError
from totalcorr.estimators import MiEstimatorKind
from totalcorr.gaussian import sample


def plan_as_tuples(plan: DecompositionPlan):
    return [(t.left.indices, t.right.indices) for t in plan.terms]


class TestBuildPlan:
    def test_single_variable_gives_empty_plan(self):
        assert build_plan(1, PathKind.TREE).terms == ()
        assert build_plan(1, PathKind.LINE).terms == ()

    def test_tree_dim4(self):
        # floor-midpoint split: ((1,2);(3,4)) first, then both halves
        assert plan_as_tuples(build_plan(4, PathKind.TREE)) == [
            ((1, 2), (3, 4)),
            ((1,), (2,)),
            ((3,), (4,)),
        ]

    def test_line_dim4(self):
        assert plan_as_tuples(build_plan(4, PathKind.LINE)) == [
            ((1,), (2,)),
            ((1, 2), (3,)),
            ((1, 2, 3), (4,)),
        ]

    def test_tree_dim3(self):
        assert plan_as_tuples(build_plan(3, PathKind.TREE)) == [
            ((1, 2), (3,)),
            ((1,), (2,)),
        ]

    def test_rejects_zero_variables(self):
        with pytest.raises(ParameterError):
            build_plan(0, PathKind.TREE)

    @pytest.mark.parametrize("kind", [PathKind.TREE, PathKind.LINE])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_term_count_is_n_minus_one(self, n, kind):
        assert len(build_plan(n, kind).terms) == n - 1

    @pytest.mark.parametrize("kind", [PathKind.TREE, PathKind.LINE])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_every_index_appears_and_sides_disjoint(self, n, kind):
        plan = build_plan(n, kind)
        seen = set()
        for term in plan.terms:
            assert not set(term.left.indices) & set(term.right.indices)
            seen.update(term.left.indices)
            seen.update(term.right.indices)
        assert seen == set(range(1, n + 1))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_tree_splits_are_balanced(self, n):
        for term in build_plan(n, PathKind.TREE).terms:
            assert abs(len(term.left) - len(term.right)) <= 1

    def test_line_right_sides_are_singletons(self):
        for term in build_plan(7, PathKind.LINE).terms:
            assert len(term.right) == 1

    def test_overlapping_term_rejected(self):
        with pytest.raises(ParameterError):
            MiTerm(IndexSet.of(1, 2), IndexSet.of(2, 3))


class TestPlanSumIdentity:
    def test_identity_covariance_sums_to_zero(self):
        model = equicorrelated_sigma(4, 0.0)
        for kind in PathKind:
            assert closed_form_plan_sum(model, build_plan(4, kind)) == 0.0

    def test_line_dim4_term_values(self):
        # per-term Gaussian MI hand computation; total is -0.5 ln 0.3125
        model = equicorrelated_sigma(4, 0.5)
        plan = build_plan(4, PathKind.LINE)
        from totalcorr import mi_closed_form

        per_term = [mi_closed_form(model, t.left, t.right) for t in plan.terms]
        assert per_term == pytest.approx([0.143841, 0.202733, 0.235002], abs=1e-6)
        assert sum(per_term) == pytest.approx(-0.5 * math.log(0.3125), abs=1e-12)

    def test_tree_dim4_term_values(self):
        model = equicorrelated_sigma(4, 0.5)
        plan = build_plan(4, PathKind.TREE)
        from totalcorr import mi_closed_form

        per_term = [mi_closed_form(model, t.left, t.right) for t in plan.terms]
        assert per_term == pytest.approx([0.293894, 0.143841, 0.143841], abs=1e-6)
        assert sum(per_term) == pytest.approx(-0.5 * math.log(0.3125), abs=1e-12)

    @pytest.mark.parametrize("kind", [PathKind.TREE, PathKind.LINE])
    def test_random_covariances_match_closed_form(self, kind):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            model = random_correlation(n, rng)
            plan = build_plan(n, kind)
            assert abs(
                closed_form_plan_sum(model, plan) - tc_closed_form(model)
            ) < 1e-9

    def test_dimension_mismatch_rejected(self):
        model = equicorrelated_sigma(4, 0.5)
        with pytest.raises(ParameterError):
            closed_form_plan_sum(model, build_plan(3, PathKind.LINE))


class TestMakeTcEstimator:
    def test_club_line_widths(self):
        plan = build_plan(4, PathKind.LINE)
        est = make_tc_estimator(plan, MiEstimatorKind.CLUB, seed=0)
        assert [t.u_dim for t in est.terms] == [1, 2, 3]
        assert [t.v_dim for t in est.terms] == [1, 1, 1]

    def test_mine_tree_input_widths(self):
        plan = build_plan(4, PathKind.TREE)
        est = make_tc_estimator(plan, MiEstimatorKind.MINE, seed=0)
        assert [t.net.in_dim for t in est.terms] == [4, 2, 2]

    def test_same_seed_gives_identical_parameters(self):
        plan = build_plan(4, PathKind.TREE)
        a = make_tc_estimator(plan, MiEstimatorKind.NWJ, seed=99)
        b = make_tc_estimator(plan, MiEstimatorKind.NWJ, seed=99)
        for ta, tb in zip(a.terms, b.terms):
            assert np.array_equal(ta.net.theta, tb.net.theta)

    def test_vector_blocks(self):
        plan = build_plan(3, PathKind.LINE)
        est = make_tc_estimator(plan, MiEstimatorKind.MINE, seed=0, dims=[2, 1, 3])
        assert est.width == 6
        assert [t.net.in_dim for t in est.terms] == [3, 6]

    def test_bad_dims_rejected(self):
        plan = build_plan(3, PathKind.LINE)
        with pytest.raises(ParameterError):
            make_tc_estimator(plan, MiEstimatorKind.MINE, seed=0, dims=[1, 1])


class TestTcTraining:
    def test_single_variable_is_a_noop(self):
        plan = build_plan(1, PathKind.LINE)
        est = make_tc_estimator(plan, MiEstimatorKind.MINE, seed=0)
        total, per_term = tc_train_step(est, np.zeros((8, 1)))
        assert total == 0.0
        assert per_term.size == 0

    def test_zeroed_mine_critics_start_at_zero(self):
        plan = build_plan(4, PathKind.TREE)
        est = make_tc_estimator(plan, MiEstimatorKind.MINE, seed=0)
        for term_est in est.terms:
            term_est.net.theta[:] = 0.0
        batch = sample(equicorrelated_sigma(4, 0.5), 16, np.random.default_rng(0))
        total, per_term = tc_train_step(est, batch)
        assert total == 0.0
        assert np.array_equal(per_term, np.zeros(3))

    def test_total_is_exact_sum_of_terms(self):
        plan = build_plan(4, PathKind.LINE)
        est = make_tc_estimator(plan, MiEstimatorKind.INFONCE, seed=3)
        batch = sample(equicorrelated_sigma(4, 0.8), 32, np.random.default_rng(1))
        total, per_term = tc_train_step(est, batch)
        assert total == float(np.sum(per_term))

    def test_deterministic_trace(self):
        def run():
            rng = np.random.default_rng(5)
            model = equicorrelated_sigma(4, 0.7)
            est = make_tc_estimator(build_plan(4, PathKind.TREE), MiEstimatorKind.NWJ, seed=11)
            return [tc_train_step(est, sample(model, 32, rng))[0] for _ in range(20)]

        assert run() == run()

    def test_batch_width_mismatch_rejected(self):
        est = make_tc_estimator(build_plan(4, PathKind.LINE), MiEstimatorKind.MINE, seed=0)
        with pytest.raises(ParameterError):
            tc_train_step(est, np.zeros((8, 3)))

    def test_infonce_estimates_respect_cap(self):
        n_batch = 16
        est = make_tc_estimator(build_plan(4, PathKind.TREE), MiEstimatorKind.INFONCE, seed=7)
        rng = np.random.default_rng(2)
        model = equicorrelated_sigma(4, 0.9)
        cap = 3 * math.log(n_batch)
        for _ in range(50):
            total, _ = tc_train_step(est, sample(model, n_batch, rng))
            assert total <= cap + 1e-12

    def test_evaluate_does_not_update(self):
        est = make_tc_estimator(build_plan(4, PathKind.LINE), MiEstimatorKind.CLUB, seed=1)
        batch = sample(equicorrelated_sigma(4, 0.5), 16, np.random.default_rng(3))
        before = [t.net.theta.copy() for t in est.terms]
        total_a, _ = tc_evaluate(est, batch)
        total_b, _ = tc_evaluate(est, batch)
        assert total_a == total_b
        for term_est, saved in zip(est.terms, before):
            assert np.array_equal(term_est.net.theta, saved)

    def test_training_error_carries_each_layers_field_once(self):
        est = make_tc_estimator(build_plan(4, PathKind.TREE), MiEstimatorKind.NWJ, seed=0)
        est.terms[1].net.b2[...] = 1e6  # e^(score-1) overflows to inf
        batch = sample(equicorrelated_sigma(4, 0.5), 8, np.random.default_rng(0))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError) as info:
            tc_train_step(est, batch)
        exc = info.value
        assert (exc.kind, exc.term, exc.step) == ("NWJ", 1, 1)
        assert str(exc) == "non-finite loss [estimator=NWJ, term=1, step=1]"
        # pool workers send it to the parent pickled
        copy = pickle.loads(pickle.dumps(exc))
        assert (copy.kind, copy.term, copy.step, str(copy)) == ("NWJ", 1, 1, str(exc))
