import inspect
import math
import pickle
import re

import numpy as np
import pytest

from totalcorr import (
    IndexSet,
    ParameterError,
    equicorrelated_sigma,
    random_correlation,
    solve_rho_for_tc,
    tc_closed_form,
)
from totalcorr import decomposition
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
from totalcorr.diagnostics import make_loss_probes
from totalcorr.errors import TrainingError
from totalcorr.estimators import MiEstimatorKind, create_term_estimator
from totalcorr.gaussian import sample
from totalcorr.nn import GaussianHeads, Mlp, MlpScratch


def plan_as_tuples(plan: DecompositionPlan):
    return [(t.left.indices, t.right.indices) for t in plan.terms]


BLOCKS = (IndexSet.of(1, 2), IndexSet.of(3), IndexSet.of(4, 5, 6))


def block_plan(kind: PathKind) -> DecompositionPlan:
    """``build_plan(3, kind)`` over the vector variables ``BLOCKS``, written
    as a plan over their six columns."""
    def side(blocks: IndexSet) -> IndexSet:
        return IndexSet(tuple(i for b in blocks.indices for i in BLOCKS[b - 1].indices))

    terms = tuple(MiTerm(side(t.left), side(t.right)) for t in build_plan(3, kind).terms)
    return DecompositionPlan(6, kind, terms)


def empty_plan(n, kind) -> DecompositionPlan:
    return DecompositionPlan(n, kind, ())


class TestBuildPlan:
    def test_single_variable_gives_empty_plan(self):
        assert build_plan(1, PathKind.TREE).terms == ()
        assert build_plan(1, PathKind.LINE).terms == ()

    # build_plan and DecompositionPlan share one rule for n and kind
    @pytest.mark.parametrize("make", [build_plan, empty_plan])
    @pytest.mark.parametrize("kind", list(PathKind))
    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "4"])
    def test_bad_n_rejected_by_name(self, make, kind, n):
        with pytest.raises(ParameterError, match=re.escape(f"n must be a positive integer, got {n!r}")):
            make(n, kind)

    @pytest.mark.parametrize("make", [build_plan, empty_plan])
    def test_kind_must_be_a_path_kind(self, make):
        with pytest.raises(ParameterError, match="kind must be a PathKind, got 'TREE'"):
            make(4, "TREE")

    @pytest.mark.parametrize("kind", list(PathKind))
    def test_numpy_integer_n_accepted(self, kind):
        # ExperimentConfig.dim may be a numpy integer
        assert plan_as_tuples(build_plan(np.int64(4), kind)) == plan_as_tuples(build_plan(4, kind))

    def test_terms_stored_as_a_tuple_of_mi_terms(self):
        tree = build_plan(4, PathKind.TREE)
        plan = DecompositionPlan(4, PathKind.TREE, list(tree.terms))
        assert type(plan.terms) is tuple and plan == tree and hash(plan) == hash(tree)
        with pytest.raises(ParameterError, match=r"term 1 is not an MiTerm: \(\(1,\), \(2,\)\)"):
            DecompositionPlan(4, PathKind.TREE, [tree.terms[0], ((1,), (2,))])

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

    @pytest.mark.parametrize("kind", [PathKind.TREE, PathKind.LINE])
    def test_block_plans_sum_to_the_block_tc(self, kind):
        # TC of the vector variables BLOCKS: 1/2 [sum_b log det S_bb - log det S]
        rng = np.random.default_rng(29)
        plan = block_plan(kind)
        for _ in range(20):
            model = random_correlation(6, rng)
            blocks = [model.sigma[np.ix_(b.positions(), b.positions())] for b in BLOCKS]
            block_tc = 0.5 * (sum(np.linalg.slogdet(s)[1] for s in blocks) - np.linalg.slogdet(model.sigma)[1])
            assert closed_form_plan_sum(model, plan) == pytest.approx(block_tc, abs=1e-12)

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
        # the LINE path over the blocks {1, 2}, {3}, {4, 5, 6}
        est = make_tc_estimator(block_plan(PathKind.LINE), MiEstimatorKind.MINE, seed=0)
        assert est.plan.n == 6
        assert [t.net.in_dim for t in est.terms] == [3, 6]

    def test_index_above_n_rejected(self):
        with pytest.raises(ParameterError, match="term 0 names variable 7, but the plan has n=4"):
            DecompositionPlan(4, PathKind.TREE, (MiTerm(IndexSet.of(1), IndexSet.of(5, 7)),))

    def test_kind_must_be_an_estimator_kind(self):
        # a string kind would build the nets and fail only at the first step
        with pytest.raises(ParameterError, match="kind must be a MiEstimatorKind, got 'NWJ'"):
            make_tc_estimator(build_plan(4, PathKind.TREE), "NWJ", 0)

    def test_kind_checked_on_a_plan_with_no_terms(self):
        # one variable gives no terms, so no term estimator would see the kind
        with pytest.raises(ParameterError, match="kind must be a MiEstimatorKind, got 'NWJ'"):
            make_tc_estimator(build_plan(1, PathKind.TREE), "NWJ", 0)

    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan, math.inf, True, "1e-4", None])
    def test_bad_learning_rate_rejected(self, lr):
        # True would train at lr 1.0, as ExperimentConfig refuses to
        with pytest.raises(ParameterError, match=re.escape(f"lr must be positive and finite, got {lr!r}")):
            make_tc_estimator(build_plan(3, PathKind.LINE), MiEstimatorKind.MINE, seed=0, lr=lr)

    @pytest.mark.parametrize("hidden", [2.5, True, 0, -3, "20", None])
    def test_bad_hidden_rejected_by_name(self, hidden):
        # unchecked, 2.5 fails deep in numpy and True builds one hidden unit
        with pytest.raises(ParameterError, match=re.escape(f"hidden must be a positive integer, got {hidden!r}")):
            make_tc_estimator(build_plan(3, PathKind.LINE), MiEstimatorKind.MINE, seed=0, hidden=hidden)

    def test_numpy_integer_hidden_accepted(self):
        est = make_tc_estimator(build_plan(3, PathKind.LINE), MiEstimatorKind.NWJ, 0, hidden=np.int64(7))
        assert [t.net.hidden_dim for t in est.terms] == [7, 7]


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


def _state(est):
    return (
        est.theta.tobytes(),
        est.adam.m.tobytes(),
        est.adam.v.tobytes(),
        est.adam.step_count,
        [t.ema_denominator for t in est.terms],
        [t.net.theta.tobytes() for t in est.terms],
    )


def _trained(kind, steps=3, path=PathKind.TREE):
    est = make_tc_estimator(build_plan(4, path), kind, seed=4)
    rng = np.random.default_rng(6)
    model = equicorrelated_sigma(4, 0.5)
    for _ in range(steps):
        tc_train_step(est, sample(model, 8, rng))
    return est, sample(model, 8, rng)


class TestAllOrNothingStep:
    # a step that fails in term k moves nothing: no term's parameters, no
    # Adam moment, not the step count and no MINE moving average

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_non_finite_loss_in_term_k(self, k):
        est, batch = _trained(MiEstimatorKind.NWJ)
        est.terms[k].net.b2[...] = 1e6  # e^(score-1) overflows to inf
        before = _state(est)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError) as info:
            tc_train_step(est, batch)
        assert str(info.value) == f"non-finite loss [estimator=NWJ, term={k}, step=4]"
        assert _state(est) == before

    @pytest.mark.parametrize("kind", list(MiEstimatorKind))
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_non_finite_gradient_in_term_k(self, kind, k, monkeypatch):
        est, batch = _trained(kind)
        net = est.terms[k].net
        # a CLUB estimator's heads run one backward, the pass's, for all terms
        owner = GaussianHeads if kind is MiEstimatorKind.CLUB else Mlp
        backward = owner.backward

        def nan_backward(self, cache, dout):
            backward(self, cache, dout)
            if self is net or self is est.heads:
                # the last output bias: the log-variance group's in a CLUB head
                net.grad[-1] = math.nan

        monkeypatch.setattr(owner, "backward", nan_backward)
        before = _state(est)
        with pytest.raises(TrainingError) as info:
            tc_train_step(est, batch)
        assert str(info.value) == f"non-finite gradient [estimator={kind.value}, term={k}, step=4]"
        assert _state(est) == before

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_non_finite_club_loss_in_head_k(self, k):
        # a mean so far off that the squared residual overflows: head k's
        # NLL is inf, while every head runs in the one pass
        est, batch = _trained(MiEstimatorKind.CLUB)
        net = est.terms[k].net
        net.b2[: net.out_dim] = 1e200
        before = _state(est)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError) as info:
            tc_train_step(est, batch)
        assert str(info.value) == f"non-finite loss [estimator=CLUB, term={k}, step=4]"
        assert _state(est) == before

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("col, k", [(0, 0), (1, 0), (2, 1), (3, 2)])
    def test_non_finite_club_batch_entry_charged_to_its_first_reader(self, bad, col, k):
        # the pass's first layer spreads the entry to every head, yet the
        # step is charged to the first term that reads its column, the one
        # that fails first on its own: LINE's term k reads columns 0..k+1
        est, batch = _trained(MiEstimatorKind.CLUB, path=PathKind.LINE)
        batch[3, col] = bad
        before = _state(est)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError) as info:
            tc_train_step(est, batch)
        assert str(info.value) == f"non-finite loss [estimator=CLUB, term={k}, step=4]"
        assert _state(est) == before

    def test_first_failure_in_term_order_is_named(self, monkeypatch):
        # term 0's gradient fails before term 2's loss, as the terms run
        est, batch = _trained(MiEstimatorKind.NWJ)
        est.terms[2].net.b2[...] = 1e6
        backward = Mlp.backward

        def nan_backward(self, cache, dout):
            backward(self, cache, dout)
            if self is est.terms[0].net:
                self.grad[0] = math.inf

        monkeypatch.setattr(Mlp, "backward", nan_backward)
        before = _state(est)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError) as info:
            tc_train_step(est, batch)
        assert str(info.value) == "non-finite gradient [estimator=NWJ, term=0, step=4]"
        assert _state(est) == before

    def test_training_goes_on_after_a_failed_step(self):
        # the failed step leaves the estimator as a clean one with the same
        # history, so the next good step matches it byte for byte
        est, batch = _trained(MiEstimatorKind.MINE)
        clean, _ = _trained(MiEstimatorKind.MINE)
        saved = est.terms[1].net.b2.copy()
        est.terms[1].net.b2[...] = math.nan
        with pytest.raises(TrainingError):
            tc_train_step(est, batch)
        est.terms[1].net.b2[...] = saved
        assert tc_train_step(est, batch)[1].tobytes() == tc_train_step(clean, batch)[1].tobytes()
        assert _state(est) == _state(clean)


def _scratch_bytes(est) -> int:
    """Bytes of the distinct arrays the terms' nets hold besides the
    estimator's parameter and gradient vectors, each counted once at its base."""
    bases, visited = {}, set()

    def walk(obj):
        if isinstance(obj, np.ndarray):
            while obj.base is not None:
                obj = obj.base
            bases[id(obj)] = obj
        elif isinstance(obj, dict):
            for item in obj.values():
                walk(item)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                walk(item)
        elif hasattr(obj, "__dict__") and id(obj) not in visited:
            visited.add(id(obj))
            walk(vars(obj))

    for term in est.terms:
        walk(term.net)
    return sum(a.nbytes for key, a in bases.items() if key not in (id(est.theta), id(est.grad)))


CRITIC_KINDS = [MiEstimatorKind.MINE, MiEstimatorKind.NWJ, MiEstimatorKind.INFONCE]


class TestActivationScratch:
    @pytest.mark.parametrize("path", list(PathKind))
    @pytest.mark.parametrize("kind", CRITIC_KINDS)
    def test_critic_terms_share_one_hidden_buffer(self, kind, path):
        est = make_tc_estimator(build_plan(4, path), kind, seed=0)
        rng = np.random.default_rng(0)
        hidden = [t.net.forward(rng.standard_normal((5, t.net.in_dim)))[1].hidden for t in est.terms]
        assert all(np.shares_memory(hidden[0], h) for h in hidden[1:])

    @pytest.mark.parametrize("path", list(PathKind))
    def test_club_heads_share_one_float64_scratch(self, path):
        # the pass over all heads keeps its buffers in the terms' one
        # scratch: one input buffer of the whole batch and one hidden buffer
        # of every head's two groups, per batch size
        est = make_tc_estimator(build_plan(4, path), MiEstimatorKind.CLUB, seed=0)
        scratch = est.terms[0].net.scratch
        assert scratch.dtype == np.float64
        assert all(t.net.scratch is scratch for t in est.terms) and est.heads.scratch is scratch
        rng = np.random.default_rng(0)
        cache = est.heads.forward(rng.standard_normal((5, 4)))
        assert cache.hidden.shape == (3 * 40, 5) and cache.x.shape == (5, 5)
        tc_train_step(est, sample(equicorrelated_sigma(4, 0.5), 64, rng))
        assert set(scratch.hidden) == {(6, 20, 64), (6, 20, 5)}
        assert set(scratch.inputs) == {(4, 64), (4, 5)}

    @pytest.mark.parametrize("path", list(PathKind))
    @pytest.mark.parametrize("kind", CRITIC_KINDS)
    def test_footprint_after_a_step(self, kind, path):
        # one (20, 4096) activation buffer and one (w + 1, 4096) input buffer
        # per distinct input width w, in float32, for the 64 * 64 pair grid
        est = make_tc_estimator(build_plan(4, path), kind, seed=0)
        tc_train_step(est, sample(equicorrelated_sigma(4, 0.5), 64, np.random.default_rng(1)))
        widths = {t.net.in_dim for t in est.terms}
        assert _scratch_bytes(est) <= 4 * 4096 * (20 + sum(w + 1 for w in widths))

    @pytest.mark.parametrize("kind", CRITIC_KINDS)
    def test_critic_scratch_is_float32(self, kind):
        est = make_tc_estimator(build_plan(4, PathKind.TREE), kind, seed=0)
        assert all(t.net.scratch.dtype == np.float32 for t in est.terms)
        pairs = est.terms[0].net.input_buffer(64 * 64)
        assert pairs.dtype == np.float32

    def test_every_other_net_keeps_float64(self):
        rng = np.random.default_rng(0)
        club = make_tc_estimator(build_plan(4, PathKind.LINE), MiEstimatorKind.CLUB, seed=0)
        nets = [t.net for t in club.terms]
        nets += [create_term_estimator(kind, 2, 1, rng).net for kind in CRITIC_KINDS]
        for probe in make_loss_probes(rng):
            found = inspect.getclosurevars(probe.loss_grad_sig).nonlocals
            nets += [found["critic"]] if "critic" in found else [t.net for t in found["est"].terms]
        assert len(nets) == 3 + 3 + 3 + 3
        assert all(net.scratch.dtype == np.float64 for net in nets)


# float32 activations against float64 ones on the same parameters and batch:
# the values differ by about 3e-8 and the gradient by under 1e-6 of its
# largest entry (TREE and LINE, the three critic kinds)
VALUE_RTOL, VALUE_ATOL = 1e-6, 1e-6
GRAD_RTOL, GRAD_ATOL_OF_MAX = 1e-4, 1e-5


class TestFloat32Activations:
    @pytest.mark.parametrize("path", list(PathKind))
    @pytest.mark.parametrize("kind", CRITIC_KINDS)
    def test_value_and_grad_match_float64(self, kind, path):
        plan = build_plan(4, path)
        est32 = make_tc_estimator(plan, kind, seed=3, lr=1e-2)
        est64 = make_tc_estimator(plan, kind, seed=3, lr=1e-2)
        scratch64 = MlpScratch()
        for term in est64.terms:
            term.net.scratch = scratch64
        model = equicorrelated_sigma(4, solve_rho_for_tc(4, 2.0))
        rng = np.random.default_rng(4)
        # move the parameters and MINE's moving average off their start
        for _ in range(50):
            tc_train_step(est64, sample(model, 64, rng))
        est32.theta[...] = est64.theta
        for t32, t64 in zip(est32.terms, est64.terms):
            t32.ema_denominator = t64.ema_denominator
        batch = sample(model, 64, rng)
        for step in (tc_evaluate, tc_train_step):
            np.testing.assert_allclose(
                step(est32, batch)[1], step(est64, batch)[1], rtol=VALUE_RTOL, atol=VALUE_ATOL
            )
        atol = GRAD_ATOL_OF_MAX * np.max(np.abs(est64.grad))
        np.testing.assert_allclose(est32.grad, est64.grad, rtol=GRAD_RTOL, atol=atol)
        assert est32.grad.dtype == np.float64 and est32.theta.dtype == np.float64


def _explicit_columns(est) -> None:
    """Replace the estimator's column slices with the index arrays they stand for."""
    for cols in (est.left_cols, est.right_cols):
        cols[:] = [np.arange(est.plan.n)[c] for c in cols]


class TestColumnViews:
    @pytest.mark.parametrize(
        "plan",
        [build_plan(4, PathKind.TREE), build_plan(4, PathKind.LINE), block_plan(PathKind.TREE)],
        ids=["TREE", "LINE", "TREE-blocks-2-1-3"],
    )
    def test_terms_read_views_of_the_batch(self, plan, monkeypatch):
        est = make_tc_estimator(plan, MiEstimatorKind.NWJ, seed=0)
        batch = np.random.default_rng(2).standard_normal((6, plan.n))
        seen = []
        monkeypatch.setattr(decomposition, "evaluate", lambda term, u, v: seen.append((u, v)) or 0.0)
        tc_evaluate(est, batch)

        def columns(side):
            return [i - 1 for i in side.indices]

        assert len(seen) == est.n_terms
        for term, (u, v) in zip(plan.terms, seen):
            assert np.shares_memory(u, batch) and np.shares_memory(v, batch)
            assert np.array_equal(u, batch[:, columns(term.left)])
            assert np.array_equal(v, batch[:, columns(term.right)])

    @pytest.mark.parametrize("kind", list(MiEstimatorKind), ids=lambda k: k.value)
    def test_non_contiguous_sides_match_explicit_copies(self, kind):
        # sides {1, 3} and {2, 4} are no single range of columns, so they stay
        # index arrays; the single-variable sides become slices
        plan = DecompositionPlan(
            n=4,
            kind=PathKind.TREE,
            terms=(
                MiTerm(IndexSet.of(1, 3), IndexSet.of(2, 4)),
                MiTerm(IndexSet.of(1), IndexSet.of(3)),
                MiTerm(IndexSet.of(2), IndexSet.of(4)),
            ),
        )
        est = make_tc_estimator(plan, kind, seed=4, lr=1e-3)
        assert not isinstance(est.left_cols[0], slice) and isinstance(est.left_cols[1], slice)
        explicit = make_tc_estimator(plan, kind, seed=4, lr=1e-3)
        _explicit_columns(explicit)
        model = equicorrelated_sigma(4, 0.6)
        rng = np.random.default_rng(6)
        for _ in range(5):
            batch = sample(model, 16, rng)
            got = tc_train_step(est, batch)
            assert got[1].tobytes() == tc_train_step(explicit, batch)[1].tobytes()
            assert np.isfinite(got[1]).all()
        batch = sample(model, 16, rng)
        assert tc_evaluate(est, batch)[1].tobytes() == tc_evaluate(explicit, batch)[1].tobytes()
        assert est.theta.tobytes() == explicit.theta.tobytes()


def _trained_and_stack(kind, path, n_batch, c):
    """A 4-variable estimator after 20 steps at batch ``n_batch``, so its
    parameters and MINE's moving average are off their start, and a
    (c, n_batch, 4) stack of fresh batches."""
    est = make_tc_estimator(build_plan(4, path), kind, seed=5, lr=1e-2)
    model = equicorrelated_sigma(4, 0.6)
    rng = np.random.default_rng(8)
    for _ in range(20):
        tc_train_step(est, sample(model, n_batch, rng))
    return est, sample(model, c * n_batch, rng).reshape(c, n_batch, 4)


def _one_call_per_batch(est, stack):
    calls = [tc_evaluate(est, batch) for batch in stack]
    return np.array([total for total, _ in calls]), np.array([values for _, values in calls])


class TestStackedEvaluate:
    @pytest.mark.parametrize("path", list(PathKind), ids=lambda p: p.value)
    @pytest.mark.parametrize("kind", list(MiEstimatorKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("n_batch, c", [(8, 128), (64, 16)])
    def test_stack_gives_the_bytes_of_one_call_per_batch(self, kind, path, n_batch, c):
        est, stack = _trained_and_stack(kind, path, n_batch, c)
        theta = est.theta.copy()
        totals, values = tc_evaluate(est, stack)
        assert totals.shape == (c,) and values.shape == (c, est.n_terms)
        one_totals, one_values = _one_call_per_batch(est, stack)
        assert totals.tobytes() == one_totals.tobytes()
        assert values.tobytes() == one_values.tobytes()
        assert est.theta.tobytes() == theta.tobytes()

    @pytest.mark.parametrize("path", list(PathKind), ids=lambda p: p.value)
    def test_club_at_batch_17_agrees_within_a_few_ulps(self, path):
        """Not byte for byte at N = 17: a CLUB head's one dgemm over all
        17 * c rows of the stack blocks its columns (rows of the batch)
        differently from a dgemm over one batch's 17, and the BLAS gives the
        edge columns of a block other last bits. On the 2-core Xeon's
        OpenBLAS a head pass gives every row the same bits whatever the
        pass's row count only when N is a multiple of 8 (of 4 when v is one
        column wide); at N = 2 to 69 otherwise the stack and the one-batch
        calls may differ in the last bits. The values here agree to within
        8 ulps of the stack's largest value."""
        est, stack = _trained_and_stack(MiEstimatorKind.CLUB, path, 17, 60)
        totals, values = tc_evaluate(est, stack)
        one_totals, one_values = _one_call_per_batch(est, stack)
        for got, want in ((values, one_values), (totals, one_totals)):
            np.testing.assert_allclose(got, want, rtol=0, atol=8 * np.spacing(np.abs(want).max()))

    def test_training_takes_one_batch_not_a_stack(self):
        est = make_tc_estimator(build_plan(4, PathKind.TREE), MiEstimatorKind.CLUB, seed=0)
        theta = est.theta.copy()
        message = re.escape("training takes one (N, 4) batch, got a stack (2, 8, 4)")
        with pytest.raises(ParameterError, match=message):
            tc_train_step(est, np.zeros((2, 8, 4)))
        assert est.adam.step_count == 0 and np.array_equal(est.theta, theta)

    @pytest.mark.parametrize("shape", [(8,), (8, 3), (2, 8, 5), (1, 2, 8, 4)])
    def test_batch_shape_is_checked(self, shape):
        est = make_tc_estimator(build_plan(4, PathKind.LINE), MiEstimatorKind.NWJ, seed=0)
        message = re.escape(f"batch must be (N, 4) or a (c, N, 4) stack, got {shape}")
        with pytest.raises(ParameterError, match=message):
            tc_evaluate(est, np.zeros(shape))
