from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stagemix import (
    CapabilityModelSpec,
    Injection,
    LossTraceSpec,
    SimStage,
    TASKS,
    ValidationError,
    builtin_condition,
    builtin_registry,
    compare_exposure,
    detect_spikes,
    spike_frequency,
    stage_transition_ratio,
    synth_capability,
    synth_loss,
)

# Near-flat decay with noise: reliable recall for 5-sigma injections.
RECALL_SPEC = LossTraceSpec(
    stages=(SimStage(1, 1000, 3.0, 1e6, 0.02),),
    injections=tuple(Injection(s, 5.0) for s in (200, 400, 600, 800)),
)

# Steep decay: the trend dominates windowed sigma, so noise alone
# almost never crosses the threshold.
FALSE_POSITIVE_SPEC = LossTraceSpec(stages=(SimStage(1, 1000, 40.0, 2000.0, 0.02),))


def continued(prev: SimStage, steps, tau, noise=0.0, index=None):
    """Next stage starting exactly where `prev` ends, keeping the curve monotone."""
    end = prev.amplitude * np.exp(-prev.steps / prev.tau)
    return SimStage(index or prev.index + 1, steps, float(end), tau, noise)


class TestLossSimulator:
    def test_noiseless_trace_matches_closed_form(self):
        spec = LossTraceSpec(stages=(SimStage(1, 100, 4.0, 50.0),))
        result = synth_loss(spec)
        expected = 4.0 * np.exp(-np.arange(100) / 50.0)
        assert np.array_equal(result.trace.losses, expected)
        assert np.array_equal(result.trace.losses, result.noiseless.losses)

    def test_same_seed_same_trace(self):
        noisy = LossTraceSpec(stages=(SimStage(1, 500, 3.0, 200.0, 0.05),), seed=17)
        a = synth_loss(noisy)
        b = synth_loss(noisy)
        assert np.array_equal(a.trace.losses, b.trace.losses)

    def test_seed_argument_overrides_spec_seed(self):
        noisy = LossTraceSpec(stages=(SimStage(1, 500, 3.0, 200.0, 0.05),), seed=17)
        assert not np.array_equal(synth_loss(noisy, seed=18).trace.losses, synth_loss(noisy).trace.losses)
        assert np.array_equal(synth_loss(noisy, seed=17).trace.losses, synth_loss(noisy).trace.losses)

    def test_noise_requires_a_seed(self):
        noisy = LossTraceSpec(stages=(SimStage(1, 10, 3.0, 200.0, 0.05),))
        with pytest.raises(ValueError, match="seed"):
            synth_loss(noisy)

    def test_injection_without_noise_uses_unit_scale(self):
        spec = LossTraceSpec(
            stages=(SimStage(1, 50, 4.0, 1000.0),),
            injections=(Injection(20, 2.5),),
        )
        result = synth_loss(spec)
        clean = 4.0 * np.exp(-20 / 1000.0)
        assert result.trace.losses[20] == clean + 2.5
        assert result.injected_steps == (20,)

    def test_injection_scales_with_stage_noise(self):
        spec = LossTraceSpec(
            stages=(SimStage(1, 50, 4.0, 1000.0, 0.1),),
            injections=(Injection(20, 5.0),),
            seed=3,
        )
        plain = LossTraceSpec(stages=spec.stages, seed=3)
        with_spike = synth_loss(spec).trace.losses
        without = synth_loss(plain).trace.losses
        bump = with_spike[20] - without[20]
        assert bump == pytest.approx(0.5, abs=1e-12)

    def test_losses_clamp_at_zero(self):
        spec = LossTraceSpec(
            stages=(SimStage(1, 10, 1.0, 100.0),),
            injections=(Injection(5, -50.0),),
        )
        result = synth_loss(spec)
        assert result.trace.losses[5] == 0.0
        assert (result.trace.losses >= 0).all()

    def test_ground_truth_transitions_match_analyzer_exactly(self):
        s1 = SimStage(1, 300, 4.0, 500.0)
        spec = LossTraceSpec(stages=(s1, SimStage(2, 300, 2.5, 700.0), SimStage(3, 300, 2.2, 900.0)))
        result = synth_loss(spec)
        measured = stage_transition_ratio(result.trace)
        assert result.true_transitions == measured.transitions
        assert len(result.true_transitions) == 2

    def test_log_interval_keeps_multiples_and_final_step(self):
        spec = LossTraceSpec(stages=(SimStage(1, 103, 4.0, 500.0),), log_interval=10)
        steps = synth_loss(spec).trace.steps.tolist()
        assert steps == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 102]

    def test_injection_must_land_on_a_logged_step(self):
        spec = LossTraceSpec(
            stages=(SimStage(1, 100, 4.0, 500.0),),
            log_interval=10,
            injections=(Injection(15, 3.0),),
        )
        with pytest.raises(ValidationError, match="never be logged"):
            synth_loss(spec)

    @pytest.mark.parametrize(
        "stages, message",
        [
            ((), "at least one stage"),
            ((SimStage(2, 10, 1.0, 10.0),), "consecutively"),
            ((SimStage(1, 0, 1.0, 10.0),), "steps must be >= 1"),
            ((SimStage(1, 10, 0.0, 10.0),), "amplitude"),
            ((SimStage(1, 10, 1.0, 0.0),), "tau"),
            ((SimStage(1, 10, 1.0, 10.0, -0.1),), "noise"),
        ],
    )
    def test_spec_validation(self, stages, message):
        with pytest.raises(ValidationError, match=message):
            synth_loss(LossTraceSpec(stages=stages))

    def test_injection_outside_run_rejected(self):
        spec = LossTraceSpec(stages=(SimStage(1, 10, 1.0, 10.0),), injections=(Injection(10, 1.0),))
        with pytest.raises(ValidationError, match="outside"):
            synth_loss(spec)

    def test_noiseless_monotone_curve_has_no_spikes(self):
        s1 = SimStage(1, 400, 3.0, 5000.0)
        s2 = continued(s1, 300, 8000.0)
        s3 = continued(s2, 300, 9000.0)
        result = synth_loss(LossTraceSpec(stages=(s1, s2, s3)))
        assert (np.diff(result.trace.losses) <= 0).all()
        assert spike_frequency(result.trace, 50) == 0.0

    def test_recall_family_detects_planted_spikes(self):
        hits = total = 0
        for seed in range(20):
            result = synth_loss(RECALL_SPEC, seed=seed)
            found = set(detect_spikes(result.trace, 50).spike_steps)
            hits += len(found & set(result.injected_steps))
            total += len(result.injected_steps)
        assert hits / total >= 0.95

    def test_false_positive_family_stays_quiet(self):
        for seed in range(20):
            result = synth_loss(FALSE_POSITIVE_SPEC, seed=seed)
            assert spike_frequency(result.trace, 50) <= 0.01


class TestCapabilitySimulator:
    def test_eval_steps_are_interval_multiples_plus_final(self):
        cond = builtin_condition("A", (100, 450, 450))
        result = synth_capability(cond, CapabilityModelSpec(eval_interval=300))
        assert [s.step for s in result.snapshots] == [300, 600, 900, 1000]

    def test_noiseless_final_matches_ground_truth(self):
        cond = builtin_condition("B", (100, 1000, 1000))
        result = synth_capability(cond)
        assert result.snapshots[-1].scores == result.final_truth

    def test_scores_are_valid_one_decimal_values(self):
        cond = builtin_condition("C", (100, 500, 500))
        result = synth_capability(cond, CapabilityModelSpec(noise=1.5), seed=5)
        for snap in result.snapshots:
            assert set(snap.scores) == set(TASKS)
            for value in snap.scores.values():
                assert Decimal("0") <= value <= Decimal("100")
                assert value == value.quantize(Decimal("0.1"))

    def test_same_seed_same_snapshots(self):
        cond = builtin_condition("C", (100, 500, 500))
        model = CapabilityModelSpec(noise=0.8)
        a = synth_capability(cond, model, seed=21)
        b = synth_capability(cond, model, seed=21)
        assert a.snapshots == b.snapshots

    def test_noise_requires_a_seed(self):
        cond = builtin_condition("C", (100, 500, 500))
        with pytest.raises(ValueError, match="seed"):
            synth_capability(cond, CapabilityModelSpec(noise=0.8))

    def test_stage_permutation_changes_path_not_destination(self):
        b = builtin_condition("B", (100, 1000, 1000))
        d = builtin_condition("D", (100, 1000, 1000))
        run_b = synth_capability(b)
        run_d = synth_capability(d)
        assert run_b.final_truth == run_d.final_truth
        assert run_b.final_exposure == run_d.final_exposure
        mids_b = [s.scores for s in run_b.snapshots[:-1]]
        mids_d = [s.scores for s in run_d.snapshots[:-1]]
        assert mids_b != mids_d

    @given(st.integers(0, 10**6), st.integers(1, 10**7))
    @example(221, 442622)
    def test_final_exposure_is_the_exposure_report_bit_for_bit(self, alignment, budget):
        # curriculum and its reverse give both post-alignment stages the same budget
        b, d = (builtin_condition(c, (alignment, budget, budget)) for c in "BD")
        final_only = CapabilityModelSpec(eval_interval=10**12)
        finals = [synth_capability(c, final_only).final_exposure for c in (b, d)]
        report = compare_exposure([b], builtin_registry()).rows[0].per_group
        as_bits = [{group: value.hex() for group, value in exposure.items()} for exposure in (*finals, report)]
        assert as_bits[0] == as_bits[1] == as_bits[2]

    def test_noiseless_overall_never_decreases(self):
        cond = builtin_condition("B", (100, 800, 800))
        result = synth_capability(cond)
        per_task = {t: [s.scores[t] for s in result.snapshots] for t in TASKS}
        for task, series in per_task.items():
            assert all(a <= b for a, b in zip(series, series[1:])), task

    def test_alignment_stage_adds_no_capability(self):
        cond = builtin_condition("A", (5000, 100, 100))
        result = synth_capability(cond, CapabilityModelSpec(eval_interval=1000))
        # evals at 1000..5000 all sit inside stage 1: baseline plus offsets only
        first_five = result.snapshots[:5]
        baseline_scores = first_five[0].scores
        for snap in first_five:
            assert snap.scores == baseline_scores
        assert baseline_scores["General-Val"] == Decimal("40.0")
        assert baseline_scores["AI2D"] == Decimal("41.0")
        assert baseline_scores["ChartQA"] == Decimal("39.0")

    def test_task_offsets_preserved_exactly_without_noise(self):
        cond = builtin_condition("C", (10, 400, 400))
        result = synth_capability(cond)
        for snap in result.snapshots:
            assert snap.scores["AI2D"] - snap.scores["ChartQA"] == Decimal("2.0")
            assert snap.scores["TextVQA"] - snap.scores["DocVQA"] == Decimal("1.0")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"baseline": 90.0, "ceiling": 80.0}, "exceeds ceiling"),
            ({"eval_interval": 0}, "eval interval"),
            ({"scale": 0.0}, "scale"),
            ({"noise": -1.0}, "noise"),
            ({"ceiling": 99.5}, r"\[0, 99\]"),
            ({"weights": {"general": {"bogus": 1.0}, "reasoning": {}, "detail": {}}}, "exposure group"),
            ({"weights": {"general": {}}}, "missing capability group"),
        ],
    )
    def test_model_validation(self, kwargs, message):
        cond = builtin_condition("A", (10, 10, 10))
        with pytest.raises(ValidationError, match=message):
            synth_capability(cond, CapabilityModelSpec(**kwargs))

    def test_invalid_condition_rejected(self):
        from stagemix import InvalidScheduleError, ScheduleCondition, StagePlan

        bad = ScheduleCondition(
            id="bad",
            stages=(StagePlan(1, 10, {"ShareGPT4V": 1.0}), StagePlan(2, 10, {"ShareGPT4V": 1.0})),
        )
        with pytest.raises(InvalidScheduleError):
            synth_capability(bad)
