import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagemix import (
    LossTrace,
    RollingWindow,
    TraceError,
    detect_spikes,
    gap_report,
    global_std,
    local_fluctuation,
    spike_frequency,
    stability_summary,
    stage_transition_ratio,
    generate_manifest,
    load_loss_trace,
    read_manifest,
    save_loss_trace,
    window_stats,
    write_manifest,
)
from stagemix import DatasetSource, ScheduleCondition, StagePlan, dynamics, formats, threads
from stagemix.dynamics import _block_window_stats


def make_trace(losses, stages=None, steps=None):
    losses = np.asarray(losses, dtype=np.float64)
    n = len(losses)
    if stages is None:
        stages = np.ones(n, dtype=np.int64)
    if steps is None:
        steps = np.arange(n, dtype=np.int64)
    trace = LossTrace(
        steps=np.asarray(steps, dtype=np.int64),
        stages=np.asarray(stages, dtype=np.int64),
        losses=losses,
    )
    trace.validate()
    return trace


def oracle_spike_positions(losses, window):
    """Reference detector: a plain per-window loop over 1-D numpy reductions.

    Shares no code with the chunked kernel; the window includes the point it
    classifies, std divides by the window size, and the comparison is strict.
    """
    losses = np.asarray(losses, dtype=np.float64)
    hits = []
    for end in range(window - 1, len(losses)):
        w = losses[end - window + 1 : end + 1]
        mu = np.mean(w)
        sd = np.std(w)
        v = losses[end]
        if v > mu + 2 * sd or v < mu - 2 * sd:
            hits.append(end)
    return hits


class TestTraceValidation:
    def test_empty_trace(self):
        with pytest.raises(TraceError, match="empty"):
            make_trace([])

    def test_steps_strictly_increasing(self):
        with pytest.raises(TraceError, match="strictly increasing"):
            make_trace([1.0, 2.0, 3.0], steps=[0, 5, 5])

    def test_stages_non_decreasing(self):
        with pytest.raises(TraceError, match="non-decreasing"):
            make_trace([1.0, 2.0, 3.0], stages=[1, 2, 1])

    def test_stage_indices_positive(self):
        with pytest.raises(TraceError, match=">= 1"):
            make_trace([1.0, 2.0], stages=[0, 1])

    def test_losses_finite(self):
        with pytest.raises(TraceError, match="not finite"):
            make_trace([1.0, np.nan, 3.0])
        with pytest.raises(TraceError, match="not finite"):
            make_trace([1.0, np.inf, 3.0])

    def test_arrays_must_be_one_dimensional(self):
        trace = LossTrace(
            steps=np.arange(2), stages=np.ones(2, dtype=np.int64), losses=np.ones((2, 2))
        )
        with pytest.raises(TraceError, match="one-dimensional"):
            trace.validate()

    def test_mismatched_lengths(self):
        trace = LossTrace(
            steps=np.arange(3), stages=np.ones(2, dtype=np.int64), losses=np.zeros(3)
        )
        with pytest.raises(TraceError, match="mismatched"):
            trace.validate()


class TestWindowStats:
    def test_window_count(self):
        trace = make_trace(np.linspace(1, 2, 100))
        assert len(window_stats(trace, 30)) == 100 - 30 + 1

    def test_window_larger_than_trace(self):
        trace = make_trace([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="exceeds the trace length"):
            window_stats(trace, 4)

    @pytest.mark.parametrize("window", [0, -3, 2.5, True])
    def test_bad_window_values(self, window):
        trace = make_trace([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="positive integer"):
            window_stats(trace, window)

    def test_window_equal_to_trace_length(self):
        trace = make_trace([1.0, 2.0, 3.0])
        stats = window_stats(trace, 3)
        assert len(stats) == 1
        assert stats.means[0] == 2.0

    def test_flat_window_yields_exact_zero_std(self):
        # 0.1 is not exactly representable; a naive two-pass std is ~1e-17 here
        trace = make_trace([0.1] * 64)
        stats = window_stats(trace, 7)
        assert (stats.stds == 0.0).all()
        assert (stats.means == 0.1).all()

    def test_nonconstant_window_has_positive_std(self):
        trace = make_trace([1.0, 1.0, 1.0, 1.0000001])
        stats = window_stats(trace, 4)
        assert stats.stds[0] > 0.0

    def test_steps_label_window_ends(self):
        trace = make_trace([1.0, 2.0, 3.0, 4.0], steps=[10, 20, 30, 40])
        stats = window_stats(trace, 2)
        assert stats.steps.tolist() == [20, 30, 40]

    def test_chunking_is_invisible(self, monkeypatch):
        import stagemix.dynamics as dyn

        rng = np.random.default_rng(4)
        trace = make_trace(rng.normal(2.0, 0.3, 4000))
        whole = window_stats(trace, 51)
        monkeypatch.setattr(dyn, "_CHUNK_CELLS", 513)  # force many tiny chunks
        pieces = window_stats(trace, 51)
        assert np.array_equal(whole.means, pieces.means)
        assert np.array_equal(whole.stds, pieces.stds)

    @given(
        data=st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=2, max_size=120),
        window=st.integers(min_value=1, max_value=120),
    )
    def test_streaming_matches_batch_bitwise(self, data, window):
        if window > len(data):
            window = len(data)
        trace = make_trace(data)
        batch = window_stats(trace, window)
        roll = RollingWindow(window)
        means, stds = [], []
        for value in data:
            if roll.push(value):
                means.append(roll.mean)
                stds.append(roll.std)
        assert np.array_equal(np.array(means), batch.means)
        assert np.array_equal(np.array(stds), batch.stds)


def kernel_trace(window, seed=0):
    """A trace many blocks long that exercises the block kernel's edges.

    Blocks are `window` records long. For windows above 2 the trace ends in
    a partial block (at 2 it ends on a block boundary), a flat plateau
    straddles the boundary between blocks 2 and 3, and the first value of
    block 5 is a spike, the worst case for a block's shift.
    """
    rng = np.random.default_rng(seed)
    n = 9 * window + window // 2 + 1
    t = np.arange(n)
    losses = 3.0 * np.exp(-t / n) + rng.normal(0.0, 0.05, n)
    losses[2 * window - window // 2 - 1 : 3 * window + window // 2 + 2] = 0.1
    losses[5 * window] = 12.0
    return make_trace(losses)


KERNEL_WINDOWS = [1, 2, 3, 50, 1000]


def stream_stds(losses, window):
    """Each ready RollingWindow push's std, or TraceError where the push raised it."""
    roll, out = RollingWindow(window), []
    for value in losses:
        try:
            if roll.push(value):
                out.append(roll.std)
        except TraceError:
            out.append(TraceError)
    return out



class TestCpuCount:
    """Chunks of the window kernel and blocks of the readers run on a thread per usable CPU; what
    they give does not depend on how many there are."""

    def results(self, tmp_path):
        rng = np.random.default_rng(8)
        losses = np.repeat(rng.normal(2.0, 0.5, 900), rng.integers(1, 4, 900))  # runs of equal values too
        trace = make_trace(losses, stages=np.repeat([1, 2, 3], -(-len(losses) // 3))[: len(losses)])
        save_loss_trace(trace, tmp_path / "loss.jsonl")
        registry = (DatasetSource("alpha", "D0-alignment", 50), DatasetSource("beta", "D1-general", 40))
        condition = ScheduleCondition("cpus", (StagePlan(1, 300, {"alpha": 1.0}), StagePlan(2, 900, {"beta": 1.0})))
        write_manifest(generate_manifest(condition, registry, seed=5), tmp_path / "run.jsonl")
        loaded, manifest = load_loss_trace(tmp_path / "loss.jsonl"), read_manifest(tmp_path / "run.jsonl")
        out = [loaded.steps, loaded.stages, loaded.losses, manifest.steps, manifest.stages, manifest.dataset_ids]
        out.append(manifest.instances)
        for window in (1, 7, 50):
            stats = window_stats(trace, window)
            out += [stats.steps, stats.means, stats.stds]
        summary = stability_summary(trace, 7, spike_window=50)
        return [array.tobytes() for array in out] + [repr(summary)]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_results_are_bit_identical_for_any_cpu_count(self, monkeypatch, tmp_path, cpus):
        monkeypatch.setattr(dynamics, "_CHUNK_CELLS", 2000)  # a chunk of a few blocks: many chunks
        monkeypatch.setattr(formats, "_READ_BLOCK_BYTES", 1 << 10)
        monkeypatch.setattr(threads, "_usable_cpus", lambda: 1)
        want = self.results(tmp_path)
        monkeypatch.setattr(threads, "_usable_cpus", lambda: cpus)
        assert self.results(tmp_path) == want
        trace = load_loss_trace(tmp_path / "loss.jsonl")
        for window in (1, 7, 50):
            stats = window_stats(trace, window)
            roll = RollingWindow(window)
            pushed = [(roll.mean, roll.std) for value in trace.losses if roll.push(value)]
            assert np.array(pushed).tobytes() == np.stack([stats.means, stats.stds], axis=1).tobytes()


class TestBlockKernel:
    @pytest.mark.parametrize("window", KERNEL_WINDOWS)
    def test_batch_matches_two_pass_reference(self, window):
        from stagemix.dynamics import _window_mean_std

        trace = kernel_trace(window)
        x = trace.losses
        stats = window_stats(trace, window)
        windows = np.lib.stride_tricks.sliding_window_view
        ref_mean, ref_std = _window_mean_std(windows(x, window))
        # float64 bounds for sums of `window` terms. The kernel sums values
        # shifted by their block's first value c; the between-part term of
        # the merge and the reference's own error scale with (x - mean)^2.
        eps = np.finfo(np.float64).eps
        shift = x[(np.arange(len(x)) // window) * window]
        spread = windows((x - shift) ** 2, window).max(axis=1)
        spread += ((windows(x, window) - ref_mean[:, None]) ** 2).max(axis=1)
        assert np.all(np.abs(stats.means - ref_mean) <= 4 * window * eps * np.abs(x).max())
        assert np.all(np.abs(stats.stds**2 - ref_std**2) <= 16 * window * eps * spread)
        flat = ref_std == 0.0
        assert flat.any()
        assert np.array_equal(stats.stds == 0.0, flat)
        assert np.array_equal(stats.means[flat], ref_mean[flat])

    @pytest.mark.parametrize("window", KERNEL_WINDOWS)
    def test_streaming_matches_batch_bit_for_bit(self, window):
        trace = kernel_trace(window, seed=1)
        batch = window_stats(trace, window)
        roll = RollingWindow(window)
        means, stds = [], []
        for value in trace.losses:
            if roll.push(value):
                means.append(roll.mean)
                stds.append(roll.std)
        assert np.array(means).view(np.int64).tolist() == batch.means.view(np.int64).tolist()
        assert np.array(stds).view(np.int64).tolist() == batch.stds.view(np.int64).tolist()

    @pytest.mark.parametrize("window", KERNEL_WINDOWS)
    def test_spike_decisions_match_oracle(self, window):
        trace = kernel_trace(window, seed=2)
        report = detect_spikes(trace, window)
        assert list(report.spike_steps) == oracle_spike_positions(trace.losses, window)
        if window >= 50:
            assert 5 * window in report.spike_steps

    def test_summary_computes_shared_windows_once(self, monkeypatch):
        import stagemix.dynamics as dyn

        calls = []
        original = dyn.window_stats

        def counted(trace, window):
            calls.append(window)
            return original(trace, window)

        monkeypatch.setattr(dyn, "window_stats", counted)
        trace = kernel_trace(20)
        summary = dyn.stability_summary(trace, window=20)
        assert calls == [20]
        assert summary.spike_frequency == spike_frequency(trace, 20)
        calls.clear()
        dyn.stability_summary(trace, window=20, spike_window=30)
        assert calls == [20, 30]

    def test_overflowed_window_sums_read_nan_not_zero(self):
        # block 0's shifted squares overflow, so every window touching them has a NaN variance;
        # [0] * 7 + [1.0] has std 0.33 and must not read as 0. The public functions refuse them.
        losses = [-8.26e153] + [0.0] * 7 + [1.0] * 4
        trace = make_trace(losses)
        with np.errstate(over="ignore", invalid="ignore"):
            _, stds = _block_window_stats(trace.losses, 8, 1)
        assert np.isnan(stds[:5]).all()
        assert stream_stds(losses, 8) == [TraceError] * 5
        with pytest.raises(TraceError, match="too large to summarize"):
            window_stats(trace, 8)
        with pytest.raises(TraceError, match="too large to summarize"):
            stability_summary(trace, window=8)

    def test_flat_windows_stay_zero_next_to_overflowed_ones(self):
        losses = [-8.26e153] + [0.0] * 15
        with np.errstate(over="ignore", invalid="ignore"):
            _, stds = _block_window_stats(np.array(losses), 8, 2)
        stream = stream_stds(losses, 8)
        assert np.isnan(stds[0]) and stream[0] is TraceError
        assert stds[1:9].tolist() == stream[1:] == [0.0] * 8


class TestSpikeDetection:
    def test_threshold_boundary_is_strict(self):
        # mean 2.8, std 3.6: the newest point sits exactly on mean + 2 std
        trace = make_trace([1.0, 1.0, 1.0, 1.0, 10.0])
        w = np.array([1.0, 1.0, 1.0, 1.0, 10.0])
        assert w.mean() + 2 * w.std() == 10.0  # the boundary really is exact in float64
        report = detect_spikes(trace, 5)
        assert report.spike_steps == ()
        assert report.n_windows == 1
        assert report.frequency == 0.0

    def test_lone_outlier_needs_window_above_five(self):
        for u, expect in [(2, 0), (3, 0), (4, 0), (5, 0), (6, 1), (7, 1), (20, 1)]:
            losses = [1.0] * (u - 1) + [10.0]
            hits = detect_spikes(make_trace(losses), u).spike_steps
            assert len(hits) == expect, f"window {u}"

    def test_downward_outlier_mirrors_upward(self):
        losses = [10.0] * 5 + [1.0]
        assert detect_spikes(make_trace(losses), 6).spike_steps == (5,)
        losses = [10.0] * 4 + [1.0]
        assert detect_spikes(make_trace(losses), 5).spike_steps == ()

    def test_linear_ramps_never_flag(self):
        for slope in (-3.0, -0.01, 0.02, 5.0):
            for u in (2, 5, 17, 50):
                losses = 100.0 + slope * np.arange(200)
                if losses.min() <= 0:
                    losses -= losses.min() - 1.0
                report = detect_spikes(make_trace(losses), u)
                assert report.spike_steps == (), f"slope {slope}, window {u}"

    def test_constant_trace_never_flags(self):
        report = detect_spikes(make_trace([2.0] * 300), 50)
        assert report.frequency == 0.0

    def test_window_count_and_frequency_are_exact(self):
        rng = np.random.default_rng(7)
        trace = make_trace(rng.normal(5.0, 0.1, 400))
        report = detect_spikes(trace, 25)
        assert report.n_windows == 400 - 25 + 1
        assert report.frequency == len(report.spike_steps) / report.n_windows
        assert spike_frequency(trace, 25) == report.frequency

    def test_only_newest_point_is_classified(self):
        # an early outlier inflates sigma for later windows but is never itself
        # flagged once it stops being the newest point
        losses = [1.0] * 10 + [50.0] + [1.0] * 40
        report = detect_spikes(make_trace(losses), 8)
        assert report.spike_steps == (10,)

    def test_matches_oracle_on_random_traces(self):
        rng = np.random.default_rng(12345)
        for _ in range(40):
            n = int(rng.integers(10, 400))
            u = int(rng.integers(2, min(n, 100) + 1))
            losses = np.abs(rng.normal(3.0, 1.0, n)) + 1e-3
            report = detect_spikes(make_trace(losses), u)
            expected = [n_ + u - 1 for n_ in range(len(report.indicators)) if report.indicators[n_]]
            assert list(report.spike_steps) == oracle_spike_positions(losses, u)
            assert expected == list(report.spike_steps)

    @given(
        shift=st.floats(min_value=-1000.0, max_value=1000.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40)
    def test_decisions_shift_invariant(self, shift, seed):
        rng = np.random.default_rng(seed)
        losses = rng.normal(10.0, 0.5, 120)
        base = detect_spikes(make_trace(losses), 20)
        moved_losses = losses + shift
        if not np.isfinite(moved_losses).all():
            return
        moved = detect_spikes(make_trace(moved_losses), 20)
        assert base.spike_steps == moved.spike_steps
        assert np.allclose(base.stats.stds, moved.stats.stds, atol=1e-9)

    @given(
        power=st.integers(min_value=-8, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40)
    def test_decisions_scale_invariant_for_exact_scales(self, power, seed):
        # powers of two scale every float exactly, so decisions and stds follow
        rng = np.random.default_rng(seed)
        losses = rng.normal(10.0, 0.5, 120)
        k = 2.0**power
        base = detect_spikes(make_trace(losses), 20)
        scaled = detect_spikes(make_trace(losses * k), 20)
        assert base.spike_steps == scaled.spike_steps
        assert np.array_equal(base.stats.stds * k, scaled.stats.stds)


class TestTransitions:
    def test_simple_ratio(self):
        trace = make_trace([2.0] * 5 + [2.5] * 5, stages=[1] * 5 + [2] * 5)
        report = stage_transition_ratio(trace)
        assert len(report.transitions) == 1
        t = report.transitions[0]
        assert t.ratio == 0.25
        assert (t.from_stage, t.to_stage) == (1, 2)
        assert (t.step_before, t.step_after) == (4, 5)

    def test_constant_loss_gives_zero_ratio(self):
        trace = make_trace([2.0] * 10, stages=[1] * 5 + [2] * 5)
        assert stage_transition_ratio(trace).transitions[0].ratio == 0.0

    def test_multiple_boundaries(self):
        trace = make_trace(
            [4.0, 4.0, 2.0, 2.0, 3.0, 3.0],
            stages=[1, 1, 2, 2, 3, 3],
        )
        report = stage_transition_ratio(trace)
        ratios = [t.ratio for t in report.transitions]
        assert ratios == [(2.0 - 4.0) / 4.0, (3.0 - 2.0) / 2.0]
        assert report.max_abs_ratio() == 0.5

    def test_nearest_logged_records_define_the_boundary(self):
        # sparse logging: the measurement uses records 40 and 60, not 49 and 50
        trace = make_trace(
            [4.0, 3.0, 2.0, 1.0],
            stages=[1, 1, 2, 2],
            steps=[20, 40, 60, 80],
        )
        t = stage_transition_ratio(trace).transitions[0]
        assert (t.step_before, t.step_after) == (40, 60)
        assert t.ratio == (2.0 - 3.0) / 3.0

    def test_single_stage_has_no_transition(self):
        with pytest.raises(ValueError, match="single stage"):
            stage_transition_ratio(make_trace([1.0, 2.0, 3.0]))

    def test_zero_loss_before_boundary(self):
        trace = make_trace([0.0, 0.0, 1.0], stages=[1, 1, 2])
        with pytest.raises(ValueError, match="undefined"):
            stage_transition_ratio(trace)

    def test_zero_loss_ratio_is_undefined_in_the_summary(self):
        trace = make_trace([1.0, 0.0, 1.0, 2.0, 3.0, 6.0], stages=[1, 1, 2, 2, 3, 3])
        summary = stability_summary(trace, window=2)
        assert [t.ratio for t in summary.transitions] == [None, 0.5]
        assert summary.transition_stability == 0.5
        assert summary.as_dict()["transitions"][0]["ratio"] is None

    def test_every_ratio_undefined(self):
        trace = make_trace([1.0, 0.0, 1.0, 0.0, 3.0], stages=[1, 1, 2, 2, 3])
        summary = stability_summary(trace, window=2)
        assert [t.ratio for t in summary.transitions] == [None, None]
        assert summary.transition_stability is None
        assert summary.as_dict()["transition_stability"] is None

    def test_ratio_is_signed(self):
        trace = make_trace([4.0, 4.0, 1.0, 1.0], stages=[1, 1, 2, 2])
        assert stage_transition_ratio(trace).transitions[0].ratio == -0.75


class TestGapReport:
    def test_regular(self):
        report = gap_report(make_trace([1.0] * 5, steps=[0, 10, 20, 30, 40]))
        assert report.regular
        assert report.modal_spacing == 10
        assert report.as_dict()["irregular_count"] == 0

    def test_irregular(self):
        report = gap_report(make_trace([1.0] * 5, steps=[0, 10, 20, 50, 60]))
        assert not report.regular
        assert report.modal_spacing == 10
        assert report.max_spacing == 30
        assert report.irregular_count == 1

    def test_single_record(self):
        report = gap_report(make_trace([1.0], steps=[5]))
        assert report.regular and report.modal_spacing == 0


class TestStabilitySummary:
    def test_composition(self):
        rng = np.random.default_rng(9)
        losses = np.abs(rng.normal(3.0, 0.2, 300)) + 0.5
        stages = np.array([1] * 150 + [2] * 150)
        trace = make_trace(losses, stages=stages)
        summary = stability_summary(trace, window=40, spike_window=30)
        assert summary.loss_std == float(window_stats(trace, 40).stds.mean())
        assert summary.loss_std == local_fluctuation(trace, 40)
        assert summary.spike_frequency == spike_frequency(trace, 30)
        assert summary.global_loss_std == global_std(trace)
        assert summary.transition_stability == stage_transition_ratio(trace).max_abs_ratio()

    def test_default_windows_are_fifty(self):
        trace = make_trace(np.linspace(3, 2, 60))
        summary = stability_summary(trace)
        assert summary.window == 50
        assert summary.spike_window == 50

    def test_single_stage_reports_none(self):
        trace = make_trace(np.linspace(3, 2, 60))
        summary = stability_summary(trace)
        assert summary.transition_stability is None
        assert summary.transitions == ()
        assert summary.as_dict()["transition_stability"] is None

    def test_constant_trace_summary(self):
        trace = make_trace([2.0] * 100, stages=[1] * 50 + [2] * 50)
        summary = stability_summary(trace)
        assert summary.loss_std == 0.0
        assert summary.global_loss_std == 0.0
        assert summary.spike_frequency == 0.0
        assert summary.transition_stability == 0.0

    def test_spike_window_validated_independently(self):
        trace = make_trace([1.0] * 40)
        with pytest.raises(ValueError, match="spike window"):
            stability_summary(trace, window=10, spike_window=41)


OVERFLOWING = [-8.26e153] + [0.0] * 7 + [1.0] * 4


class TestOverflowRule:
    """The window kernel refuses a statistic that overflows float64, with no numpy warning."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: window_stats(t, 8),
            lambda t: detect_spikes(t, 8),
            lambda t: spike_frequency(t, 8),
            lambda t: local_fluctuation(t, 8),
            lambda t: stability_summary(t, 8),
            lambda t: list(map(RollingWindow(8).push, t.losses)),
        ],
        ids=["window_stats", "detect_spikes", "spike_frequency", "local_fluctuation", "stability_summary", "push"],
    )
    def test_overflowed_windows_raise_without_warnings(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TraceError, match="^losses are too large to summarize"):
                call(make_trace(OVERFLOWING))

    @pytest.mark.parametrize("losses", [[1.7e308, -1.7e308], [1.7e308, 1.6e308, 1.0]])
    def test_global_std_raises_without_warnings(self, losses):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TraceError, match="^losses are too large to summarize"):
                global_std(make_trace(losses))

    @settings(max_examples=150)
    @given(
        st.integers(1, 9),
        st.lists(st.sampled_from([0.0, 1.0, -3.5, 1e153, -8.26e153, 3e154, 1.7e308, -1e308]), min_size=1, max_size=40),
    )
    def test_streaming_raises_at_the_window_batch_refuses(self, window, losses):
        # the first prefix that batch refuses ends at the first window that overflows
        window = min(window, len(losses))
        first = None
        for end in range(window, len(losses) + 1):
            try:
                window_stats(make_trace(losses[:end]), window)
            except TraceError:
                first = end
                break
        stream = stream_stds(losses, window)
        raised = [window + i for i, std in enumerate(stream) if std is TraceError]
        assert (raised[0] if raised else None) == first

    def test_a_transition_ratio_that_overflows_is_named(self):
        trace = make_trace([5e-324, 1.0], stages=[1, 2])
        with pytest.raises(TraceError, match="^the stage 1->2 transition ratio overflows float64$"):
            stability_summary(trace, 1)

    def test_the_library_ratio_refuses_overflow_by_the_same_rule(self):
        trace = make_trace([5e-324, 1.0], stages=[1, 2])
        with pytest.raises(TraceError, match="^the stage 1->2 transition ratio overflows float64$"):
            stage_transition_ratio(trace)
