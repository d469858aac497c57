"""Tests for the benchmark's own code, at small input sizes.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "manifest": workloads.ManifestConfig(steps=(50, 2000, 2000), resume_step=1500, resume_events=1000),
    "analyze": workloads.AnalyzeConfig(
        records=20_000, stages=3, window=50, spikes=20, plateau=500, simulate_steps=5000, stream=2000,
    ),
}


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_are_deterministic_per_seed(tmp_path, name):
    made = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / label
        workdir.mkdir()
        workloads.prepare(SMALL[name], workdir, seed)
        made[label] = _files(workdir)
    assert made["a"] == made["b"]
    assert made["a"] != made["c"]


def test_loss_log_plants_what_it_reports(tmp_path):
    log = inputs.loss_log(tmp_path / "l.jsonl", 1, 20_000, 3, 200, 10, 500)
    lines = (tmp_path / "l.jsonl").read_text().splitlines()
    assert len(lines) == 20_000
    assert [json.loads(lines[i])["step"] for i in (0, -1)] == [int(log.steps[0]), int(log.steps[-1])]
    assert len(set(log.spike_steps)) == 10
    start, stop = log.plateau
    assert np.all(log.losses[start:stop] == log.losses[start])
    assert list(np.unique(log.stages)) == [1, 2, 3]
    assert len(np.unique(np.diff(log.steps))) > 1


def _span(id, start, end, parent=None, name="x"):
    return spans.Span(id, name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps span 1: [1, 5] is covered once
        _span(3, 9.0, 12.0, parent=0),  # runs past its parent: only [9, 10] counts
        _span(4, 1.5, 2.5, parent=1),  # a grandchild is not the parent's child
    ]
    own = spans.self_times(recorded)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[4] == pytest.approx(1.0)


def test_layer_metrics_count_outer_format_calls_only():
    outer = spans.Span(0, "formats.load_loss_spec", 0.0, 1.0, None, 0, {"bytes_read": 10})
    inner = spans.Span(1, "formats.read_manifest", 0.2, 0.5, 0, 0, {"bytes_read": 99})
    got = spans.layer_metrics([outer, inner])
    assert got["formats.bytes_read"] == 10
    assert got["formats.read_manifest_s"] == pytest.approx(0.3)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(10)), "lower") is None
    pct, value = run.tail(list(range(20)), "lower")
    assert (pct, value) == (50.0, 9)
    assert run.tail(list(range(20)), "higher") == (50.0, 10)


class _FakeRunner:
    def iteration(self):
        return {"op": 1.0}, []


def test_traced_iterations_pair_plain_and_traced_in_alternating_order(monkeypatch):
    import worker

    clock = iter(range(100))
    monkeypatch.setattr(worker, "perf_counter", lambda: next(clock))  # one tick per pair
    got = worker.run_iterations(_FakeRunner(), 3.5, spans.Tracer())
    assert [it["pass"] for it in got] == ["warmup", "plain", "traced", "traced", "plain", "plain", "traced"]
    assert [it["iteration"] for it in got] == list(range(7))


def test_a_run_measures_at_least_one_round_after_the_warm_up(monkeypatch):
    import worker

    clock = iter(range(100))
    monkeypatch.setattr(worker, "perf_counter", lambda: next(clock))
    got = worker.run_iterations(_FakeRunner(), 0.5)
    assert [it["pass"] for it in got] == ["warmup", "plain"]


def test_tracing_overhead_is_the_median_of_paired_differences():
    def it(i, label, t, errors=()):
        return {"iteration": i, "pass": label, "times": {"op": t}, "errors": list(errors)}

    result = {
        "layers": [{}],
        "peaks": {},
        "iterations": [
            it(0, "warmup", 3.0),
            it(1, "plain", 5.0), it(2, "traced", 5.5),
            it(3, "traced", 7.2), it(4, "plain", 7.0),
            it(5, "plain", 6.0), it(6, "traced", 6.1),
            it(7, "traced", 9.0, errors=["x"]), it(8, "plain", 1.0),  # failed: no pair
            it(9, "memory", 20.0),
        ],
    }
    values, samples = run.per_layer(result, [(0.1, 0.2)])
    assert sorted(samples["trace.overhead_s"][2]) == pytest.approx([0.1, 0.2, 0.5])
    assert values["trace.overhead_s"] == pytest.approx(0.2)


def _traced_counts(config, tmp_path, seed):
    workdir = tmp_path / f"run-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    plan = workloads.prepare(config, workdir, seed)
    assert plan["input_errors"] == []
    runner = workloads.runner(config, plan, workdir)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        for i in range(2):
            tracer.iteration = i
            _, errors = runner.iteration()
            assert errors == []
    finally:
        restore()
    rows = [spans.layer_metrics([s for s in tracer.spans if s.iteration == i]) for i in range(2)]
    counted = ("sampling.philox_words", "dynamics.window_cells", "formats.bytes_written", "formats.bytes_read")
    assert all(rows[0][k] == rows[1][k] for k in counted)
    return {k: rows[0][k] for k in counted + ("dynamics.window_passes", "sampling.useful_word_ratio")}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly_for_a_fixed_seed(tmp_path, name):
    config = SMALL[name]
    first = _traced_counts(config, tmp_path, 3)
    assert _traced_counts(config, tmp_path, 3) == first
    if name == "manifest":
        # the 50 alignment draws alone permute the whole 558k pool
        assert first["sampling.philox_words"] > 558_000
        assert first["sampling.useful_word_ratio"] == pytest.approx(4050 / first["sampling.philox_words"])
        assert first["formats.bytes_written"] == first["formats.bytes_read"] > 0
    else:
        assert first["dynamics.window_passes"] == 2
        assert first["dynamics.window_cells"] == 2 * (config.records - config.window + 1) * config.window


def test_instrument_restores_the_originals():
    from stagemix import cli, dynamics, sampling

    before = (cli.generate_manifest, sampling.generate_manifest, dynamics.RollingWindow.push,
              sampling.ManifestSampler.__dict__["from_state"])
    spans.instrument(spans.Tracer())()
    after = (cli.generate_manifest, sampling.generate_manifest, dynamics.RollingWindow.push,
             sampling.ManifestSampler.__dict__["from_state"])
    assert before == after


def test_oracle_flags_a_clear_spike_and_marks_flat_windows_as_knife_edges():
    losses = np.array([1.0] * 60 + [5.0] + [1.0] * 10)
    spike, knife = workloads.oracle_decisions(losses, 50)
    assert spike[60 - 49] and not knife[60 - 49]
    assert knife[0]  # all-equal window: margin exactly 0
