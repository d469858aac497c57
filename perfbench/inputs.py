"""Seeded input generator for the benchmark workloads.

Every input comes from a `numpy.random.Generator` seeded with the workload
seed, so one seed always gives byte-identical files. The loss logs are
written by this module, not by stagemix, so the analyze path reads a file it
did not produce. Each generator returns the ground truth the checks need
(planted spike steps, stage layout) next to the path it wrote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# A planted spike sits this many noise units above the curve. At w=50 the
# spike itself adds 10**2/50 to its window's variance in noise units, so the
# std is about 1.7 units and the spike clears mean + 2 std unless the noise
# there is below about -6 units.
SPIKE_SIGMA = 10.0
NOISE = 0.01


@dataclass(frozen=True)
class LossLog:
    """A generated loss log and the facts the checks compare against."""

    path: Path
    spike_steps: tuple[int, ...]
    plateau: tuple[int, int]  # record positions [start, stop)
    steps: np.ndarray
    stages: np.ndarray
    losses: np.ndarray


def _spike_positions(rng, records: int, count: int, window: int, banned) -> np.ndarray:
    """`count` record positions at least `window` apart, none in a banned span.

    Candidates lie on a grid of pitch 2 * window with a random offset inside
    each cell, so every spike has its own window.
    """
    pitch = 2 * window
    cells = np.arange(1, records // pitch - 1)
    ok = np.ones(len(cells), dtype=bool)
    for start, stop in banned:
        ok &= (cells * pitch + pitch <= start - window) | (cells * pitch >= stop + window)
    chosen = np.sort(rng.choice(cells[ok], size=count, replace=False))
    return chosen * pitch + rng.integers(0, window, size=count)


def _write_loss_jsonl(path: Path, steps, stages, losses) -> None:
    steps, stages, losses = steps.tolist(), stages.tolist(), losses.tolist()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "".join(
                '{"step":%d,"stage":%d,"loss":%r}\n' % (steps[i], stages[i], losses[i])
                for i in range(len(steps))
            )
        )


def loss_log(
    path: Path,
    seed: int,
    records: int,
    stages: int,
    window: int,
    spikes: int,
    plateau: int,
) -> LossLog:
    """A staged decay curve with noise, logging gaps, planted spikes and a plateau.

    Stage k starts at a loss above where stage k-1 ended, as a new data mix
    does. About 2% of logging intervals are 2 to 40 times the modal spacing.
    The `plateau` repeats one loss value over that many consecutive records
    (more than `window`), which makes windows whose std is exactly zero.
    """
    rng = np.random.default_rng([seed, records, window])
    spacing = 10
    deltas = np.full(records, spacing, dtype=np.int64)
    deltas[0] = 0
    irregular = rng.random(records) < 0.02
    irregular[0] = False
    deltas[irregular] = spacing * rng.integers(2, 41, size=int(irregular.sum()))
    steps = np.cumsum(deltas)
    jitter = records // (4 * stages)
    cuts = np.arange(1, stages) * (records // stages) + rng.integers(-jitter, jitter, size=stages - 1)
    stage_of = 1 + np.searchsorted(cuts, np.arange(records), side="right")
    starts = np.concatenate(([0], cuts))
    offsets = np.arange(records) - starts[stage_of - 1]
    amplitude = 3.0 - 0.4 * (stage_of - 1)
    curve = amplitude * np.exp(-offsets / (0.6 * records)) + 0.5
    losses = curve + rng.normal(0.0, NOISE, size=records)
    lo = int(starts[-1]) + window
    start = int(rng.integers(lo, lo + (records - lo) // 4))
    span = (start, start + plateau)
    losses[start : start + plateau] = losses[start]
    banned = [(int(c) - window, int(c) + window) for c in cuts] + [span]
    where = _spike_positions(rng, records, spikes, window, banned)
    losses[where] += SPIKE_SIGMA * NOISE
    _write_loss_jsonl(path, steps, stage_of, losses)
    return LossLog(
        path=path,
        spike_steps=tuple(int(s) for s in steps[where]),
        plateau=span,
        steps=steps,
        stages=stage_of,
        losses=losses,
    )


def simulate_spec(path: Path, seed: int, steps: int) -> dict:
    """A two-stage `simulate loss` spec of `steps` steps with planted injections."""
    rng = np.random.default_rng([seed, steps, 7])
    half = steps // 2
    injections = sorted(int(s) for s in rng.choice(np.arange(1000, steps - 1000), size=100, replace=False))
    spec = {
        "stages": [
            {"index": 1, "steps": half, "amplitude": 3.0, "tau": steps / 3, "noise": NOISE},
            {"index": 2, "steps": steps - half, "amplitude": 2.6, "tau": steps / 3, "noise": NOISE},
        ],
        "injections": [{"step": s, "multiplier": 12.0} for s in injections],
        "seed": seed,
        "log_interval": 1,
    }
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return spec


def resume_state(path: Path, manifest, cond, registry, step: int) -> dict:
    """Sampler state at `step` whose draw counts come from the batch manifest's prefix."""
    from stagemix.sampling import GENERATOR_ID, STATE_FORMAT
    from stagemix.schedule import condition_as_dict, registry_as_list, registry_digest

    counts = np.bincount(manifest.dataset_ids[:step], minlength=len(manifest.dataset_names))
    state = {
        "format": STATE_FORMAT,
        "generator": GENERATOR_ID,
        "seed": manifest.seed,
        "next_step": step,
        "draws": {name: int(counts[i]) for i, name in enumerate(manifest.dataset_names)},
        "condition": condition_as_dict(cond),
        "registry": registry_as_list(registry),
        "registry_digest": registry_digest(registry),
    }
    path.write_text(json.dumps(state, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return state
