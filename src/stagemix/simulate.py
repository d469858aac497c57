"""Synthetic training runs with known ground truth.

The stability analytics and score aggregation in this package are exact,
deterministic computations, but real training logs come with no answer key.
These simulators produce logs that do: loss traces whose spikes sit at known
steps and whose transition ratios follow from a closed-form noiseless curve,
and evaluation logs whose final scores are computable in closed form from a
condition's exposure. The answer key goes through the analytics' own rules,
so it is what those rules report on a noiseless run.

Loss model: within stage s starting at global step t0, the noiseless loss is
amplitude * exp(-(t - t0) / tau). Gaussian noise is per-stage; an injected
spike adds multiplier * noise-scale at one logged step (multiplier * 1.0 when
the stage is noiseless, so injections survive noise = 0). Noisy losses clamp
at 0. The true transitions are the noiseless log's, by the rule `analyze`
applies: a boundary whose noiseless loss before it is 0 has ratio None, and
a spec whose noiseless ratio overflows float64 is refused with TraceError.

Capability model: each capability group grows toward a ceiling with
exponential saturation in accumulated post-alignment exposure,
g = baseline + (ceiling - baseline) * (1 - exp(-x / scale)), where x is the
weighted sum of per-group exposures accrued so far. Exposure is summed as the
exposure report sums it (per dataset over stages, then per group over
datasets in name order), so the final exposure equals `compare_exposure`'s
per-group row bit for bit. Each task reports its composite's capability (the
partition in metrics.COMPOSITE_TASKS) quantized to one decimal plus a fixed
task offset; this keeps noiseless runs exactly predictable. Finals depend
only on total exposure, so schedules that swap two post-alignment stages
(curriculum vs reverse curriculum) end at identical scores while their
trajectories differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from . import fields
from .dynamics import LossTrace, Transition, _transition_report
from .errors import UsageError, ValidationError
from .metrics import COMPOSITE_TASKS, EvalSnapshot
from .rounding import round_half_away
from .schedule import GROUPS, ScheduleCondition, _exposure_row, _require_valid, builtin_registry

TASK_OFFSETS = {
    "General-Val": Decimal("0.0"),
    "AI2D": Decimal("1.0"),
    "ChartQA": Decimal("-1.0"),
    "TextVQA": Decimal("0.5"),
    "DocVQA": Decimal("-0.5"),
}

DEFAULT_WEIGHTS = {
    "general": {"D1-general": 1.0},
    "reasoning": {"D1-general": 0.3, "D2-reasoning": 1.0},
    "detail": {"D1-general": 0.3, "D3-ocr": 1.0},
}


@dataclass(frozen=True)
class SimStage:
    """One stage of the loss model: budget plus decay-curve parameters."""

    index: int
    steps: int
    amplitude: float
    tau: float
    noise: float = 0.0


@dataclass(frozen=True)
class Injection:
    """A spike planted at one global step, sized in stage noise-scale units."""

    step: int
    multiplier: float


@dataclass(frozen=True)
class LossTraceSpec:
    stages: tuple[SimStage, ...]
    log_interval: int = 1
    injections: tuple[Injection, ...] = ()
    seed: int | None = None

    def total_steps(self) -> int:
        return sum(stage.steps for stage in self.stages)


def _check_loss_spec(spec: LossTraceSpec) -> None:
    if not spec.stages:
        raise ValidationError("loss simulation needs at least one stage")
    for pos, stage in enumerate(spec.stages, start=1):
        if stage.index != pos:
            raise ValidationError(
                f"simulation stages must be numbered consecutively from 1; position {pos} has index {stage.index}"
            )
        if stage.steps < 1:
            raise ValidationError(f"stage {stage.index}: steps must be >= 1, got {stage.steps}")
        for key in ("amplitude", "tau", "noise"):
            fields.check(getattr(stage, key), f"stage {stage.index}: {key}", float, ValidationError, non_negative=True)
        if stage.amplitude == 0 or stage.tau == 0:
            raise ValidationError(f"stage {stage.index}: amplitude and tau must be positive")
    if spec.log_interval < 1:
        raise ValidationError(f"log interval must be >= 1, got {spec.log_interval}")
    total = spec.total_steps()
    for inj in spec.injections:
        if not (0 <= inj.step < total):
            raise ValidationError(f"injection step {inj.step} is outside the run's {total} steps")
        if inj.step % spec.log_interval != 0 and inj.step != total - 1:
            raise ValidationError(
                f"injection at step {inj.step} would never be logged at interval {spec.log_interval}"
            )
        if not np.isfinite(inj.multiplier):
            raise ValidationError(f"injection at step {inj.step} has a non-finite multiplier")


@dataclass(frozen=True)
class SynthLoss:
    """A simulated loss log plus the ground truth a detector should recover."""

    trace: LossTrace
    noiseless: LossTrace
    injected_steps: tuple[int, ...]
    true_transitions: tuple[Transition, ...]


def _seed(seed) -> int | None:
    return None if seed is None else fields.check(seed, "seed", low=0, high=None)


def synth_loss(spec: LossTraceSpec, seed: int | None = None) -> SynthLoss:
    """Simulate one training run; `seed` overrides the seed carried by the spec."""
    _check_loss_spec(spec)
    seed = _seed(spec.seed if seed is None else seed)
    if seed is None and any(stage.noise > 0 for stage in spec.stages):
        raise UsageError("simulating with noise needs an explicit seed")
    total = spec.total_steps()
    fields.check_budget(total, 40, "simulated loss steps")  # the noisy and noiseless logs at one record a step
    noiseless = np.empty(total, dtype=np.float64)
    stage_of = np.empty(total, dtype=np.int64)
    noise_scale = np.empty(total, dtype=np.float64)
    start = 0
    for stage in spec.stages:
        span = slice(start, start + stage.steps)
        offsets = np.arange(stage.steps, dtype=np.float64)
        with np.errstate(over="ignore"):  # with a tiny tau, -offsets / tau is -inf, and its exp exactly 0
            noiseless[span] = stage.amplitude * np.exp(-offsets / stage.tau)
        stage_of[span] = stage.index
        noise_scale[span] = stage.noise
        start += stage.steps
    rng = np.random.default_rng(seed)
    noisy = noiseless + np.where(noise_scale > 0, rng.normal(0.0, 1.0, total) * noise_scale, 0.0)
    for inj in spec.injections:
        unit = noise_scale[inj.step] if noise_scale[inj.step] > 0 else 1.0
        noisy[inj.step] += inj.multiplier * unit
    noisy = np.maximum(noisy, 0.0)
    logged = np.arange(0, total, spec.log_interval, dtype=np.int64)
    if logged[-1] != total - 1:
        logged = np.append(logged, total - 1)
    trace = LossTrace(steps=logged, stages=stage_of[logged], losses=noisy[logged])
    trace.validate()
    clean = LossTrace(steps=logged, stages=stage_of[logged], losses=noiseless[logged])
    return SynthLoss(
        trace=trace,
        noiseless=clean,
        injected_steps=tuple(sorted(inj.step for inj in spec.injections)),
        true_transitions=_transition_report(clean).transitions,
    )


@dataclass(frozen=True)
class CapabilityModelSpec:
    """Saturating-growth score model: shared shape, per-group exposure weights."""

    baseline: float = 40.0
    ceiling: float = 80.0
    scale: float = 1500.0
    noise: float = 0.0
    eval_interval: int = 100
    weights: dict[str, dict[str, float]] = field(
        default_factory=lambda: {group: dict(alphas) for group, alphas in DEFAULT_WEIGHTS.items()}
    )


def _check_capability_spec(model: CapabilityModelSpec) -> None:
    for key in ("baseline", "ceiling", "scale", "noise"):
        fields.check(getattr(model, key), key, float, ValidationError, non_negative=True)
    fields.check(model.eval_interval, "eval interval", int, ValidationError, low=1)
    if model.baseline > model.ceiling:
        raise ValidationError(f"baseline {model.baseline} exceeds ceiling {model.ceiling}")
    if model.ceiling > 99:
        raise ValidationError("baseline and ceiling must lie in [0, 99] so offset scores stay valid")
    if model.scale == 0:
        raise ValidationError("scale must be positive, got 0")
    for group, alphas in model.weights.items():
        if group not in COMPOSITE_TASKS:
            raise ValidationError(f"unknown capability group {group!r} in weights")
        for exposure_group, alpha in alphas.items():
            if exposure_group not in GROUPS:
                raise ValidationError(f"unknown exposure group {exposure_group!r} in weights")
            fields.check(alpha, f"weight of {exposure_group!r} for {group!r}", float, ValidationError, non_negative=True)
    for group in COMPOSITE_TASKS:
        if group not in model.weights:
            raise ValidationError(f"weights are missing capability group {group!r}")


def _group_capability(model: CapabilityModelSpec, exposure: dict[str, float]) -> dict[str, float]:
    out = {}
    for group, alphas in model.weights.items():
        x = sum(alpha * exposure[eg] for eg, alpha in alphas.items())
        out[group] = model.baseline + (model.ceiling - model.baseline) * (1.0 - np.exp(-x / model.scale))
    return out


def _task_score(model: CapabilityModelSpec, capability: float, task: str, eps: float) -> Decimal:
    measured = min(max(capability + eps, 0.0), model.ceiling)
    score = round_half_away(measured, 1) + TASK_OFFSETS[task]
    return min(max(score, Decimal(0)), Decimal(100))


@dataclass(frozen=True)
class SynthCapability:
    """A simulated evaluation log plus the exact noiseless final snapshot."""

    snapshots: tuple[EvalSnapshot, ...]
    final_truth: dict[str, Decimal]
    final_exposure: dict[str, float]


def synth_capability(
    cond: ScheduleCondition,
    model: CapabilityModelSpec = CapabilityModelSpec(),
    registry=None,
    seed: int | None = None,
) -> SynthCapability:
    """Simulate evaluations at every eval interval plus the final step."""
    _check_capability_spec(model)
    seed = _seed(seed)
    if seed is None and model.noise > 0:
        raise UsageError("simulating with noise needs an explicit seed")
    if registry is None:
        registry = builtin_registry()
    _require_valid(cond, registry)
    names = sorted(src.name for src in registry)
    total = cond.total_steps()
    if total < 1:
        raise ValidationError("condition has no training steps to simulate")
    fields.check_budget(total // model.eval_interval + 1, 1024, "evaluation snapshots")  # 1.1 KB each, measured
    eval_points = list(range(model.eval_interval, total, model.eval_interval))
    eval_points.append(total)
    rng = np.random.default_rng(seed)
    snapshots = []
    for done in eval_points:
        exposure = _exposure_row(cond, registry, names, done).per_group
        capability = _group_capability(model, exposure)
        scores = {}
        for group, tasks in COMPOSITE_TASKS.items():
            for task in tasks:
                eps = float(rng.normal(0.0, model.noise)) if model.noise > 0 else 0.0
                scores[task] = _task_score(model, capability[group], task, eps)
        snapshots.append(EvalSnapshot(step=done, scores=scores))
    # The loop ends at the final step: its exposure and capability are the finals.
    final_truth = {
        task: _task_score(model, capability[group], task, 0.0)
        for group, tasks in COMPOSITE_TASKS.items()
        for task in tasks
    }
    return SynthCapability(snapshots=tuple(snapshots), final_truth=final_truth, final_exposure=exposure)
