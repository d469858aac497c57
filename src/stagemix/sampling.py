"""Deterministic sample manifests for multi-stage schedules.

Every (condition, registry, seed) triple maps to exactly one event sequence,
reproducible across runs, platforms, and resume points. The construction uses
counter-based Philox streams addressed by absolute offset, so no draw depends
on how many draws came before it in wall-clock terms:

* Dataset choice: one 64-bit word per global training step from the stream
  keyed (seed, 0). The word becomes a uniform in [0, 1) via the top 53 bits,
  then inverse-CDF lookup over the cumulative stage distribution, datasets in
  lexicographic name order, final boundary pinned to exactly 1.0.
* Instance choice: dataset d (lexicographic rank r among registry names) owns
  the stream keyed (seed, 1 + r). Its pool is walked in concatenated full
  permutations; permutation k is the stable argsort of pool-size raw words
  read at offset k * size. Draw j from the dataset yields instance
  perm[j % size] of permutation j // size, so every instance appears exactly
  once per pass.

Sampler state is the seed, the next step and the per-dataset draw counts,
plus the whole condition and registry it samples from (and the registry
digest), so a saved state resumes on its own. Its size depends on the
condition and registry, not on how many events were already emitted;
resuming from a saved state continues the exact sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import FormatError, ValidationError
from .schedule import (
    ScheduleCondition,
    condition_as_dict,
    condition_from_dict,
    registry_as_list,
    registry_digest,
    registry_from_list,
    validate_condition,
)

GENERATOR_ID = "philox4x64/choice-u53-invcdf/perm-argsort/v1"
MANIFEST_FORMAT = "stagemix-manifest/v1"
STATE_FORMAT = "stagemix-sampler-state/v1"

_CHOICE_TAG = 0
_U53_SCALE = 2.0**-53


def _check_seed(seed) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _raw_words(seed: int, tag: int, offset: int, count: int) -> np.ndarray:
    """Words [offset, offset + count) of the Philox4x64 stream keyed (seed, tag).

    Philox counts in 4-word blocks, so jumping to an arbitrary word offset
    means starting at block offset // 4 and discarding offset % 4 words.
    """
    if count <= 0:
        return np.empty(0, dtype=np.uint64)
    key = np.array([seed, tag], dtype=np.uint64)
    bit = np.random.Philox(counter=offset // 4, key=key)
    skip = offset % 4
    return bit.random_raw(skip + count)[skip:]


def _uniforms(seed: int, tag: int, offset: int, count: int) -> np.ndarray:
    return (_raw_words(seed, tag, offset, count) >> np.uint64(11)) * _U53_SCALE


def _instance_block(seed: int, tag: int, size: int, start: int, count: int) -> np.ndarray:
    """Instances for draws [start, start + count) of one dataset's stream."""
    out = np.empty(count, dtype=np.int64)
    filled = 0
    draw = start
    while filled < count:
        refill, pos = divmod(draw, size)
        take = min(size - pos, count - filled)
        perm = np.argsort(_raw_words(seed, tag, refill * size, size), kind="stable")
        out[filled : filled + take] = perm[pos : pos + take]
        filled += take
        draw += take
    return out


class ManifestEvent(NamedTuple):
    """One training step's sample: global step, stage index, dataset, instance."""

    step: int
    stage: int
    dataset: str
    instance: int


@dataclass(frozen=True)
class _StageSlice:
    index: int
    start: int
    steps: int
    names: tuple[str, ...]
    boundaries: np.ndarray
    global_ids: np.ndarray


def _stage_slices(cond: ScheduleCondition, name_to_id: dict[str, int]) -> tuple[_StageSlice, ...]:
    slices = []
    start = 0
    for stage in cond.stages:
        names = tuple(sorted(stage.distribution))
        probs = np.array([stage.distribution[n] for n in names], dtype=np.float64)
        boundaries = np.cumsum(probs)
        boundaries[-1] = 1.0
        slices.append(
            _StageSlice(
                index=stage.index,
                start=start,
                steps=stage.steps,
                names=names,
                boundaries=boundaries,
                global_ids=np.array([name_to_id[n] for n in names], dtype=np.int64),
            )
        )
        start += stage.steps
    return tuple(slices)


def _require_valid(cond: ScheduleCondition, registry) -> None:
    result = validate_condition(cond, registry)
    if not result.ok:
        from .errors import InvalidScheduleError

        raise InvalidScheduleError(result.violations)


@dataclass(frozen=True)
class Manifest:
    """A complete event sequence plus the header that pins its provenance."""

    condition_id: str
    seed: int
    registry_digest: str
    generator: str
    stage_steps: dict[int, int]
    dataset_names: tuple[str, ...]
    steps: np.ndarray
    stages: np.ndarray
    dataset_ids: np.ndarray
    instances: np.ndarray

    def __len__(self) -> int:
        return len(self.steps)

    def header(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "condition": self.condition_id,
            "seed": self.seed,
            "registry_digest": self.registry_digest,
            "generator": self.generator,
            "stage_steps": {str(index): steps for index, steps in sorted(self.stage_steps.items())},
        }

    def events(self) -> Iterator[ManifestEvent]:
        names = self.dataset_names
        for i in range(len(self.steps)):
            yield ManifestEvent(
                int(self.steps[i]),
                int(self.stages[i]),
                names[self.dataset_ids[i]],
                int(self.instances[i]),
            )


def generate_manifest(cond: ScheduleCondition, registry, seed: int) -> Manifest:
    """Materialize the full event sequence for a condition in one vectorized pass."""
    _check_seed(seed)
    _require_valid(cond, registry)
    names = tuple(sorted(src.name for src in registry))
    sizes = {src.name: src.size for src in registry}
    name_to_id = {name: i for i, name in enumerate(names)}
    total = cond.total_steps()
    stages = np.empty(total, dtype=np.int64)
    gids = np.empty(total, dtype=np.int64)
    for sl in _stage_slices(cond, name_to_id):
        if sl.steps == 0:
            continue
        u = _uniforms(seed, _CHOICE_TAG, sl.start, sl.steps)
        pos = np.searchsorted(sl.boundaries, u, side="right")
        stages[sl.start : sl.start + sl.steps] = sl.index
        gids[sl.start : sl.start + sl.steps] = sl.global_ids[pos]
    instances = np.empty(total, dtype=np.int64)
    for gid, name in enumerate(names):
        where = np.flatnonzero(gids == gid)
        if len(where):
            instances[where] = _instance_block(seed, 1 + gid, sizes[name], 0, len(where))
    return Manifest(
        condition_id=cond.id,
        seed=seed,
        registry_digest=registry_digest(registry),
        generator=GENERATOR_ID,
        stage_steps={stage.index: stage.steps for stage in cond.stages},
        dataset_names=names,
        steps=np.arange(total, dtype=np.int64),
        stages=stages,
        dataset_ids=gids,
        instances=instances,
    )


def assemble_manifest(cond: ScheduleCondition, registry, seed: int, events) -> Manifest:
    """Build a Manifest from an explicit event list (e.g. a resumed sampler run)."""
    names = tuple(sorted(src.name for src in registry))
    name_to_id = {name: i for i, name in enumerate(names)}
    events = list(events)
    return Manifest(
        condition_id=cond.id,
        seed=seed,
        registry_digest=registry_digest(registry),
        generator=GENERATOR_ID,
        stage_steps={stage.index: stage.steps for stage in cond.stages},
        dataset_names=names,
        steps=np.array([e.step for e in events], dtype=np.int64),
        stages=np.array([e.stage for e in events], dtype=np.int64),
        dataset_ids=np.array([name_to_id[e.dataset] for e in events], dtype=np.int64),
        instances=np.array([e.instance for e in events], dtype=np.int64),
    )


class _PermutationCursor:
    """Caches the current permutation of one dataset's pool."""

    def __init__(self, seed: int, tag: int, size: int):
        self.seed = seed
        self.tag = tag
        self.size = size
        self.refill = -1
        self.perm = None

    def instance(self, draw: int) -> int:
        refill, pos = divmod(draw, self.size)
        if refill != self.refill:
            self.perm = np.argsort(
                _raw_words(self.seed, self.tag, refill * self.size, self.size), kind="stable"
            )
            self.refill = refill
        return int(self.perm[pos])


class ManifestSampler:
    """Sequential event generator with O(#datasets) resumable state.

    The sampler is strictly sequential: one event per call, in global step
    order. Its state never references emitted events, only the next step and
    per-dataset draw counts, so `from_state(s.state())` continues bit-exactly.
    """

    _CHUNK = 4096

    def __init__(self, cond: ScheduleCondition, registry, seed: int):
        _check_seed(seed)
        _require_valid(cond, registry)
        self.condition = cond
        self.registry = tuple(registry)
        self.seed = seed
        self._digest = registry_digest(registry)
        self._names = tuple(sorted(src.name for src in registry))
        self._name_to_id = {name: i for i, name in enumerate(self._names)}
        sizes = {src.name: src.size for src in registry}
        self._slices = _stage_slices(cond, self._name_to_id)
        self._total = cond.total_steps()
        self._next_step = 0
        self._stage_pos = 0
        self._draws = {name: 0 for name in self._names}
        self._cursors = {
            name: _PermutationCursor(seed, 1 + self._name_to_id[name], sizes[name])
            for name in self._names
        }
        self._buf = np.empty(0, dtype=np.float64)
        self._buf_start = 0

    @property
    def total_steps(self) -> int:
        return self._total

    @property
    def next_step(self) -> int:
        return self._next_step

    @property
    def events_remaining(self) -> int:
        return self._total - self._next_step

    def _uniform_for(self, step: int) -> float:
        if not (self._buf_start <= step < self._buf_start + len(self._buf)):
            count = min(self._CHUNK, self._total - step)
            self._buf = _uniforms(self.seed, _CHOICE_TAG, step, count)
            self._buf_start = step
        return float(self._buf[step - self._buf_start])

    def next_event(self) -> ManifestEvent:
        if self._next_step >= self._total:
            raise ValueError(f"sampler exhausted: the schedule has {self._total} steps")
        step = self._next_step
        while step >= self._slices[self._stage_pos].start + self._slices[self._stage_pos].steps:
            self._stage_pos += 1
        sl = self._slices[self._stage_pos]
        u = self._uniform_for(step)
        pos = int(np.searchsorted(sl.boundaries, u, side="right"))
        name = sl.names[pos]
        draw = self._draws[name]
        self._draws[name] = draw + 1
        instance = self._cursors[name].instance(draw)
        self._next_step = step + 1
        return ManifestEvent(step, sl.index, name, instance)

    def take(self, count: int) -> list[ManifestEvent]:
        return [self.next_event() for _ in range(count)]

    def __iter__(self) -> Iterator[ManifestEvent]:
        while self._next_step < self._total:
            yield self.next_event()

    def state(self) -> dict:
        """JSON-serializable snapshot; size depends only on the registry."""
        return {
            "format": STATE_FORMAT,
            "generator": GENERATOR_ID,
            "seed": self.seed,
            "next_step": self._next_step,
            "draws": {name: self._draws[name] for name in self._names},
            "condition": condition_as_dict(self.condition),
            "registry": registry_as_list(self.registry),
            "registry_digest": self._digest,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ManifestSampler":
        if not isinstance(state, dict):
            raise FormatError(f"sampler state must be an object, got {type(state).__name__}")
        if state.get("format") != STATE_FORMAT:
            raise FormatError(f"unrecognized sampler state format {state.get('format')!r}")
        generator = state.get("generator")
        if generator != GENERATOR_ID:
            raise ValidationError(
                f"state was produced by generator {generator!r};"
                f" this build implements {GENERATOR_ID!r}"
            )
        for field_name in ("seed", "next_step", "draws", "condition", "registry"):
            if field_name not in state:
                raise FormatError(f"sampler state is missing {field_name!r}")
        cond = condition_from_dict(state["condition"])
        registry = registry_from_list(state["registry"])
        digest = registry_digest(registry)
        recorded = state.get("registry_digest")
        if recorded is not None and recorded != digest:
            raise ValidationError(
                f"sampler state registry digest {recorded!r} does not match its embedded registry ({digest!r})"
            )
        sampler = cls(cond, registry, state["seed"])
        next_step = state["next_step"]
        if not isinstance(next_step, int) or isinstance(next_step, bool) or next_step < 0:
            raise FormatError(f"sampler state next_step must be a non-negative integer, got {next_step!r}")
        if next_step > sampler._total:
            raise ValidationError(
                f"sampler state next_step {next_step} exceeds the schedule's {sampler._total} steps"
            )
        draws = state["draws"]
        if not isinstance(draws, dict):
            raise FormatError("sampler state draws must be an object")
        total_draws = 0
        for name, count in draws.items():
            if name not in sampler._draws:
                raise ValidationError(f"sampler state counts draws for unknown dataset {name!r}")
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise FormatError(f"sampler state draw count for {name!r} must be a non-negative integer")
            sampler._draws[name] = count
            total_draws += count
        if total_draws != next_step:
            raise ValidationError(
                f"sampler state draw counts sum to {total_draws} but next_step is {next_step}"
            )
        sampler._next_step = next_step
        return sampler


def empirical_distribution(manifest: Manifest, stage: int) -> dict[str, float]:
    """Observed dataset frequencies within one stage of a manifest.

    A declared stage with zero steps yields {}; an undeclared stage index is
    a usage error.
    """
    if stage not in manifest.stage_steps:
        declared = ", ".join(str(s) for s in sorted(manifest.stage_steps))
        raise ValueError(f"stage {stage} is not part of this manifest (declared stages: {declared})")
    if manifest.stage_steps[stage] == 0:
        return {}
    mask = manifest.stages == stage
    total = int(mask.sum())
    counts = np.bincount(manifest.dataset_ids[mask], minlength=len(manifest.dataset_names))
    return {
        name: int(counts[i]) / total for i, name in enumerate(manifest.dataset_names) if counts[i]
    }
