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
  read at offset k * size. It is computed with numpy's default sort, and a
  tie among the words goes to the stable sort, so the bytes never depend on
  the sort algorithm. Draw j from the dataset yields instance
  perm[j % size] of permutation j // size, so every instance appears exactly
  once per pass.

Because every word is addressed by offset, the events of steps
[step, step + count) are a pure function of the seed, `step` and the
per-dataset draw counts before `step`. One kernel, `ManifestSampler._draw`,
computes such a chunk and advances the counts: `generate_manifest` runs it
once over the whole schedule, and the sampler runs it chunk by chunk.

Sampler state is the seed, the next step and the per-dataset draw counts,
plus the whole condition and registry it samples from (and the registry
digest), so a saved state resumes on its own. Its size depends on the
condition and registry, not on how many events were already emitted;
resuming from a saved state continues the exact sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import fields
from .errors import FormatError, ValidationError
from .schedule import (
    ScheduleCondition,
    _require_valid,
    condition_as_dict,
    condition_from_dict,
    registry_as_list,
    registry_digest,
    registry_from_list,
)

GENERATOR_ID = "philox4x64/choice-u53-invcdf/perm-argsort/v1"
MANIFEST_FORMAT = "stagemix-manifest/v1"
STATE_FORMAT = "stagemix-sampler-state/v1"

_CHOICE_TAG = 0
_U53_SCALE = 2.0**-53


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


def _permutation(words: np.ndarray) -> np.ndarray:
    """The stable argsort of `words`, computed with numpy's default sort.

    Without two equal words the sorting permutation is unique, so any
    correct sort gives the stable one; a tie, and only a tie, goes to the
    stable sort itself.
    """
    perm = np.argsort(words)
    ranked = words[perm]
    if np.any(ranked[1:] == ranked[:-1]):
        return np.argsort(words, kind="stable")
    return perm


def _instance_block(
    seed: int, tag: int, size: int, start: int, count: int, perms: dict
) -> np.ndarray:
    """Instances for draws [start, start + count) of one dataset's stream.

    `perms` maps tag -> (refill, perm) for the last permutation sorted, so a
    run of small blocks sorts each permutation once.
    """
    out = np.empty(count, dtype=np.int64)
    filled = 0
    draw = start
    while filled < count:
        refill, pos = divmod(draw, size)
        take = min(size - pos, count - filled)
        last = perms.get(tag)
        if last is None or last[0] != refill:
            last = perms[tag] = (
                refill,
                _permutation(_raw_words(seed, tag, refill * size, size)),
            )
        out[filled : filled + take] = last[1][pos : pos + take]
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
                boundaries=boundaries,
                global_ids=np.array([name_to_id[n] for n in names], dtype=np.int64),
            )
        )
        start += stage.steps
    return tuple(slices)


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
    """Materialize the full event sequence: the sampler's kernel run once from step 0."""
    sampler = ManifestSampler(cond, registry, seed)
    total = sampler.total_steps
    columns = sampler._draw(total)  # before arange: the draw's peak need not hold it
    return sampler._manifest(np.arange(total, dtype=np.int64), *columns)


def assemble_manifest(cond: ScheduleCondition, registry, seed: int, events) -> Manifest:
    """Build a Manifest from an explicit event list (e.g. a resumed sampler run)."""
    sampler = ManifestSampler(cond, registry, seed)
    events = list(events)
    return sampler._manifest(
        np.array([e.step for e in events], dtype=np.int64),
        np.array([e.stage for e in events], dtype=np.int64),
        np.array([sampler._name_to_id[e.dataset] for e in events], dtype=np.int64),
        np.array([e.instance for e in events], dtype=np.int64),
    )


class ManifestSampler:
    """Resumable event generator with O(#datasets) state.

    Events come out strictly in global step order. The kernel, `_draw`,
    produces the next steps from the current step and draw counts. `take`
    calls it `_CHUNK` steps at a time; `next_event` and iteration read from
    an ahead-buffer that it fills one chunk at a time. The state counts only
    events already handed out (the buffer is not part of it) and never
    references them, so `from_state(s.state())` continues bit-exactly.
    """

    _CHUNK = 4096

    def __init__(self, cond: ScheduleCondition, registry, seed: int):
        self.seed = fields.check(seed, "seed", low=0, high=2**64)
        _require_valid(cond, registry)
        self.condition = cond
        self.registry = tuple(registry)
        self._digest = registry_digest(registry)
        self._names = tuple(sorted(src.name for src in registry))
        self._name_to_id = {name: i for i, name in enumerate(self._names)}
        self._sizes = [src.size for src in sorted(registry, key=lambda src: src.name)]
        self._slices = _stage_slices(cond, self._name_to_id)
        self._total = cond.total_steps()
        # Kernel position: the next step to draw and the draws per dataset id.
        self._step = 0
        self._drawn = [0] * len(self._names)
        self._perms: dict = {}
        # Drawn but not yet handed out, oldest first.
        self._ahead: deque[ManifestEvent] = deque()

    @property
    def total_steps(self) -> int:
        return self._total

    @property
    def next_step(self) -> int:
        return self._step - len(self._ahead)

    @property
    def events_remaining(self) -> int:
        return self._total - self.next_step

    def _draw(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stages, dataset ids and instances of the next `count` steps; advances past them."""
        start = self._step
        end = start + count
        stages = np.empty(count, dtype=np.int64)
        gids = np.empty(count, dtype=np.int64)
        for sl in self._slices:
            lo = max(start, sl.start)
            hi = min(end, sl.start + sl.steps)
            if lo >= hi:
                continue
            u = _uniforms(self.seed, _CHOICE_TAG, lo, hi - lo)
            pos = np.searchsorted(sl.boundaries, u, side="right")
            stages[lo - start : hi - start] = sl.index
            gids[lo - start : hi - start] = sl.global_ids[pos]
        instances = np.empty(count, dtype=np.int64)
        for gid, size in enumerate(self._sizes):
            where = np.flatnonzero(gids == gid)
            if len(where):
                # Nothing draws after the schedule's last step: keep no permutation then.
                perms = self._perms if end < self._total else {}
                instances[where] = _instance_block(
                    self.seed, 1 + gid, size, self._drawn[gid], len(where), perms
                )
                self._drawn[gid] += len(where)
        self._step = end
        return stages, gids, instances

    def _manifest(self, steps, stages, dataset_ids, instances) -> Manifest:
        return Manifest(
            condition_id=self.condition.id,
            seed=self.seed,
            registry_digest=self._digest,
            generator=GENERATOR_ID,
            stage_steps={stage.index: stage.steps for stage in self.condition.stages},
            dataset_names=self._names,
            steps=steps,
            stages=stages,
            dataset_ids=dataset_ids,
            instances=instances,
        )

    def _events(self, count: int) -> list[ManifestEvent]:
        start = self._step
        stages, gids, instances = self._draw(count)
        datasets = map(self._names.__getitem__, gids.tolist())
        steps = range(start, start + count)
        return list(map(ManifestEvent, steps, stages.tolist(), datasets, instances.tolist()))

    def _exhausted(self) -> ValueError:
        return ValueError(f"sampler exhausted: the schedule has {self._total} steps")

    def next_event(self) -> ManifestEvent:
        if not self._ahead:
            if self._step >= self._total:
                raise self._exhausted()
            self._ahead.extend(self._events(min(self._CHUNK, self._total - self._step)))
        return self._ahead.popleft()

    def take(self, count: int) -> list[ManifestEvent]:
        """The next `count` events; asking for more than remain consumes nothing."""
        count = fields.check(count, "take count", low=0)
        if count > self.events_remaining:
            raise self._exhausted()
        events = [self._ahead.popleft() for _ in range(min(count, len(self._ahead)))]
        # _CHUNK at a time keeps temporaries small: one 100k-event draw left
        # the heap so that a following 1M-event write peaked 56-80 MB higher.
        while len(events) < count:
            events += self._events(min(self._CHUNK, count - len(events)))
        return events

    def __iter__(self) -> Iterator[ManifestEvent]:
        while self.events_remaining:
            yield self.next_event()

    def state(self) -> dict:
        """JSON-serializable snapshot; size depends only on the registry."""
        draws = dict(zip(self._names, self._drawn))
        for event in self._ahead:
            draws[event.dataset] -= 1
        return {
            "format": STATE_FORMAT,
            "generator": GENERATOR_ID,
            "seed": self.seed,
            "next_step": self.next_step,
            "draws": draws,
            "condition": condition_as_dict(self.condition),
            "registry": registry_as_list(self.registry),
            "registry_digest": self._digest,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ManifestSampler":
        if fields.check(state, "sampler state", dict, FormatError).get("format") != STATE_FORMAT:
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
        seed = fields.check(state["seed"], "sampler state seed", int, FormatError, low=0, high=2**64)
        sampler = cls(cond, registry, seed)
        next_step = fields.check(state["next_step"], "sampler state next_step", int, FormatError, low=0)
        if next_step > sampler._total:
            raise ValidationError(
                f"sampler state next_step {next_step} exceeds the schedule's {sampler._total} steps"
            )
        draws = fields.check(state["draws"], "sampler state draws", dict, FormatError)
        total_draws = 0
        for name, count in draws.items():
            if name not in sampler._name_to_id:
                raise ValidationError(f"sampler state counts draws for unknown dataset {name!r}")
            count = fields.check(count, f"sampler state draw count for {name!r}", int, FormatError, low=0)
            sampler._drawn[sampler._name_to_id[name]] = count
            total_draws += count
        if total_draws != next_step:
            raise ValidationError(
                f"sampler state draw counts sum to {total_draws} but next_step is {next_step}"
            )
        sampler._step = next_step
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
