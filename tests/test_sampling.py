import functools
import hashlib
import itertools
import json
import operator
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagemix import (
    DatasetSource,
    FormatError,
    GENERATOR_ID,
    InvalidScheduleError,
    ManifestSampler,
    ScheduleCondition,
    StagemixError,
    StagePlan,
    ValidationError,
    builtin_condition,
    builtin_registry,
    empirical_distribution,
    generate_manifest,
    registry_digest,
    write_manifest,
)
from stagemix import sampling, threads
from stagemix.sampling import STATE_FORMAT, _permutation

TOY_REGISTRY = (
    DatasetSource("alpha", "D0-alignment", 5),
    DatasetSource("beta", "D1-general", 4),
    DatasetSource("gamma", "D2-reasoning", 3),
)

TOY_CONDITION = ScheduleCondition(
    id="toy",
    stages=(
        StagePlan(1, 4, {"alpha": 1.0}),
        StagePlan(2, 8, {"beta": 0.75, "gamma": 0.25}),
    ),
)

# Pinned output of the generator scheme for (TOY_CONDITION, TOY_REGISTRY, seed 7).
# Any change to the raw-stream layout, the uniform mapping, the inverse-CDF
# convention, or the permutation rule shows up here first.
GOLDEN_EVENTS_SEED7 = [
    (0, 1, "alpha", 3),
    (1, 1, "alpha", 1),
    (2, 1, "alpha", 2),
    (3, 1, "alpha", 4),
    (4, 2, "beta", 0),
    (5, 2, "beta", 1),
    (6, 2, "beta", 3),
    (7, 2, "beta", 2),
    (8, 2, "beta", 2),
    (9, 2, "gamma", 2),
    (10, 2, "gamma", 0),
    (11, 2, "beta", 3),
]

BUILTIN_DIGEST = "sha256:63fa569eec9fa22c80d342df8843204bf897580cbba132004b364b71af675ccc"


def oracle_instances(seed, lex_rank, size, n_draws):
    """Independent reconstruction of a dataset's instance stream.

    Walks the Philox stream keyed (seed, 1 + lex rank) in pool-size blocks and
    stable-argsorts each block, matching the documented scheme but sharing no
    code with the implementation.
    """
    out = []
    refill = 0
    while len(out) < n_draws:
        bit = np.random.Philox(key=np.array([seed, 1 + lex_rank], dtype=np.uint64))
        words = bit.random_raw((refill + 1) * size)[refill * size :]
        out.extend(int(i) for i in np.argsort(words, kind="stable"))
        refill += 1
    return out[:n_draws]


class TestGoldenSequence:
    def test_pinned_events(self):
        manifest = generate_manifest(TOY_CONDITION, TOY_REGISTRY, 7)
        assert [tuple(e) for e in manifest.events()] == GOLDEN_EVENTS_SEED7

    def test_pinned_builtin_registry_digest(self):
        assert registry_digest(builtin_registry()) == BUILTIN_DIGEST

    def test_header_contents(self):
        manifest = generate_manifest(TOY_CONDITION, TOY_REGISTRY, 7)
        header = manifest.header()
        assert header["format"] == "stagemix-manifest/v1"
        assert header["condition"] == "toy"
        assert header["seed"] == 7
        assert header["generator"] == GENERATOR_ID
        assert header["registry_digest"] == registry_digest(TOY_REGISTRY)
        assert header["stage_steps"] == {"1": 4, "2": 8}
        json.dumps(header)  # must be serializable as-is


class TestDeterminism:
    def test_same_seed_same_manifest(self):
        a = generate_manifest(TOY_CONDITION, TOY_REGISTRY, 123)
        b = generate_manifest(TOY_CONDITION, TOY_REGISTRY, 123)
        assert np.array_equal(a.dataset_ids, b.dataset_ids)
        assert np.array_equal(a.instances, b.instances)

    def test_different_seed_different_manifest(self):
        cond = builtin_condition("C", (50, 500, 500))
        a = generate_manifest(cond, builtin_registry(), 1)
        b = generate_manifest(cond, builtin_registry(), 2)
        assert not (
            np.array_equal(a.dataset_ids, b.dataset_ids)
            and np.array_equal(a.instances, b.instances)
        )

    def test_sequential_matches_vectorized(self):
        cond = builtin_condition("B", (100, 700, 700))
        registry = builtin_registry()
        manifest = generate_manifest(cond, registry, 99)
        sampler = ManifestSampler(cond, registry, 99)
        assert sampler.take(len(manifest)) == list(manifest.events())

    def test_draws_depend_only_on_offsets(self):
        # the 100th event is the same whether or not events 0..98 were generated
        cond = builtin_condition("C", (10, 200, 200))
        registry = builtin_registry()
        full = ManifestSampler(cond, registry, 5).take(150)
        partial = ManifestSampler(cond, registry, 5)
        partial.take(100)
        assert partial.next_event() == full[100]


class TestResume:
    @pytest.mark.parametrize("cut", [1, 5, 17, 399])
    def test_resume_continues_exactly(self, cut):
        cond = builtin_condition("C", (20, 300, 300))
        registry = builtin_registry()
        reference = ManifestSampler(cond, registry, 42).take(620)
        first = ManifestSampler(cond, registry, 42)
        head = first.take(cut)
        state = json.loads(json.dumps(first.state()))  # force a JSON round trip
        second = ManifestSampler.from_state(state)
        tail = second.take(620 - cut)
        assert head + tail == reference

    # Crosses the stage 1 -> 2 boundary at step 3000, and draws refill the
    # pools of 5, 4 and 3 instances hundreds of times.
    BUFFER_CONDITION = ScheduleCondition(
        id="buffer",
        stages=(
            StagePlan(1, 3000, {"alpha": 1.0}),
            StagePlan(2, 7000, {"beta": 0.75, "gamma": 0.25}),
        ),
    )

    @pytest.mark.parametrize(
        "piece", [1, ManifestSampler._CHUNK - 1, ManifestSampler._CHUNK, ManifestSampler._CHUNK + 1]
    )
    def test_state_excludes_buffered_events(self, piece):
        reference = list(generate_manifest(self.BUFFER_CONDITION, TOY_REGISTRY, 13).events())
        sampler = ManifestSampler(self.BUFFER_CONDITION, TOY_REGISTRY, 13)
        handed_out = []

        def iterate_and_break():  # leaves the rest of a chunk in the buffer
            for count, event in enumerate(sampler, 1):
                handed_out.append(event)
                if count == 37:
                    break

        steps = [
            iterate_and_break,
            lambda: handed_out.extend(sampler.take(piece)),
            lambda: handed_out.append(sampler.next_event()),
            lambda: handed_out.extend(sampler.take(piece)),
            iterate_and_break,
            lambda: handed_out.extend(sampler.take(sampler.events_remaining)),
        ]
        for step in steps:
            step()
            done = len(handed_out)
            assert handed_out == reference[:done]
            state = json.loads(json.dumps(sampler.state()))
            assert state["next_step"] == done
            resumed = ManifestSampler.from_state(state)
            assert resumed.take(resumed.events_remaining) == reference[done:]

    def test_state_is_small(self):
        cond = builtin_condition("C", (20, 300, 300))
        sampler = ManifestSampler(cond, builtin_registry(), 42)
        sampler.take(500)
        state = sampler.state()
        assert state["next_step"] == 500
        assert sum(state["draws"].values()) == 500
        # size is a registry property, not an event-count property
        assert len(state["draws"]) == len(builtin_registry())

    def test_state_format_tag_checked(self):
        sampler = ManifestSampler(TOY_CONDITION, TOY_REGISTRY, 7)
        state = sampler.state()
        state["format"] = "something-else"
        with pytest.raises(FormatError, match="state format"):
            ManifestSampler.from_state(state)

    def test_state_generator_checked(self):
        state = ManifestSampler(TOY_CONDITION, TOY_REGISTRY, 7).state()
        state["generator"] = "other-scheme/v9"
        with pytest.raises(ValidationError, match="generator"):
            ManifestSampler.from_state(state)

    def test_state_digest_checked(self):
        state = ManifestSampler(TOY_CONDITION, TOY_REGISTRY, 7).state()
        state["registry_digest"] = "sha256:" + "0" * 64
        with pytest.raises(ValidationError, match="digest"):
            ManifestSampler.from_state(state)

    def test_state_draw_sum_checked(self):
        sampler = ManifestSampler(TOY_CONDITION, TOY_REGISTRY, 7)
        sampler.take(6)
        state = sampler.state()
        state["draws"]["alpha"] += 1
        with pytest.raises(ValidationError, match="sum"):
            ManifestSampler.from_state(state)

    def test_state_beyond_schedule_checked(self):
        state = ManifestSampler(TOY_CONDITION, TOY_REGISTRY, 7).state()
        state["next_step"] = 99
        state["draws"]["alpha"] = 99
        with pytest.raises(ValidationError, match="exceeds"):
            ManifestSampler.from_state(state)



# Any JSON value, for a mutated state to hold in place of one of its own.
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.sampled_from([0, 1, -1, 7, 12, 2**63, 2**64, 10**30]),
        st.floats(),
        st.text(max_size=6),
        st.sampled_from(["alpha", "D0-alignment", "sha256:", STATE_FORMAT, GENERATOR_ID]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)


def _paths(value, path=()):
    """The path to every value inside a JSON document, its root () first."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_mutated_state_raises_only_toolkit_errors(data):
    """ManifestSampler.from_state on a state with up to three values replaced, deleted or moved to
    another key: a sampler that resumes, or a StagemixError, never another exception."""
    sampler = ManifestSampler(TOY_CONDITION, TOY_REGISTRY, 7)
    sampler.take(5)
    state = json.loads(json.dumps(sampler.state()))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        path = data.draw(st.sampled_from(list(_paths(state))[1:]), label="path")
        parent = functools.reduce(operator.getitem, path[:-1], state)
        how = data.draw(st.sampled_from(["replace", "delete", "rename"]), label="how")
        if how == "replace":
            parent[path[-1]] = data.draw(_JSON_VALUES, label="value")
        else:
            value = parent.pop(path[-1])
            if how == "rename" and isinstance(parent, dict):
                parent[data.draw(st.text(max_size=6), label="key")] = value
    try:
        resumed = ManifestSampler.from_state(state)
    except StagemixError:
        return
    resumed.take(min(resumed.events_remaining, 3))


class TestInstancePermutations:
    def test_instances_match_independent_oracle(self):
        cond = ScheduleCondition(
            id="solo",
            stages=(StagePlan(1, 33, {"alpha": 1.0}), StagePlan(2, 0, {"alpha": 1.0})),
        )
        registry = (DatasetSource("alpha", "D0-alignment", 5),)
        manifest = generate_manifest(cond, registry, 2024)
        expected = oracle_instances(2024, 0, 5, 33)
        assert manifest.instances.tolist() == expected

    def test_each_pass_is_a_full_permutation(self):
        size = 7
        cond = ScheduleCondition(
            id="solo",
            stages=(StagePlan(1, size * 4, {"only": 1.0}), StagePlan(2, 0, {"only": 1.0})),
        )
        registry = (DatasetSource("only", "D0-alignment", size),)
        manifest = generate_manifest(cond, registry, 11)
        for k in range(4):
            block = manifest.instances[k * size : (k + 1) * size]
            assert sorted(block.tolist()) == list(range(size))

    def test_prefix_counts_stay_balanced(self):
        # after any number of draws, per-instance usage differs by at most 1
        size = 6
        cond = ScheduleCondition(
            id="solo",
            stages=(StagePlan(1, 40, {"only": 1.0}), StagePlan(2, 0, {"only": 1.0})),
        )
        registry = (DatasetSource("only", "D0-alignment", size),)
        manifest = generate_manifest(cond, registry, 3)
        for prefix in range(1, 41):
            counts = np.bincount(manifest.instances[:prefix], minlength=size)
            assert counts.max() - counts.min() <= 1

    def test_multi_dataset_draw_order_matches_sequential_oracle(self):
        manifest = generate_manifest(TOY_CONDITION, TOY_REGISTRY, 7)
        names = sorted(s.name for s in TOY_REGISTRY)
        sizes = {s.name: s.size for s in TOY_REGISTRY}
        for rank, name in enumerate(names):
            mine = [int(e.instance) for e in manifest.events() if e.dataset == name]
            assert mine == oracle_instances(7, rank, sizes[name], len(mine))


class TestPermutation:
    """`_permutation` must equal the stable argsort that defines the scheme,
    ties included: numpy's default sort orders equal words differently."""

    def test_ties_take_the_stable_order(self):
        words = np.random.default_rng(0).integers(0, 8, 10_000).astype(np.uint64)
        assert np.array_equal(_permutation(words), np.argsort(words, kind="stable"))

    @given(
        size=st.sampled_from([0, 1, 2, 16, 17, 10_000]),
        values=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_stable_argsort(self, size, values, share, seed):
        # Random words, then a `share` of them overwritten with a few values.
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**64, size, dtype=np.uint64)
        duplicate = rng.random(size) < share
        words[duplicate] = np.array(values, dtype=np.uint64)[rng.integers(0, len(values), duplicate.sum())]
        assert np.array_equal(_permutation(words), np.argsort(words, kind="stable"))

    @given(
        size=st.one_of(st.integers(2, 64), st.just(10_000)),
        values=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        tie=st.sampled_from(["inside", "across", "both"]),
    )
    def test_a_prefix_equals_the_stable_argsorts_prefix(self, size, values, share, seed, tie):
        # Words as above, then for each length a tie made within the prefix, across its cut, or both.
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**64, size, dtype=np.uint64)
        duplicate = rng.random(size) < share
        words[duplicate] = np.array(values, dtype=np.uint64)[rng.integers(0, len(values), duplicate.sum())]
        for need in (1, size // 2, size - 1, size):
            tied = words.copy()
            order = np.argsort(tied, kind="stable")
            if tie != "across" and need >= 2:
                tied[order[need - 2]] = tied[order[need - 1]]
            if tie != "inside" and need < size:
                tied[order[need]] = tied[order[need - 1]]
            assert np.array_equal(_permutation(tied, need), np.argsort(tied, kind="stable")[:need])


class TestThreadedDraws:
    """A whole manifest draws each dataset on a thread and sorts only the part of a permutation that
    is read; neither changes a value."""

    CONDITION = builtin_condition("B", (1000, 30000, 30000))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_columns_do_not_depend_on_the_cpu_count(self, monkeypatch, cpus):
        # the reference: the sampler's chunks, on the caller's thread, every permutation fully sorted
        registry = builtin_registry()
        sampler = ManifestSampler(self.CONDITION, registry, 7)
        events = sampler.take(sampler.total_steps)
        monkeypatch.setattr(threads, "_usable_cpus", lambda: cpus)
        manifest = generate_manifest(self.CONDITION, registry, 7)
        assert manifest.stages.tolist() == [event.stage for event in events]
        assert [manifest.dataset_names[i] for i in manifest.dataset_ids] == [event.dataset for event in events]
        assert manifest.instances.tolist() == [event.instance for event in events]

    def test_only_a_whole_manifest_draws_on_threads(self, monkeypatch):
        idents = []

        def block(*args):
            idents.append(threading.get_ident())
            return instance_block(*args)

        instance_block = sampling._instance_block
        monkeypatch.setattr(sampling, "_instance_block", block)
        sampler = ManifestSampler(self.CONDITION, builtin_registry(), 7)
        sampler.take(sampler._CHUNK + 1)
        next(iter(sampler))
        assert set(idents) == {threading.get_ident()}
        idents.clear()
        generate_manifest(self.CONDITION, builtin_registry(), 7)
        assert len(idents) == 6 and threading.get_ident() not in idents

    def test_a_pool_far_larger_than_its_draws_matches_the_oracle(self):
        registry = (DatasetSource("big", "D0-alignment", 200_000), DatasetSource("small", "D0-alignment", 3))
        mix = {"big": 0.5, "small": 0.5}
        cond = ScheduleCondition(id="few", stages=(StagePlan(1, 40, mix), StagePlan(2, 0, {"big": 1.0})))
        manifest = generate_manifest(cond, registry, 13)
        for rank, source in enumerate(registry):
            mine = manifest.instances[manifest.dataset_ids == rank].tolist()
            assert len(mine) >= 10
            assert mine == oracle_instances(13, rank, source.size, len(mine))

    @pytest.mark.parametrize("first", [0, 2500, 60999])
    def test_a_take_to_the_schedules_end_matches_the_manifest(self, first):
        registry = builtin_registry()
        manifest = generate_manifest(self.CONDITION, registry, 21)
        sampler = ManifestSampler(self.CONDITION, registry, 21)
        sampler.take(first)
        resumed = ManifestSampler.from_state(sampler.state())
        tail = list(itertools.islice(manifest.events(), first, None))
        assert sampler.take(sampler.events_remaining) == tail == resumed.take(resumed.events_remaining)


# The six built-in dataset names with pools so small that every dataset
# refills its pool 40 times or more within TINY_STEPS, in every condition.
TINY_REGISTRY = (
    DatasetSource("LLaVA-Pretrain", "D0-alignment", 50),
    DatasetSource("ShareGPT4V", "D1-general", 7),
    DatasetSource("AI2D", "D2-reasoning", 1),
    DatasetSource("ChartQA", "D2-reasoning", 2),
    DatasetSource("TextVQA", "D3-ocr", 3),
    DatasetSource("DocVQA", "D3-ocr", 17),
)
TINY_STEPS = (2000, 9000, 9000)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tiny_manifest_digest(cond_id: str, seed: int, directory) -> str:
    path = Path(directory) / f"{cond_id}.jsonl"
    write_manifest(generate_manifest(builtin_condition(cond_id, TINY_STEPS), TINY_REGISTRY, seed), path)
    return _sha256(path.read_bytes())


def tiny_resume_digest(seed: int) -> str:
    """Events of a sampler resumed at step 6000 (stage 2) and run 5000 steps on."""
    first = ManifestSampler(builtin_condition("D", TINY_STEPS), TINY_REGISTRY, seed)
    first.take(6000)
    resumed = ManifestSampler.from_state(json.loads(json.dumps(first.state())))
    events = [list(event) for event in resumed.take(5000)]
    return _sha256(json.dumps(events, separators=(",", ":")).encode())


class TestFrozenBytes:
    """sha256 of outputs written before permutations moved off the stable
    sort; any change to how a pool is permuted changes them."""

    MANIFESTS = {
        "A": "f95801aa6ef65d2d1aebd5eb56c39d821997f7f6fa9cd56e99688299bd08ab3d",
        "B": "6fb51650cc5c7c582cf912a279d9fb126b492cbadf7605a00bc40b8ea42b8fbc",
        "C": "3e136b362242c58bf55373754ccbe836481a0091701447ba060074e87dbe5dda",
        "D": "15fca31c8a060818c92309a08a8b1e38f1d26100f48d698e10db13d5cb56eff3",
    }
    RESUMED_TAKE = "5f22703429c26474991829775b0811d4cedcf72acc1dde01d3b98216f506724e"

    @pytest.mark.parametrize("cond_id", sorted(MANIFESTS))
    def test_tiny_pool_manifest_bytes(self, cond_id, tmp_path):
        assert tiny_manifest_digest(cond_id, 5, tmp_path) == self.MANIFESTS[cond_id]

    def test_resumed_take_across_refills(self):
        assert tiny_resume_digest(5) == self.RESUMED_TAKE


class TestChoiceStream:
    def test_zero_probability_dataset_never_chosen(self):
        cond = ScheduleCondition(
            id="z",
            stages=(
                StagePlan(1, 1, {"alpha": 1.0}),
                StagePlan(2, 5000, {"beta": 1.0, "gamma": 0.0}),
            ),
        )
        manifest = generate_manifest(cond, TOY_REGISTRY, 31)
        assert "gamma" not in {e.dataset for e in manifest.events()}

    def test_probabilities_summing_just_below_one_are_safe(self):
        # ten 0.1 floats sum to 0.9999999999999999; the final boundary is pinned
        names = [f"d{i}" for i in range(10)]
        registry = tuple(DatasetSource(n, "D1-general", 3) for n in names) + (
            DatasetSource("seed", "D0-alignment", 3),
        )
        cond = ScheduleCondition(
            id="ten",
            stages=(
                StagePlan(1, 1, {"seed": 1.0}),
                StagePlan(2, 20_000, {n: 0.1 for n in names}),
            ),
        )
        manifest = generate_manifest(cond, registry, 8)
        seen = {e.dataset for e in manifest.events() if e.stage == 2}
        assert seen == set(names)

    def test_choices_are_positional_not_history_dependent(self):
        """One choice word per global step, addressed by step index: what stage 1
        sampled cannot influence which datasets stage 2 picks."""
        registry = TOY_REGISTRY + (DatasetSource("delta", "D0-alignment", 2),)
        stage2 = StagePlan(2, 50, {"beta": 0.5, "gamma": 0.5})
        on_alpha = ScheduleCondition(id="x", stages=(StagePlan(1, 3, {"alpha": 1.0}), stage2))
        on_delta = ScheduleCondition(id="x", stages=(StagePlan(1, 3, {"delta": 1.0}), stage2))
        a = [e for e in generate_manifest(on_alpha, registry, 55).events() if e.stage == 2]
        b = [e for e in generate_manifest(on_delta, registry, 55).events() if e.stage == 2]
        assert a == b


class TestEmpiricalDistribution:
    def test_stage_frequencies(self):
        manifest = generate_manifest(TOY_CONDITION, TOY_REGISTRY, 7)
        dist = empirical_distribution(manifest, 2)
        assert dist == {"beta": 6 / 8, "gamma": 2 / 8}

    def test_zero_step_stage_yields_empty(self):
        cond = ScheduleCondition(
            id="z",
            stages=(
                StagePlan(1, 5, {"alpha": 1.0}),
                StagePlan(2, 0, {"beta": 1.0}),
                StagePlan(3, 5, {"beta": 1.0}),
            ),
        )
        manifest = generate_manifest(cond, TOY_REGISTRY, 1)
        assert empirical_distribution(manifest, 2) == {}

    def test_unknown_stage_is_an_error(self):
        manifest = generate_manifest(TOY_CONDITION, TOY_REGISTRY, 7)
        with pytest.raises(ValueError, match="not part of this manifest"):
            empirical_distribution(manifest, 9)


class TestInputChecks:
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "7"])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            generate_manifest(TOY_CONDITION, TOY_REGISTRY, seed)

    def test_invalid_condition_rejected(self):
        bad = ScheduleCondition(
            id="bad",
            stages=(StagePlan(1, 4, {"beta": 1.0}), StagePlan(2, 4, {"beta": 1.0})),
        )
        with pytest.raises(InvalidScheduleError):
            generate_manifest(bad, TOY_REGISTRY, 0)

    def test_exhausted_sampler_raises(self):
        sampler = ManifestSampler(TOY_CONDITION, TOY_REGISTRY, 7)
        sampler.take(sampler.total_steps)
        assert sampler.events_remaining == 0
        with pytest.raises(ValueError, match="exhausted"):
            sampler.next_event()

    @pytest.mark.parametrize("count", [-1, 1.5, True, "3", None])
    def test_take_rejects_bad_counts(self, count):
        sampler = ManifestSampler(TOY_CONDITION, TOY_REGISTRY, 7)
        sampler.next_event()
        with pytest.raises(ValueError, match="count"):
            sampler.take(count)
        assert [tuple(e) for e in sampler.take(11)] == GOLDEN_EVENTS_SEED7[1:]

    def test_take_beyond_the_end_consumes_nothing(self):
        sampler = ManifestSampler(TOY_CONDITION, TOY_REGISTRY, 7)
        sampler.next_event()
        sampler.take(4)
        with pytest.raises(ValueError, match="exhausted"):
            sampler.take(8)
        assert sampler.next_step == 5
        assert [tuple(e) for e in sampler.take(7)] == GOLDEN_EVENTS_SEED7[5:]

    def test_iteration_stops_at_schedule_end(self):
        sampler = ManifestSampler(TOY_CONDITION, TOY_REGISTRY, 7)
        assert len(list(sampler)) == 12
