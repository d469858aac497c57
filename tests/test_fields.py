"""The shared rule for integers, numbers and names, and every parser that applies it."""

import ast
import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from stagemix import (
    CapabilityModelSpec,
    DatasetSource,
    FormatError,
    GENERATOR_ID,
    MANIFEST_FORMAT,
    LossTrace,
    LossTraceSpec,
    ManifestSampler,
    RollingWindow,
    ScheduleCondition,
    SimStage,
    StagePlan,
    UsageError,
    ValidationError,
    builtin_condition,
    builtin_registry,
    compare_exposure,
    generate_manifest,
    load_capability_spec,
    load_conditions,
    load_eval_log,
    load_loss_spec,
    load_registry,
    read_manifest,
    read_manifest_header,
    synth_capability,
    synth_loss,
    window_stats,
    write_manifest,
)
from stagemix import fields

PACKAGE = Path(fields.__file__).parent

REGISTRY = (DatasetSource("alpha", "D0-alignment", 5), DatasetSource("beta", "D1-general", 4))
CONDITION = ScheduleCondition(
    id="toy", stages=(StagePlan(1, 3, {"alpha": 1.0}), StagePlan(2, 6, {"alpha": 0.5, "beta": 0.5}))
)


def _sampler_state():
    sampler = ManifestSampler(CONDITION, REGISTRY, 7)
    sampler.take(4)
    return json.loads(json.dumps(sampler.state()))


# Each parser: a valid document and how to parse it, from a file where the parser reads one.
DOCUMENTS = {
    "condition": {
        "id": "X",
        "stages": [
            {"index": 1, "steps": 10, "distribution": {"LLaVA-Pretrain": 1.0}},
            {"index": 2, "steps": 10, "distribution": {"ShareGPT4V": 1.0}},
        ],
    },
    "registry": {"datasets": [{"name": "alpha", "group": "D0-alignment", "size": 5}]},
    "sampler state": _sampler_state(),
    "loss spec": {
        "stages": [{"index": 1, "steps": 10, "amplitude": 1.0, "tau": 5.0, "noise": 0.0}],
        "injections": [{"step": 2, "multiplier": 3.0}],
        "log_interval": 1,
        "seed": 3,
    },
    "capability spec": {
        "model": {
            "baseline": 40.0,
            "ceiling": 80.0,
            "scale": 1500.0,
            "noise": 0.0,
            "eval_interval": 100,
            "weights": {"general": {"D1-general": 1.0}},
        },
        "seed": 3,
    },
    "eval log": {"step": 100, "task": "AI2D", "score": 50.0},
    # a manifest of no events: its header alone
    "manifest": {
        "format": MANIFEST_FORMAT,
        "condition": "X",
        "seed": 3,
        "registry_digest": "0" * 64,
        "generator": GENERATOR_ID,
        "stage_steps": {"1": 0},
    },
}
DOCUMENTS["manifest header"] = DOCUMENTS["manifest"]

LOADERS = {
    "condition": ("schedule.json", load_conditions),
    "registry": ("registry.json", load_registry),
    "loss spec": ("spec.json", load_loss_spec),
    "capability spec": ("cap.json", load_capability_spec),
    "eval log": ("evals.jsonl", load_eval_log),
    "manifest": ("manifest.jsonl", read_manifest),
    "manifest header": ("manifest.jsonl", read_manifest_header),
}

# (parser, path to the field, the value just outside its range)
INTEGER_FIELDS = [
    ("condition", ("stages", 1, "index"), 2**63),
    ("condition", ("stages", 1, "steps"), 2**63),
    ("registry", ("datasets", 0, "size"), 2**63),
    ("sampler state", ("seed",), 2**64),
    ("sampler state", ("next_step",), 2**63),
    ("sampler state", ("draws", "beta"), 2**63),
    ("loss spec", ("stages", 0, "index"), 2**63),
    ("loss spec", ("stages", 0, "steps"), 2**63),
    ("loss spec", ("injections", 0, "step"), 2**63),
    ("loss spec", ("log_interval",), 2**63),
    ("loss spec", ("seed",), -1),
    ("capability spec", ("model", "eval_interval"), 2**63),
    ("capability spec", ("seed",), -1),
    ("eval log", ("step",), 2**63),
    ("manifest", ("seed",), 2**64),
    ("manifest header", ("seed",), 2**64),
]

NUMBER_FIELDS = [
    ("condition", ("stages", 1, "distribution", "ShareGPT4V")),
    ("loss spec", ("stages", 0, "amplitude")),
    ("loss spec", ("stages", 0, "tau")),
    ("loss spec", ("stages", 0, "noise")),
    ("loss spec", ("injections", 0, "multiplier")),
    ("capability spec", ("model", "baseline")),
    ("capability spec", ("model", "ceiling")),
    ("capability spec", ("model", "scale")),
    ("capability spec", ("model", "noise")),
    ("capability spec", ("model", "weights", "general", "D1-general")),
]

STRING_FIELDS = [
    (parser, (key,))
    for parser in ("manifest", "manifest header")
    for key in ("condition", "registry_digest", "generator")
]


def _parse(tmp_path, parser, document):
    if parser == "sampler state":
        return ManifestSampler.from_state(document)
    name, load = LOADERS[parser]
    path = tmp_path / name
    if parser == "eval log":
        path.write_text('{"step": 100, "task": "ChartQA", "score": 50.0}\n' + json.dumps(document) + "\n")
    else:
        path.write_text(json.dumps(document))
    return load(path)


def _with(document, where, value):
    document = copy.deepcopy(document)
    target = document
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    return document


@pytest.mark.parametrize("parser", sorted(DOCUMENTS))
def test_the_valid_documents_parse(tmp_path, parser):
    _parse(tmp_path, parser, DOCUMENTS[parser])


_CASES = [
    pytest.param(parser, where, value, id=f"{parser}-{'.'.join(map(str, where))}-{value!r}")
    for parser, where, big in INTEGER_FIELDS
    for value in (1.5, True, "3", big)
] + [
    pytest.param(parser, where, value, id=f"{parser}-{'.'.join(map(str, where))}-{value!r:.12}")
    for parser, where in NUMBER_FIELDS
    for value in (True, "3", 10**400)
] + [
    pytest.param(parser, where, value, id=f"{parser}-{where[0]}-{value!r}")
    for parser, where in STRING_FIELDS
    for value in (5, None, [1])
]


@pytest.mark.parametrize("parser, where, value", _CASES)
def test_a_wrong_field_is_a_format_error_naming_it(tmp_path, parser, where, value):
    with pytest.raises(FormatError) as caught:
        _parse(tmp_path, parser, _with(DOCUMENTS[parser], where, value))
    message = str(caught.value)
    assert str(where[-1]) in message
    if parser in LOADERS:
        assert message.startswith(str(tmp_path / LOADERS[parser][0]) + ": ")


def test_numpy_integers_are_integers(tmp_path):
    trace = LossTrace(
        steps=np.arange(8, dtype=np.int64),
        stages=np.ones(8, dtype=np.int64),
        losses=np.array([3.0, 2.0, 2.5, 1.0, 1.5, 0.5, 0.75, 0.25]),
    )
    stats = window_stats(trace, np.int64(3))
    assert type(stats.window) is int
    assert stats.stds.tobytes() == window_stats(trace, 3).stds.tobytes()
    rolling = RollingWindow(np.int32(3))
    assert type(rolling.window) is int and rolling.window == 3
    cond = builtin_condition("A", np.array([2, 5, 5]))
    assert [type(stage.steps) for stage in cond.stages] == [int, int, int]
    assert cond == builtin_condition("A", (2, 5, 5))
    manifest = generate_manifest(cond, builtin_registry(), np.uint64(2**64 - 1))
    assert type(manifest.seed) is int
    path = tmp_path / "run.jsonl"
    write_manifest(manifest, path)
    assert read_manifest_header(path)["seed"] == 2**64 - 1
    assert json.loads(path.read_text().splitlines()[0]) == manifest.header()


@pytest.mark.parametrize(
    "value, bounds, message",
    [
        (True, {}, "x must be an integer, got True"),
        (2**63, {}, "x must be an integer that fits int64, got 9223372036854775808"),
        (-(2**63) - 1, {}, "x must be an integer that fits int64"),
        (-1, {"low": 0}, "x must be a non-negative integer, got -1"),
        (0, {"low": 1}, "x must be a positive integer, got 0"),
        (2**64, {"low": 0, "high": 2**64}, "x must be a non-negative integer below 2**64"),
        (10**400, {"low": 0, "high": None}, None),
        (np.int8(-3), {}, None),
    ],
)
def test_integer_rule(value, bounds, message):
    found = fields.problem(value, "x", int, **bounds)
    assert found is None if message is None else found.startswith(message)


@pytest.mark.parametrize(
    "value, non_negative, ok",
    [
        (1, False, True),
        (np.float32(0.5), False, True),
        (math.nan, False, True),
        (True, False, False),
        (10**400, False, False),
        (2**1023, True, True),
        (math.inf, True, False),
        (math.nan, True, False),
        (-0.0, True, True),
        (-1e-300, True, False),
    ],
)
def test_number_rule(value, non_negative, ok):
    assert (fields.problem(value, "x", float, non_negative=non_negative) is None) == ok


def test_check_returns_the_plain_value():
    assert type(fields.check(np.int64(4), "x")) is int
    assert type(fields.check(3, "x", float)) is float
    assert fields.check("", "x", str) == ""
    with pytest.raises(FormatError, match="x must be a non-empty string, got ''"):
        fields.check("", "x", str, FormatError, empty=False)
    assert fields.problem("y" * 100, "x").endswith("got 'yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy...")


def test_read_names_every_required_key():
    with pytest.raises(FormatError, match="^here needs a/b$"):
        fields.read({"a": 1}, "here", {"a": int, "b": float, "c": str}, c="")
    with pytest.raises(FormatError, match="^here must be an object, got \\[1\\]$"):
        fields.read([1], "here", {"a": int})
    assert fields.read({"a": np.int64(1), "b": 2}, "here", {"a": int, "b": float}, c="") == {"a": 1, "b": 2.0}


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.1, True])
def test_warn_threshold_must_be_a_finite_non_negative_number(threshold):
    with pytest.raises(ValueError, match="warn threshold must be a finite non-negative number"):
        compare_exposure([builtin_condition("A", (1, 1, 1))], warn_threshold=threshold)


def test_negative_simulation_seeds_are_refused():
    spec = LossTraceSpec(stages=(SimStage(1, 10, 1.0, 5.0, 0.1),))
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -2$"):
        synth_loss(spec, seed=-2)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
        synth_loss(LossTraceSpec(stages=spec.stages, seed=-3))
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        synth_capability(builtin_condition("A", (1, 1, 1)), seed=-1)
    assert synth_loss(spec, seed=np.int64(5)).trace.losses.tobytes() == synth_loss(spec, seed=5).trace.losses.tobytes()


@pytest.mark.parametrize("key", ["baseline", "ceiling", "scale", "noise"])
def test_capability_model_numbers_are_not_bools(key):
    with pytest.raises(ValidationError, match=f"^{key} must be a finite non-negative number, got True$"):
        synth_capability(builtin_condition("A", (1, 1, 1)), CapabilityModelSpec(**{key: True}))


def _bool_type_tests(tree):
    """isinstance calls whose type argument names bool."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            if any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1])):
                yield node.lineno


def test_only_the_fields_module_tests_for_bool():
    """One rule: no other module decides for itself whether a bool counts as an integer."""
    found = {
        path.name: list(_bool_type_tests(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert found.pop("fields.py"), "the detector no longer finds the rule it guards"
    assert {name: lines for name, lines in found.items() if lines} == {}


def _machine_with(monkeypatch, memory: int) -> None:
    sizes = {"SC_PHYS_PAGES": memory // 4096, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(fields.os, "sysconf", sizes.__getitem__)


def test_a_budget_is_refused_only_beyond_the_machine_memory(monkeypatch):
    _machine_with(monkeypatch, 8 << 30)
    fields.check_budget(1 << 28, 32, "steps")  # exactly 8 GiB
    message = "^268435457 steps need about 8.0 GiB of memory, more than this machine's 8.0 GiB$"
    with pytest.raises(UsageError, match=message):
        fields.check_budget((1 << 28) + 1, 32, "steps")


def test_no_budget_is_refused_where_the_memory_is_unknown(monkeypatch):
    def unknown(name):
        raise ValueError(name)

    monkeypatch.setattr(fields.os, "sysconf", unknown)
    fields.check_budget(10**30, 1024, "steps")


def test_every_simulator_and_the_sampler_check_their_budget_first(monkeypatch):
    """On a machine of 1 MiB: a run whose output alone needs more is refused, and a sampler taking
    events a chunk at a time is not."""
    _machine_with(monkeypatch, 1 << 20)
    big = ScheduleCondition("big", (StagePlan(1, 10_000, {"alpha": 1.0}), StagePlan(2, 30_000, {"beta": 1.0})))
    with pytest.raises(UsageError, match="^40000 manifest steps need"):
        generate_manifest(big, REGISTRY, seed=1)
    with pytest.raises(UsageError, match="^30000 simulated loss steps need"):
        synth_loss(LossTraceSpec(stages=(SimStage(1, 30_000, 1.0, 10.0),)))
    with pytest.raises(UsageError, match="^2001 evaluation snapshots need"):
        synth_capability(builtin_condition("A", (1000, 500, 500)), CapabilityModelSpec(eval_interval=1))
    assert len(ManifestSampler(big, REGISTRY, seed=1).take(40_000)) == 40_000
