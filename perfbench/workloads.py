"""The benchmark workloads: input preparation, timed operations and output checks.

Each workload is a closed loop with one caller: an iteration runs its
operations back to back, each timed alone with `perf_counter`, and checks
every output after the clock stops. `prepare` runs in the parent process: it
writes the inputs and builds the check references (digests and small
arrays), so that the measured worker process holds as little checker state
as it can and its peak RSS stays the workload's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs


# The built-in condition every manifest workload runs.
CONDITION = "A"


@dataclass(frozen=True)
class ManifestConfig:
    steps: tuple[int, int, int] = (50, 499_975, 499_975)
    resume_step: int = 450_000
    resume_events: int = 100_000


@dataclass(frozen=True)
class AnalyzeConfig:
    records: int
    stages: int
    window: int
    spikes: int
    plateau: int  # records of one repeated loss value
    simulate_steps: int  # steps of the `simulate loss` spec
    stream: int  # trailing losses pushed through RollingWindow


WORKLOADS = {
    "manifest-1m": ManifestConfig(),
    "analyze-1m-w50": AnalyzeConfig(
        records=1_000_000, stages=3, window=50, spikes=200, plateau=2500,
        simulate_steps=1_000_000, stream=20_000,
    ),
}


def _file_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def _array_digest(*columns, dtype=np.int64) -> str:
    """Digest of the columns' values, bit for bit, as `dtype`."""
    h = hashlib.sha256()
    for column in columns:
        data = np.asarray(column, dtype=dtype)
        h.update(b"%d:" % len(data) + data.tobytes())
    return h.hexdigest()


# -- preparation (parent process) -------------------------------------------------


def prepare(config, workdir: Path, seed: int) -> dict:
    """Write the workload's inputs into `workdir` and return the plan for the
    worker: input paths, the references its checks compare against, and the
    `input_errors` found by the checks that run once on the inputs."""
    if isinstance(config, ManifestConfig):
        from stagemix.sampling import generate_manifest
        from stagemix.schedule import builtin_condition, builtin_registry

        cond = builtin_condition(CONDITION, config.steps)
        registry = builtin_registry()
        m = generate_manifest(cond, registry, seed)
        state = workdir / "resume_state.json"
        inputs.resume_state(state, m, cond, registry, config.resume_step)
        cut = slice(config.resume_step, config.resume_step + config.resume_events)
        return {
            "seed": seed,
            "state": str(state),
            "input_errors": [],
            "facts": {},
            "events": len(m),
            "dataset_names": list(m.dataset_names),
            "manifest_digest": _array_digest(m.steps, m.stages, m.dataset_ids, m.instances),
            "resume_digest": _array_digest(m.steps[cut], m.stages[cut], m.dataset_ids[cut], m.instances[cut]),
        }
    log = inputs.loss_log(
        workdir / "loss.jsonl", seed, config.records, config.stages, config.window,
        config.spikes, config.plateau,
    )
    spec = inputs.simulate_spec(workdir / "sim_spec.json", seed, config.simulate_steps)
    return {
        "seed": seed,
        "log": str(log.path),
        "spec": str(workdir / "sim_spec.json"),
        "injections": [inj["step"] for inj in spec["injections"]],
        **_analyze_references(config, log),
    }


# Oracle decisions closer to the spike threshold than this share of
# max|loss| * window are knife-edges that float rounding may decide either
# way; windows inside a flat plateau (margin exactly 0) are among them. On
# the benchmark logs the oracle's margin is off by under 1/100 of this.
KNIFE_EDGE = 1e-8


def oracle_decisions(losses: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Spike decisions from running sums, independent of the library kernel.

    Returns (spike, knife) boolean arrays over the len - window + 1 windows.
    """
    shift = losses[0]
    y = losses - shift
    c1 = np.concatenate(([0.0], np.cumsum(y)))
    c2 = np.concatenate(([0.0], np.cumsum(y * y)))
    mean = (c1[window:] - c1[:-window]) / window
    std = np.sqrt(np.maximum((c2[window:] - c2[:-window]) / window - mean * mean, 0.0))
    newest = y[window - 1 :]
    margin = np.abs(newest - mean) - 2.0 * std
    scale = np.abs(losses).max() * window
    return margin > 0, np.abs(margin) <= KNIFE_EDGE * scale


def _analyze_references(config: AnalyzeConfig, log: inputs.LossLog) -> dict:
    """Library spike decisions against the oracle and the planted spikes, and
    what the worker's per-iteration checks compare against."""
    from stagemix.dynamics import LossTrace, detect_spikes, window_stats

    c = config
    errors = []
    trace = LossTrace(steps=log.steps, stages=log.stages, losses=log.losses)
    report = detect_spikes(trace, c.window)
    found = report.indicators
    start, stop = log.plateau
    flat = slice(start, stop - c.window + 1)
    if found[flat].any() or report.stats.stds[flat].any():
        errors.append("windows inside the flat plateau have nonzero std or spikes")
    spike, knife = oracle_decisions(log.losses, c.window)
    disagree = (found != spike) & ~knife
    if disagree.any():
        at = int(log.steps[c.window - 1 :][disagree][0])
        errors.append(f"{int(disagree.sum())} spike decisions differ from the oracle, first at step {at}")
    flagged = set(log.steps[c.window - 1 :][found].tolist())
    missed = set(log.spike_steps) - flagged
    if missed:
        errors.append(f"{len(missed)} planted spikes not recalled, e.g. step {min(missed)}")
    tail = slice(-c.stream, None)
    batch = window_stats(LossTrace(steps=log.steps[tail], stages=log.stages[tail], losses=log.losses[tail]), c.window)
    return {
        "input_errors": errors,
        "spikes": int(found.sum()),
        "facts": {"knife_edges": int(knife.sum()), "spikes": int(found.sum()), "planted": len(log.spike_steps)},
        "tail": log.losses[tail].tolist(),
        "stream_digest": _array_digest(batch.means, batch.stds, dtype=np.float64),
    }


# -- measured runners (worker process) ---------------------------------------------


def _cli(argv) -> tuple[int, str]:
    from stagemix import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


class _Runner:
    """Shared bookkeeping: first-iteration digests that later ones must repeat."""

    def __init__(self, config, plan: dict):
        self.config = config
        self.plan = plan
        self._digests = {}

    def _same_as_first(self, key: str, digest: str, errors: list) -> None:
        first = self._digests.setdefault(key, digest)
        if digest != first:
            errors.append(f"{key} bytes differ from the first iteration")


class ManifestRunner(_Runner):
    """manifest-1m: `stagemix manifest`, `read_manifest`, resume + take."""

    def __init__(self, config: ManifestConfig, plan: dict, workdir: Path):
        super().__init__(config, plan)
        self.state = json.loads(Path(plan["state"]).read_text(encoding="utf-8"))
        self.out = workdir / "manifest.jsonl"
        self.records = {
            "manifest_write": plan["events"],
            "manifest_read": plan["events"],
            "resume": config.resume_events,
        }

    def iteration(self) -> tuple[dict, list]:
        from stagemix import formats
        from stagemix.sampling import ManifestSampler

        c, p = self.config, self.plan
        argv = ["manifest", "--condition", CONDITION, "--steps", ",".join(map(str, c.steps)),
                "--seed", str(p["seed"]), "--out", str(self.out)]
        self.out.unlink(missing_ok=True)  # a fresh file each time, not a truncated one
        t0 = perf_counter()
        code, said = _cli(argv)
        t1 = perf_counter()
        read = formats.read_manifest(self.out)
        t2 = perf_counter()
        events = ManifestSampler.from_state(self.state).take(c.resume_events)
        t3 = perf_counter()
        times = {"manifest_write": t1 - t0, "manifest_read": t2 - t1, "resume": t3 - t2}

        errors = []
        names = p["dataset_names"]
        if code != 0 or f"wrote {p['events']} events" not in said:
            errors.append(f"manifest exited {code}: {said.strip()!r}")
        self._same_as_first("manifest", _file_digest(self.out), errors)
        lut = np.array([names.index(n) for n in read.dataset_names], dtype=np.int64)
        digest = _array_digest(read.steps, read.stages, lut[read.dataset_ids], read.instances)
        if len(read) != p["events"] or digest != p["manifest_digest"]:
            errors.append("read_manifest arrays differ from generate_manifest")
        got = np.array([(e.step, e.stage, names.index(e.dataset), e.instance) for e in events], dtype=np.int64)
        if len(events) != c.resume_events or _array_digest(*got.T) != p["resume_digest"]:
            errors.append("resumed events differ from the batch manifest slice")
        return times, errors


class AnalyzeRunner(_Runner):
    """analyze-1m-w50: `stagemix analyze`, `simulate loss`, RollingWindow pushes."""

    def __init__(self, config: AnalyzeConfig, plan: dict, workdir: Path):
        super().__init__(config, plan)
        self.report = workdir / "report.out"
        self.sim_out = workdir / "sim.jsonl"
        self.records = {"analyze": config.records, "simulate": config.simulate_steps, "stream_push": config.stream}

    def iteration(self) -> tuple[dict, list]:
        from stagemix.dynamics import RollingWindow

        c = self.config
        argv = ["analyze", "--trace", self.plan["log"], "--window", str(c.window),
                "--format", "data", "--out", str(self.report)]
        times = {}
        for path in (self.report, self.sim_out):
            path.unlink(missing_ok=True)  # fresh files each time, not truncated ones
        t0 = perf_counter()
        code, said = _cli(argv)
        times["analyze"] = perf_counter() - t0
        t0 = perf_counter()
        sim_code, sim_said = _cli(["simulate", "loss", "--spec", self.plan["spec"], "--out", str(self.sim_out)])
        times["simulate"] = perf_counter() - t0
        rolling = RollingWindow(c.window)
        means, stds = [], []
        t0 = perf_counter()
        for value in self.plan["tail"]:
            rolling.push(value)
            means.append(rolling.mean)
            stds.append(rolling.std)
        times["stream_push"] = perf_counter() - t0

        errors = []
        if code != 0:
            errors.append(f"analyze exited {code}")
        else:
            self._check_report(errors)
        if sim_code != 0 or f"wrote {c.simulate_steps} loss records" not in sim_said:
            errors.append(f"simulate loss exited {sim_code}: {sim_said.strip()!r}")
        else:
            self._check_simulated(errors)
        ready = slice(c.window - 1, None)
        if _array_digest(means[ready], stds[ready], dtype=np.float64) != self.plan["stream_digest"]:
            errors.append("streaming mean/std are not bit-identical to window_stats")
        return times, errors

    def _check_report(self, errors: list) -> None:
        c = self.config
        windows = c.records - c.window + 1
        text = self.report.read_text(encoding="utf-8")
        self._same_as_first("report", hashlib.sha256(text.encode()).hexdigest(), errors)
        data = json.loads(text)
        got = (data["windows_tested"], data["spikes"])
        if got != (windows, self.plan["spikes"]):
            errors.append(f"report has (windows, spikes) {got}, expected {(windows, self.plan['spikes'])}")

    def _check_simulated(self, errors: list) -> None:
        """Determinism every time; layout and planted injections on the first
        file, read line by line so the check adds little to the peak RSS."""
        first = "simulated" not in self._digests
        self._same_as_first("simulated", _file_digest(self.sim_out), errors)
        if not first:
            return
        injections = set(self.plan["injections"])
        records, lines, whole = {}, 0, True
        with open(self.sim_out, "rb") as handle:
            for line in handle:
                if lines in injections:
                    records[lines] = json.loads(line)
                lines += 1
                whole = line.endswith(b"\n")
        steps = self.config.simulate_steps
        if lines != steps or not whole:
            errors.append(f"simulated log has {lines} lines, expected {steps}")
            return
        spec = json.loads(Path(self.plan["spec"]).read_text(encoding="utf-8"))
        half = spec["stages"][0]["steps"]
        for step in self.plan["injections"]:
            record = records[step]
            stage = spec["stages"][0] if step < half else spec["stages"][1]
            curve = stage["amplitude"] * np.exp(-(step - (0 if step < half else half)) / stage["tau"])
            if record["step"] != step or record["loss"] < curve + 6 * stage["noise"]:
                errors.append(f"simulated log misses the injection at step {step}")
                return


def runner(config, plan: dict, workdir: Path):
    cls = ManifestRunner if isinstance(config, ManifestConfig) else AnalyzeRunner
    return cls(config, plan, workdir)
