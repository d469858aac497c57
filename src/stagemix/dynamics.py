"""Loss-curve stability analytics: windowed statistics, spike detection, transitions.

All windowed quantities slide over logged records in order, not over raw step
numbers, so irregular logging intervals shrink no window; `gap_report` makes
the irregularity visible instead. A window of size u ending at logged position
t covers positions t - u + 1 .. t inclusive. Its mean and population standard
deviation (divide by u) classify the newest point only: position t is a spike
when its loss lies strictly outside mean +/- 2 std of its own window. A trace
of T records therefore yields exactly T - u + 1 decisions.

The window kernel costs O(T) whatever u is (the block trick of van Herk,
1992). The loss column is cut into blocks of u records, and each block is
shifted by its own first value. A window starting at offset j of block b is
the suffix of block b from j plus the prefix of block b + 1 up to j - 1 (the
whole of block b when j == 0). Per block, cumulative sums of the shifted
values and their squares give every prefix and suffix; `_merge` joins a
window's two parts with the pairwise update of Chan, Golub & LeVeque (1983).
Flat windows are exact: a window with no change of value has std exactly 0.0
and mean exactly its shared value, so float error cannot conjure a nonzero
threshold width out of a flat window.

The streaming RollingWindow runs the same arithmetic in the same order: it
sums the block being filled as it arrives and takes the suffix sums of each
completed block with the same numpy call as window_stats, so each push is
O(1) amortised and its mean and std are bit-identical to the batch ones, not
merely close. `_window_mean_std`, the direct two-pass formula, serves
`global_std` and is the reference the kernel is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .errors import TraceError

DEFAULT_WINDOW = 50
SPIKE_SIGMA = 2.0

# Float64 cells of kernel temporaries per chunk (~32 MB) regardless of window
# size. The block kernel holds about _CHUNK_TEMPORARIES arrays as long as its
# chunk, so a chunk spans _CHUNK_CELLS // _CHUNK_TEMPORARIES records, rounded
# down to whole blocks (at least one).
_CHUNK_CELLS = 4_000_000
_CHUNK_TEMPORARIES = 16


@dataclass(frozen=True)
class LossTrace:
    """A logged training-loss series: per record a global step, stage index, loss."""

    steps: np.ndarray
    stages: np.ndarray
    losses: np.ndarray

    def __len__(self) -> int:
        return len(self.steps)

    def validate(self) -> None:
        if not (np.ndim(self.steps) == np.ndim(self.stages) == np.ndim(self.losses) == 1):
            raise TraceError("loss trace arrays must be one-dimensional")
        if len(self.steps) == 0:
            raise TraceError("loss trace is empty")
        if not (len(self.steps) == len(self.stages) == len(self.losses)):
            raise TraceError("loss trace arrays have mismatched lengths")
        diffs = np.diff(self.steps)
        if len(diffs) and diffs.min() <= 0:
            at = int(np.argmax(diffs <= 0))
            raise TraceError(
                f"steps must be strictly increasing; record {at + 1} has step"
                f" {int(self.steps[at + 1])} after {int(self.steps[at])}"
            )
        stage_diffs = np.diff(self.stages)
        if len(stage_diffs) and stage_diffs.min() < 0:
            at = int(np.argmax(stage_diffs < 0))
            raise TraceError(
                f"stages must be non-decreasing; record {at + 1} has stage"
                f" {int(self.stages[at + 1])} after {int(self.stages[at])}"
            )
        if self.stages.min() < 1:
            raise TraceError(f"stage indices must be >= 1, got {int(self.stages.min())}")
        if not np.isfinite(self.losses).all():
            at = int(np.argmin(np.isfinite(self.losses)))
            raise TraceError(f"loss at step {int(self.steps[at])} is not finite")


def _window_mean_std(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mean and population std of a 2-D block, flat rows forced exact."""
    mean = block.mean(axis=1)
    centered = block - mean[:, None]
    std = np.sqrt((centered * centered).mean(axis=1))
    flat = block.max(axis=1) == block.min(axis=1)
    mean = np.where(flat, block[:, 0], mean)
    std = np.where(flat, 0.0, std)
    return mean, std


@dataclass(frozen=True)
class WindowStats:
    """Mean/std of every length-`window` window, labeled by window-end step."""

    window: int
    steps: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def __len__(self) -> int:
        return len(self.steps)


def _check_window(window: int, length: int, name: str = "window") -> int:
    window = fields.check(window, name, low=1)
    if window > length:
        raise ValueError(f"{name} {window} exceeds the trace length {length}")
    return window


def _suffix_sums(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of y and y*y from each position to the end of its block (last axis)."""
    return (
        np.cumsum(y[..., ::-1], axis=-1)[..., ::-1],
        np.cumsum((y * y)[..., ::-1], axis=-1)[..., ::-1],
    )


def _whole(shift, s, q, window):
    """Mean and M2 of one whole block from its shifted sum s and square sum q."""
    return shift + s / window, q - s * (s / window)


def _merge(shift_a, s_a, q_a, n_a, shift_b, s_b, q_b, n_b, window):
    """Mean and M2 of two adjacent parts, each given by its shift and the
    sums of its shifted values and squares (Chan, Golub & LeVeque 1983).

    Both the batch and the streaming kernel call this, on arrays and on
    floats, so the two evaluate the same operations in the same order.
    """
    m_a = s_a / n_a
    m_b = s_b / n_b
    delta = (shift_b - shift_a) + (m_b - m_a)
    mean = shift_a + (m_a + delta * n_b / window)
    m2 = (q_a - s_a * m_a) + (q_b - s_b * m_b) + delta * delta * n_a * n_b / window
    return mean, m2


def _block_window_stats(x: np.ndarray, window: int, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean/std of the windows starting in the first `blocks` blocks of x.

    x holds those blocks plus the block after them, whose prefixes complete
    the windows; x may end early, and windows reaching past it are garbage.
    """
    padded = np.zeros((blocks + 1) * window)
    padded[: len(x)] = x
    grid = padded.reshape(blocks + 1, window)
    shift = grid[:, 0]
    y = grid - shift[:, None]
    s, q = _suffix_sums(y[:-1])
    head = y[1:, :-1]
    p, pq = np.cumsum(head, axis=1), np.cumsum(head * head, axis=1)
    mean = np.empty((blocks, window))
    m2 = np.empty((blocks, window))
    mean[:, 0], m2[:, 0] = _whole(shift[:-1], s[:, 0], q[:, 0], window)
    j = np.arange(1, window)
    mean[:, 1:], m2[:, 1:] = _merge(
        shift[:-1, None], s[:, 1:], q[:, 1:], window - j, shift[1:, None], p, pq, j, window
    )
    var = m2.ravel() / window
    std = np.sqrt(np.where(var > 0.0, var, 0.0))
    rows = blocks * window
    changes = np.concatenate(([0], np.cumsum(padded[1:] != padded[:-1])))
    flat = changes[window - 1 : window - 1 + rows] == changes[:rows]
    return np.where(flat, padded[:rows], mean.ravel()), np.where(flat, 0.0, std)


def window_stats(trace: LossTrace, window: int = DEFAULT_WINDOW) -> WindowStats:
    """Batch windowed statistics in O(N), chunked at block boundaries so
    temporaries stay bounded."""
    window = _check_window(window, len(trace))
    losses = trace.losses
    rows = len(losses) - window + 1
    means = np.empty(rows, dtype=np.float64)
    stds = np.empty(rows, dtype=np.float64)
    span = max(1, _CHUNK_CELLS // (_CHUNK_TEMPORARIES * window)) * window
    for start in range(0, rows, span):
        stop = min(start + span, rows)
        blocks = -(-(stop - start) // window)
        chunk = losses[start : start + (blocks + 1) * window]
        mean, std = _block_window_stats(chunk, window, blocks)
        means[start:stop], stds[start:stop] = mean[: stop - start], std[: stop - start]
    return WindowStats(window=window, steps=trace.steps[window - 1 :].copy(), means=means, stds=stds)


class RollingWindow:
    """Streaming counterpart of window_stats; outputs bit-identical values.

    Push values in logged order; once `window` values have arrived, each push
    updates mean/std for the window ending at that value. Values are cut
    into blocks of `window` as in window_stats: the running sums of the
    block being filled give the window's prefix part, and the suffix sums of
    the last completed block, taken once per block with the batch kernel's
    numpy call, give its suffix part. `_merge` joins them exactly as in the
    batch kernel, so each push is O(1) amortised and agrees with
    window_stats bit for bit. A window whose values are all equal has std
    exactly 0.0 and mean exactly its first value.
    """

    def __init__(self, window: int):
        self.window = fields.check(window, "window", low=1)
        self._count = 0
        self._last = None
        self._run = 0  # length of the run of equal values ending at self._last
        self._block = []  # the block being filled
        self._shift = self._sum = self._sq = 0.0
        self._prev = []  # the last completed block, with its shift and suffix sums
        self._prev_shift = 0.0
        self._suffix = self._suffix_sq = []
        self.mean = None
        self.std = None

    @property
    def ready(self) -> bool:
        return self._count >= self.window

    def push(self, value: float) -> bool:
        value = float(value)
        block = self._block
        self._run = self._run + 1 if value == self._last else 1
        self._last = value
        if not block:
            self._shift, self._sum, self._sq = value, 0.0, 0.0
        y = value - self._shift
        self._sum += y
        self._sq += y * y
        block.append(value)
        self._count += 1
        if not self.ready:
            return False
        w = self.window
        j = len(block)
        if j == w:
            s, q = _suffix_sums(np.array(block) - self._shift)
            self._prev, self._prev_shift = block, self._shift
            self._suffix, self._suffix_sq = s.tolist(), q.tolist()
            self._block = []
            first = block[0]
            mean, m2 = _whole(self._shift, self._suffix[0], self._suffix_sq[0], w)
        else:
            first = self._prev[j]
            mean, m2 = _merge(
                self._prev_shift, self._suffix[j], self._suffix_sq[j], w - j,
                self._shift, self._sum, self._sq, j, w,
            )
        if self._run >= w:
            self.mean, self.std = first, 0.0
        else:
            var = m2 / w
            self.mean, self.std = mean, math.sqrt(var) if var > 0.0 else 0.0
        return True


@dataclass(frozen=True)
class SpikeReport:
    """Spike decisions for every window of a trace."""

    window: int
    n_windows: int
    spike_steps: tuple[int, ...]
    frequency: float
    indicators: np.ndarray
    stats: WindowStats

    def as_dict(self) -> dict:
        return {
            "window": self.window,
            "windows_tested": self.n_windows,
            "spikes": len(self.spike_steps),
            "spike_steps": list(self.spike_steps),
            "spike_frequency": self.frequency,
        }


def detect_spikes(trace: LossTrace, window: int = DEFAULT_WINDOW) -> SpikeReport:
    """Flag every logged point lying strictly outside mean +/- 2 std of its window."""
    return _spike_report(trace, window_stats(trace, window))


def _spike_report(trace: LossTrace, stats: WindowStats) -> SpikeReport:
    window = stats.window
    tested = trace.losses[window - 1 :]
    width = SPIKE_SIGMA * stats.stds
    indicators = (tested > stats.means + width) | (tested < stats.means - width)
    spike_steps = tuple(int(s) for s in stats.steps[indicators])
    return SpikeReport(
        window=window,
        n_windows=len(stats),
        spike_steps=spike_steps,
        frequency=len(spike_steps) / len(stats),
        indicators=indicators,
        stats=stats,
    )


def spike_frequency(trace: LossTrace, window: int = DEFAULT_WINDOW) -> float:
    return detect_spikes(trace, window).frequency


def local_fluctuation(trace: LossTrace, window: int = DEFAULT_WINDOW) -> float:
    """Mean of the windowed std series: the "how noisy is this curve" scalar."""
    return float(window_stats(trace, window).stds.mean())


def global_std(trace: LossTrace) -> float:
    _, std = _window_mean_std(trace.losses[None, :])
    return float(std[0])


@dataclass(frozen=True)
class Transition:
    """One stage boundary, measured at the nearest logged records."""

    from_stage: int
    to_stage: int
    step_before: int
    step_after: int
    loss_before: float
    loss_after: float
    ratio: float


@dataclass(frozen=True)
class TransitionReport:
    transitions: tuple[Transition, ...]

    def max_abs_ratio(self) -> float:
        return max(abs(t.ratio) for t in self.transitions)

    def as_dict(self) -> dict:
        return {
            "transitions": [
                {
                    "from_stage": t.from_stage,
                    "to_stage": t.to_stage,
                    "step_before": t.step_before,
                    "step_after": t.step_after,
                    "loss_before": t.loss_before,
                    "loss_after": t.loss_after,
                    "ratio": t.ratio,
                }
                for t in self.transitions
            ],
            "max_abs_ratio": self.max_abs_ratio(),
        }


def stage_transition_ratio(trace: LossTrace) -> TransitionReport:
    """Relative loss change across each stage boundary.

    The boundary is measured at the last logged record of the earlier stage
    and the first logged record of the later one, so sparse logging widens the
    measurement gap rather than inventing values.
    """
    boundaries = np.flatnonzero(np.diff(trace.stages) != 0)
    if len(boundaries) == 0:
        raise ValueError("trace has a single stage; there is no transition to measure")
    transitions = []
    for i in boundaries:
        before = float(trace.losses[i])
        after = float(trace.losses[i + 1])
        if before == 0.0:
            raise ValueError(
                f"transition ratio undefined: loss at step {int(trace.steps[i])} is 0"
            )
        transitions.append(
            Transition(
                from_stage=int(trace.stages[i]),
                to_stage=int(trace.stages[i + 1]),
                step_before=int(trace.steps[i]),
                step_after=int(trace.steps[i + 1]),
                loss_before=before,
                loss_after=after,
                ratio=(after - before) / before,
            )
        )
    return TransitionReport(transitions=tuple(transitions))


@dataclass(frozen=True)
class GapReport:
    """Logging-interval regularity: windows ignore gaps, this reports them."""

    modal_spacing: int
    max_spacing: int
    irregular_count: int

    @property
    def regular(self) -> bool:
        return self.irregular_count == 0

    def as_dict(self) -> dict:
        return {
            "modal_spacing": self.modal_spacing,
            "max_spacing": self.max_spacing,
            "irregular_count": self.irregular_count,
            "regular": self.regular,
        }


def gap_report(trace: LossTrace) -> GapReport:
    diffs = np.diff(trace.steps)
    if len(diffs) == 0:
        return GapReport(modal_spacing=0, max_spacing=0, irregular_count=0)
    values, counts = np.unique(diffs, return_counts=True)
    modal = int(values[np.argmax(counts)])
    return GapReport(
        modal_spacing=modal,
        max_spacing=int(diffs.max()),
        irregular_count=int((diffs != modal).sum()),
    )


@dataclass(frozen=True)
class StabilitySummary:
    """The three stability indicators for one trace, plus their ingredients."""

    window: int
    spike_window: int
    loss_std: float
    global_loss_std: float
    spike_frequency: float
    n_windows: int
    n_spikes: int
    transition_stability: float | None
    transitions: tuple[Transition, ...]
    gaps: GapReport

    def as_dict(self) -> dict:
        return {
            "window": self.window,
            "spike_window": self.spike_window,
            "loss_std": self.loss_std,
            "global_loss_std": self.global_loss_std,
            "spike_frequency": self.spike_frequency,
            "windows_tested": self.n_windows,
            "spikes": self.n_spikes,
            "transition_stability": self.transition_stability,
            "transitions": TransitionReport(self.transitions).as_dict()["transitions"]
            if self.transitions
            else [],
            "gaps": self.gaps.as_dict(),
        }


def stability_summary(
    trace: LossTrace, window: int = DEFAULT_WINDOW, spike_window: int | None = None
) -> StabilitySummary:
    """Fluctuation, spike frequency, and transition stability in one pass.

    Fluctuation (loss std) is the mean windowed std; spike frequency uses its
    own window (same size by default); transition stability is the largest
    absolute relative loss change across a stage boundary, None for
    single-stage traces.

    Losses near the float64 limit can overflow the sums behind a statistic;
    then this raises TraceError rather than report a non-finite value.
    """
    if spike_window is None:
        spike_window = window
    window = _check_window(window, len(trace))
    spike_window = _check_window(spike_window, len(trace), name="spike window")
    with np.errstate(over="ignore", invalid="ignore"):
        fluctuation_stats = window_stats(trace, window)
        spike_stats = fluctuation_stats if spike_window == window else window_stats(trace, spike_window)
        spikes = _spike_report(trace, spike_stats)
        loss_std = float(fluctuation_stats.stds.mean())
        global_loss_std = global_std(trace)
    if np.any(np.diff(trace.stages) != 0):
        transition_report = stage_transition_ratio(trace)
        transitions = transition_report.transitions
        stability = transition_report.max_abs_ratio()
    else:
        transitions = ()
        stability = None
    statistics = (loss_std, global_loss_std, stability or 0.0)
    if not (np.isfinite(statistics).all() and np.isfinite(spike_stats.stds).all()):
        raise TraceError("losses are too large to summarize: a loss statistic overflows float64")
    return StabilitySummary(
        window=window,
        spike_window=spike_window,
        loss_std=loss_std,
        global_loss_std=global_loss_std,
        spike_frequency=spikes.frequency,
        n_windows=spikes.n_windows,
        n_spikes=len(spikes.spike_steps),
        transition_stability=stability,
        transitions=transitions,
        gaps=gap_report(trace),
    )
