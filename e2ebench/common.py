"""Shared pieces of the end-to-end benchmark: outcome bookkeeping, seeds,
percentiles, the guest-time clock and process memory."""

from __future__ import annotations

import resource
import statistics
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Dataset scale of every job (the paper's ``-h`` variant).
SCALE = 0.5


class Outcome:
    """What one run attempted, what failed, which checks failed, and its
    metrics. A failure or a failed check is recorded with its reason; the
    run goes on."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.check_failures: List[str] = []
        self.metrics: Dict[str, Dict[str, float]] = {}
        #: Work counts that must repeat exactly for a repeated seed.
        self.work: Dict[str, object] = {}
        #: Informational timings (per-model or per-class seconds).
        self.timing: Dict[str, object] = {}

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        if not ok:
            self.check_failures.append(reason)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def result(self) -> dict:
        return {
            "correct": not self.check_failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": self.metrics,
        }


def derive_seed(*parts: int) -> int:
    """A 31-bit seed from the run seed and a position (round, client, …)."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between order
    statistics, numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def sliced_p99(groups: Sequence[Sequence[float]]) -> float:
    """Median over groups (rounds, or slices of the timed window) of each
    group's 99th percentile: the tail of a typical stretch of the run, not
    of the one stretch a neighbour's burst happened to hit."""
    return median([percentile(group, 99) for group in groups if len(group)])


def completion_slices(records: Sequence[dict], n: int = 10) -> List[List[dict]]:
    """Serve records in ``n`` contiguous, equal-count slices by completion
    time."""
    ordered = sorted(records, key=lambda r: r["t_done"])
    bounds = np.linspace(0, len(ordered), n + 1).round().astype(int)
    return [ordered[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


class Mark(NamedTuple):
    """A point in time: monotonic seconds and the machine's busy and stolen
    CPU clock ticks so far."""

    t: float
    busy: int
    steal: int


def _cpu_ticks() -> Tuple[int, int]:
    """Busy and stolen clock ticks of the whole (virtual) machine, from the
    first line of ``/proc/stat``; ``(0, 0)`` where it cannot be read."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, idle, iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def mark() -> Mark:
    return Mark(time.monotonic(), *_cpu_ticks())


def granted_share(start: Mark, end: Mark) -> float:
    """Share of the CPU time the machine asked for between two marks that
    the hypervisor gave it: 1 on a machine of its own, less when a
    neighbour on the same host takes (steals) CPU time from it."""
    busy, steal = end.busy - start.busy, end.steal - start.steal
    return busy / (busy + steal) if busy + steal > 0 else 1.0


def guest_seconds(start: Mark, end: Mark) -> float:
    """Wall seconds between two marks with the stolen share taken out: the
    time the same work takes when no neighbour steals CPU time."""
    return (end.t - start.t) * granted_share(start, end)


def guest_latency(record: dict) -> float:
    """A serve record's submit-to-download time in guest seconds."""
    return guest_seconds(record["m_submit"], record["m_done"])


def guest_window(start: Mark, slices: Sequence[Sequence[dict]]) -> float:
    """Guest seconds from ``start`` to the last completion, the stolen
    share taken out slice by slice."""
    total, previous = 0.0, start
    for chunk in slices:
        end = chunk[-1]["m_done"]
        total += guest_seconds(previous, end)
        previous = end
    return total


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_kib(pid: int, field: str) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


def _children(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(token) for token in handle.read().split()]
    except OSError:
        return []


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident memory (VmHWM) of a process and its live
    descendants. Pages a forked child still shares with its parent are
    counted in both, so this is an upper bound."""
    total = 0.0
    pending = [pid]
    while pending:
        current = pending.pop()
        hwm = _status_kib(current, "VmHWM")
        if hwm is not None:
            total += hwm
        pending.extend(_children(current))
    return total / 1024.0


def split_rhat_halves(draws: np.ndarray) -> float:
    """Max over parameters of the Gelman–Rubin statistic on the second half
    of each chain's kept draws: the statistic the server's online
    convergence check is documented to compute, written out here in plain
    numpy so the benchmark does not trust the program's own diagnostic.

    ``draws`` is ``(n_chains, n_kept, dim)``.
    """
    n_kept = draws.shape[1]
    tail = draws[:, n_kept // 2:, :]
    n = tail.shape[1]
    chain_means = tail.mean(axis=1)
    within = tail.var(axis=1, ddof=1).mean(axis=0)
    between = n * chain_means.var(axis=0, ddof=1)
    pooled = (n - 1) / n * within + between / n
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(pooled / within)
    return float(np.max(rhat))
