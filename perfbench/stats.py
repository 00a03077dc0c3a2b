"""Summary statistics for one run: percentiles, times relative to the
reference kernel and failure counting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

# Tail percentiles a timing may be reported at, lowest first.
TAILS = (90.0, 99.0, 99.9)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: List[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported(n: int, p: float) -> bool:
    """True when ``n`` samples leave at least MIN_BEYOND beyond ``p``."""
    return n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9


def tail_percentile(n: int) -> Optional[float]:
    """The highest tail percentile with at least MIN_BEYOND samples beyond
    it, or None when ``n`` is too small for any of them."""
    best = None
    for p in TAILS:
        if supported(n, p):
            best = p
    return best


def relative(cycles: List[float], refs: List[float], units: float = 1.0) -> List[float]:
    """Each cycle's time per unit of work, divided by the reference time
    measured right after it."""
    if len(cycles) != len(refs):
        raise ValueError(f"{len(cycles)} cycles but {len(refs)} reference times")
    return [c / units / r for c, r in zip(cycles, refs)]


def per_reference(work: float, cycles: List[float], refs: List[float]) -> float:
    """Work done per reference time: ``work`` over the sum of the relative
    cycle times."""
    return work / sum(relative(cycles, refs))


@dataclass
class OpLog:
    """Durations and outcomes of the ops of one run, by op kind."""

    seconds: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, kind: str, seconds: float, problems: List[str]) -> None:
        """Count one attempted op; any problem makes it a failed op."""
        self.attempted += 1
        self.seconds.setdefault(kind, []).append(seconds)
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{kind}: {'; '.join(problems)}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
