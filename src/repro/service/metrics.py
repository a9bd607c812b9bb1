"""Structured request metrics for the compile service.

Everything here is plain counters and fixed-bucket histograms -- cheap
enough to update on every request, JSON-serializable for ``/stats``, and
deterministic to assert on in tests.  The daemon runs a single event loop,
so metric updates need no locking; the snapshot methods return copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LatencyHistogram", "EndpointMetrics", "ServiceMetrics"]


#: Histogram bucket upper bounds in seconds (log-ish scale, "le" semantics
#: like Prometheus); the final bucket is +inf.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimation.

    Quantiles are estimated as the upper bound of the bucket containing
    the requested rank -- coarse but monotone, never allocating, and exact
    enough to gate p50/p95 regressions in the benchmark.
    """

    __slots__ = ("counts", "total", "sum_s", "max_s")

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKETS_S) + 1)
        self.total = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        idx = len(LATENCY_BUCKETS_S)
        for i, bound in enumerate(LATENCY_BUCKETS_S):
            if seconds <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.total += 1
        self.sum_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile (seconds)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                if i < len(LATENCY_BUCKETS_S):
                    return LATENCY_BUCKETS_S[i]
                return self.max_s
        return self.max_s

    def snapshot(self) -> dict:
        return {
            "count": self.total,
            "sum_s": round(self.sum_s, 6),
            "max_s": round(self.max_s, 6),
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
            "buckets": {
                (
                    f"le_{bound}"
                    if i < len(LATENCY_BUCKETS_S)
                    else "le_inf"
                ): self.counts[i]
                for i, bound in enumerate(
                    (*LATENCY_BUCKETS_S, float("inf"))
                )
                if self.counts[i]
            },
        }


@dataclass
class EndpointMetrics:
    """Per-endpoint request accounting."""

    requests: int = 0
    errors_4xx: int = 0
    errors_5xx: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def record(self, status: int, seconds: float) -> None:
        self.requests += 1
        if 400 <= status < 500:
            self.errors_4xx += 1
        elif status >= 500:
            self.errors_5xx += 1
        self.latency.observe(seconds)

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "errors_4xx": self.errors_4xx,
            "errors_5xx": self.errors_5xx,
            "latency": self.latency.snapshot(),
        }


class ServiceMetrics:
    """The daemon's whole metric surface: endpoints + service-level events."""

    def __init__(self) -> None:
        self.endpoints: dict[str, EndpointMetrics] = {}
        self.timeouts = 0
        self.malformed = 0
        self.connections = 0

    def endpoint(self, name: str) -> EndpointMetrics:
        metrics = self.endpoints.get(name)
        if metrics is None:
            metrics = self.endpoints[name] = EndpointMetrics()
        return metrics

    def record(self, name: str, status: int, seconds: float) -> None:
        self.endpoint(name).record(status, seconds)

    def snapshot(self) -> dict:
        return {
            "timeouts": self.timeouts,
            "malformed": self.malformed,
            "connections": self.connections,
            "endpoints": {
                name: m.snapshot() for name, m in sorted(self.endpoints.items())
            },
        }
