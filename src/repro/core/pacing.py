"""Token-bucket pacing for bandwidth-limited broadcasts.

The head uses this to cap the rate it injects the stream into the
pipeline (``KascadeConfig.bandwidth_limit``): every chunk *reserves*
tokens and the bucket answers how long to wait before sending.  The
arithmetic is pure — callers pass the current time and perform the
sleeping — so it is exactly testable and reusable by the simulator.
"""

from __future__ import annotations


class TokenBucket:
    """Virtual-scheduling token bucket.

    ``rate`` is bytes/second; ``burst`` is how many bytes may be sent
    back-to-back after an idle period before pacing kicks in (defaults
    to a quarter-second's worth, enough to keep pipelining smooth
    without defeating the limit).
    """

    def __init__(self, rate: float, burst: float | None = None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.burst = burst if burst is not None else rate * 0.25
        if self.burst < 0:
            raise ValueError(f"burst must be >= 0, got {self.burst}")
        self._next_free: float | None = None  # virtual time the line frees

    def reserve(self, nbytes: float, now: float) -> float:
        """Reserve capacity for ``nbytes`` at time ``now``.

        Returns the delay (seconds, possibly 0) the caller must wait
        before transmitting the reserved bytes.  Reservations commit
        immediately: calling again assumes the previous bytes will be
        sent as scheduled.
        """
        if nbytes < 0:
            raise ValueError(f"negative reservation: {nbytes}")
        if self._next_free is None:
            self._next_free = now
        # Idle credit: the line may be behind `now` by at most `burst`.
        earliest = max(self._next_free, now - self.burst / self.rate)
        delay = max(0.0, earliest - now)
        self._next_free = earliest + nbytes / self.rate
        return delay
