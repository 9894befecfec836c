"""Open-loop arrival processes and skewed popularity sampling.

The arrival side of the workload engine: *when* operations hit the
platform (:class:`PoissonProcess`, :class:`OnOffProcess`) and *what* they
touch (:class:`ZipfSampler` for event-type and subject popularity).
Everything draws from a caller-supplied ``random.Random``, so the whole
workload is a pure function of the seed.

Pub/sub systems live or die by skew and burstiness (Onica et al.,
arXiv:1705.09404): a uniform, evenly-paced load hides the saturation
modes — hot subjects concentrating on one shard, fanout spikes during
bursts — that the capacity benchmark exists to expose.

The Zipf sampler uses rejection-inversion (Hörmann & Derflinger's
algorithm, the one behind numpy's and commons-math's samplers): exact
Zipf(``exponent``) over ``1..n`` in O(1) memory and O(1) expected time
per draw, so subject popularity scales to populations of millions
without materializing an n-element CDF.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from repro.exceptions import ConfigurationError


class PoissonProcess:
    """Memoryless arrivals at ``rate`` events per simulated second."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ConfigurationError("poisson rate must be positive")
        self.rate = rate

    def times(self, rng: random.Random) -> Iterator[float]:
        now = 0.0
        while True:
            now += rng.expovariate(self.rate)
            yield now


class OnOffProcess:
    """Bursty arrivals: exponential ON bursts separated by OFF silences.

    During an ON period (mean ``on_seconds``) arrivals are Poisson at
    ``burst_rate``; during OFF (mean ``off_seconds``) they are Poisson at
    ``base_rate`` — zero by default, i.e. true silence.  The alternation
    produces the heavy-tailed inter-arrival mix (many short gaps, a few
    long ones) that stresses queues far harder than a Poisson stream of
    the same average rate.
    """

    def __init__(
        self,
        burst_rate: float,
        on_seconds: float,
        off_seconds: float,
        base_rate: float = 0.0,
    ) -> None:
        if burst_rate <= 0:
            raise ConfigurationError("burst_rate must be positive")
        if on_seconds <= 0 or off_seconds <= 0:
            raise ConfigurationError("on/off period means must be positive")
        if base_rate < 0:
            raise ConfigurationError("base_rate must be non-negative")
        self.burst_rate = burst_rate
        self.on_seconds = on_seconds
        self.off_seconds = off_seconds
        self.base_rate = base_rate

    def times(self, rng: random.Random) -> Iterator[float]:
        now = 0.0
        while True:
            # ON burst.
            deadline = now + rng.expovariate(1.0 / self.on_seconds)
            while True:
                gap = rng.expovariate(self.burst_rate)
                if now + gap > deadline:
                    break
                now += gap
                yield now
            # OFF silence (optionally trickling at base_rate).
            deadline = deadline + rng.expovariate(1.0 / self.off_seconds)
            if self.base_rate > 0:
                while True:
                    gap = rng.expovariate(self.base_rate)
                    if now + gap > deadline:
                        break
                    now += gap
                    yield now
            now = deadline


class ZipfSampler:
    """Exact Zipf(``exponent``) ranks over ``1..n`` by rejection-inversion.

    ``sample(rng)`` returns a rank in ``[1, n]`` where rank ``k`` has
    probability proportional to ``k ** -exponent``.  O(1) memory: no
    cumulative table, so ``n`` can be the whole assisted population.
    """

    def __init__(self, n: int, exponent: float) -> None:
        if n < 1:
            raise ConfigurationError("zipf needs at least one rank")
        if exponent <= 0:
            raise ConfigurationError("zipf exponent must be positive")
        self.n = n
        self.exponent = exponent
        self._h_x1 = self._h_integral(1.5) - 1.0
        self._h_n = self._h_integral(n + 0.5)
        self._s = 2.0 - self._h_integral_inverse(
            self._h_integral(2.5) - self._h(2.0)
        )

    def _h_integral(self, x: float) -> float:
        log_x = math.log(x)
        return _helper2((1.0 - self.exponent) * log_x) * log_x

    def _h(self, x: float) -> float:
        return math.exp(-self.exponent * math.log(x))

    def _h_integral_inverse(self, x: float) -> float:
        t = x * (1.0 - self.exponent)
        if t < -1.0:
            t = -1.0  # guard round-off below the pole
        return math.exp(_helper1(t) * x)

    def sample(self, rng: random.Random) -> int:
        """One Zipf-distributed rank in ``[1, n]``."""
        if self.n == 1:
            return 1
        while True:
            u = self._h_n + rng.random() * (self._h_x1 - self._h_n)
            x = self._h_integral_inverse(u)
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > self.n:
                k = self.n
            if k - x <= self._s or u >= self._h_integral(k + 0.5) - self._h(k):
                return k


def _helper1(x: float) -> float:
    """``log1p(x) / x`` with the removable singularity at 0 filled in."""
    if abs(x) > 1e-8:
        return math.log1p(x) / x
    return 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))


def _helper2(x: float) -> float:
    """``expm1(x) / x`` with the removable singularity at 0 filled in."""
    if abs(x) > 1e-8:
        return math.expm1(x) / x
    return 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x))


def scatter(rank: int, size: int) -> int:
    """Map a popularity rank to a population index, decorrelating the two.

    An affine permutation of ``0..size-1`` (multiplier coprime with
    ``size``): rank 1 is still the single hottest subject, but hot
    subjects are spread across the index space — and therefore across
    federation shards — instead of clustering at index 0.
    """
    multiplier = 2654435761  # Knuth's golden-ratio hash constant, odd
    while math.gcd(multiplier, size) != 1:
        multiplier += 2
    return ((rank - 1) * multiplier + 17) % size
