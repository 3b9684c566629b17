"""Measurement results of a simulation run.

The paper's methodology (Section 4.2): warm up, tag the packets injected
during a measurement window, run until every tagged packet has been
ejected, and report statistics over the tagged packets only.  Channel
utilisation and accepted throughput are measured over the window itself.

The tagged-packet latencies are two columns (:class:`LatencySamples`)
from the engines to the disk; this module stays stdlib-only because
every scalar run imports it and numpy's import alone costs ~135 ms.
"""

from __future__ import annotations

import base64
import math
import operator
import sys
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class LatencySample:
    """Latency of one tagged packet."""

    latency: int
    minimal: bool


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def _inflate(payload: bytes, size: int) -> bytes:
    """zlib-decompress a column of exactly ``size`` bytes (bounded, so
    a hostile record cannot balloon in memory)."""
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(payload, size + 1)
    except zlib.error as exc:
        raise ValueError(f"garbled sample column: {exc}") from exc
    if len(raw) != size or not inflater.eof:
        raise ValueError("sample column length disagrees with n")
    return raw


class LatencySamples(Sequence[LatencySample]):
    """The tagged packets' latencies as two columns, in ejection order.

    ``latency`` is an ``array('I')`` -- unsigned 32-bit, so a negative
    or oversized latency raises ``OverflowError`` instead of wrapping --
    and ``minimal`` a ``bytearray`` of 0/1.  Reads as a
    ``Sequence[LatencySample]``; sample objects are built on access only.
    """

    __slots__ = ("latency", "minimal")

    def __init__(
        self, latency: Iterable[int] = (), minimal: Iterable[int] = b""
    ) -> None:
        self.latency = array("I", latency)
        self.minimal = flags = bytearray(minimal)
        if len(flags) != len(self.latency) or (
            flags.count(0) + flags.count(1) != len(flags)
        ):
            raise ValueError("minimal is not one 0/1 flag per latency")

    def append(self, latency: int, minimal: bool) -> None:
        self.latency.append(latency)
        self.minimal.append(minimal)

    def latencies(self, minimal: Optional[bool] = None) -> "array[int]":
        """The latency column, or its minimal / non-minimal rows."""
        if minimal is None:
            return self.latency
        keep = self.minimal if minimal else map(operator.not_, self.minimal)
        return array("I", compress(self.latency, keep))

    def __len__(self) -> int:
        return len(self.latency)

    def __iter__(self) -> Iterator[LatencySample]:
        return map(LatencySample, self.latency, map(bool, self.minimal))

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return LatencySamples(self.latency[index], self.minimal[index])
        return LatencySample(self.latency[index], bool(self.minimal[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencySamples):
            return NotImplemented
        return self.latency == other.latency and self.minimal == other.minimal

    def __repr__(self) -> str:  # keeps SimulationResult's repr readable
        return f"LatencySamples(n={len(self)})"

    def deflated(self) -> Tuple[int, bytes, bytes]:
        """``(n, latency, minimal)``: the columns as little-endian
        uint32 / uint8 bytes, zlib-compressed -- lossless; the pickle
        form and, under base64, the on-disk form."""
        latency = self.latency
        if sys.byteorder == "big":
            latency = array("I", latency)
            latency.byteswap()
        return (
            len(latency),
            zlib.compress(latency.tobytes()),
            zlib.compress(self.minimal),
        )

    @classmethod
    def inflated(cls, n: int, latency: bytes, minimal: bytes) -> "LatencySamples":
        """Inverse of :meth:`deflated`; ``ValueError`` on a payload that
        is garbled, truncated or not ``n`` samples long."""
        column = array("I")
        column.frombytes(_inflate(latency, 4 * n))
        if sys.byteorder == "big":
            column.byteswap()
        return cls(column, _inflate(minimal, n))

    def __reduce__(self) -> Tuple[Any, ...]:
        return LatencySamples.inflated, self.deflated()

    def pack(self) -> Dict[str, object]:
        """The JSON-able ``{"n", "latency", "minimal"}`` object:
        :meth:`deflated` under base64."""
        n, latency, minimal = self.deflated()
        return {
            "n": n,
            "latency": base64.b64encode(latency).decode("ascii"),
            "minimal": base64.b64encode(minimal).decode("ascii"),
        }

    @classmethod
    def from_json(cls, samples: Any) -> "LatencySamples":
        """From :meth:`pack`'s object or a list of ``[latency, minimal]``
        pairs."""
        if not isinstance(samples, dict):
            return cls(*zip(*samples, strict=True))
        n = samples["n"]
        if type(n) is not int or n < 0:
            raise ValueError(f"sample count {n!r} is not a count")
        return cls.inflated(
            n,
            base64.b64decode(samples["latency"], validate=True),
            base64.b64decode(samples["minimal"], validate=True),
        )


@dataclass
class SimulationResult:
    """Everything a run produces; figures are derived from these fields."""

    routing_name: str
    pattern_name: str
    offered_load: float
    num_terminals: int
    measure_cycles: int
    #: False when tagged packets could not be drained within the limit --
    #: the canonical signature of operating beyond saturation.
    drained: bool
    samples: LatencySamples = field(default_factory=LatencySamples)
    #: Flits ejected during the measurement window (all packets).
    ejected_flits_in_window: int = 0
    #: Flits forwarded per *global* channel during the window, keyed by
    #: directed channel index.
    global_channel_flits: Dict[int, int] = field(default_factory=dict)
    #: Count of tagged packets still in flight when the run ended.
    unfinished_tagged: int = 0
    warmup_cycles: int = 0
    total_cycles: int = 0
    #: Mean per-terminal source-queue depth when the measurement window
    #: closed -- the cleanest saturation indicator (grows without bound
    #: beyond capacity, stays O(1) below it).
    avg_source_queue_at_end: float = 0.0
    #: Which engine produced this result (``{"backend": ..., "kernel":
    #: ...}``, plus ``"kernel_fallback"`` when the decide kernel was
    #: bypassed) -- pure provenance, so excluded from equality: the
    #: whole point of the backend contract is that scalar and array
    #: results compare equal.  Not part of :meth:`to_dict` either; the
    #: sweep cache stores it alongside the result instead.
    backend_info: Optional[Dict[str, str]] = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
    @property
    def saturated(self) -> bool:
        return not self.drained

    @property
    def latencies(self) -> List[int]:
        return self.samples.latency.tolist()

    @property
    def avg_latency(self) -> float:
        """Weighted average over minimal and non-minimal tagged packets."""
        return _mean(self.samples.latency)

    @property
    def avg_minimal_latency(self) -> float:
        return _mean(self.samples.latencies(minimal=True))

    @property
    def avg_nonminimal_latency(self) -> float:
        return _mean(self.samples.latencies(minimal=False))

    @property
    def minimal_fraction(self) -> float:
        if not self.samples:
            return math.nan
        return self.samples.minimal.count(1) / len(self.samples)

    def latency_percentile(self, q: float) -> float:
        if not (0.0 <= q <= 100.0):
            raise ValueError("percentile must be in [0, 100]")
        if not self.samples:
            return math.nan
        ordered = sorted(self.samples.latency)
        rank = (len(ordered) - 1) * q / 100.0
        low = int(math.floor(rank))
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def latency_histogram(
        self, bin_width: int = 5, minimal_only: Optional[bool] = None
    ) -> List[Tuple[int, float]]:
        """(bin start, fraction of packets) pairs -- Figure 12's view."""
        if bin_width < 1:
            raise ValueError("bin_width must be >= 1")
        if not self.samples:
            return []
        counts = Counter(
            latency // bin_width
            for latency in self.samples.latencies(minimal_only)
        )
        total = len(self.samples)  # fractions relative to all tagged packets
        return [
            (bin_index * bin_width, counts[bin_index] / total)
            for bin_index in sorted(counts)
        ]

    # ------------------------------------------------------------------
    # Throughput and channel load
    # ------------------------------------------------------------------
    @property
    def accepted_load(self) -> float:
        """Flits ejected per terminal per cycle during the window."""
        return self.ejected_flits_in_window / (self.num_terminals * self.measure_cycles)

    def global_channel_utilization(self) -> Dict[int, float]:
        """Busy fraction of each directed global channel over the window."""
        return {
            channel: flits / self.measure_cycles
            for channel, flits in sorted(self.global_channel_flits.items())
        }

    # ------------------------------------------------------------------
    # Serialisation (result cache, golden fixtures)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-able dict of every stored field (derived stats excluded).

        The layout is pinned: the golden fixtures, the differential
        corpus and the benchmark's digests all compare it, samples as
        ``[latency, minimal]`` pairs.
        """
        samples = self.samples
        return self._fields(
            list(map(list, zip(samples.latency, map(bool, samples.minimal))))
        )

    def to_record(self) -> Dict[str, object]:
        """:meth:`to_dict` with the samples packed
        (:meth:`LatencySamples.pack`): what the sweep cache and the
        result store write.  The layout is the cache schema: change it
        together with :data:`repro.network.cache.SCHEMA_VERSION`.
        """
        return self._fields(self.samples.pack())

    def _fields(self, samples: object) -> Dict[str, object]:
        return {
            "routing_name": self.routing_name,
            "pattern_name": self.pattern_name,
            "offered_load": self.offered_load,
            "num_terminals": self.num_terminals,
            "measure_cycles": self.measure_cycles,
            "drained": self.drained,
            "samples": samples,
            # JSON object keys are strings; from_dict converts back.
            "global_channel_flits": {
                str(channel): flits
                for channel, flits in sorted(self.global_channel_flits.items())
            },
            "ejected_flits_in_window": self.ejected_flits_in_window,
            "unfinished_tagged": self.unfinished_tagged,
            "warmup_cycles": self.warmup_cycles,
            "total_cycles": self.total_cycles,
            "avg_source_queue_at_end": self.avg_source_queue_at_end,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationResult":
        """Inverse of :meth:`to_dict` and :meth:`to_record`, and the one
        validator of a stored record: anything malformed is a
        ``ValueError``, never a result that fails later."""
        try:
            flits = data["global_channel_flits"]
            if not isinstance(flits, dict):
                raise ValueError("global_channel_flits is not an object")
            result = cls(
                routing_name=str(data["routing_name"]),
                pattern_name=str(data["pattern_name"]),
                offered_load=float(data["offered_load"]),
                num_terminals=int(data["num_terminals"]),
                measure_cycles=int(data["measure_cycles"]),
                drained=bool(data["drained"]),
                samples=LatencySamples.from_json(data["samples"]),
                ejected_flits_in_window=int(data["ejected_flits_in_window"]),
                global_channel_flits={
                    int(channel): int(count) for channel, count in flits.items()
                },
                unfinished_tagged=int(data["unfinished_tagged"]),
                warmup_cycles=int(data["warmup_cycles"]),
                total_cycles=int(data["total_cycles"]),
                avg_source_queue_at_end=float(data["avg_source_queue_at_end"]),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed result record: {exc!r}") from exc
        if result.num_terminals <= 0 or result.measure_cycles <= 0:
            raise ValueError("num_terminals and measure_cycles must be positive")
        return result

    def summary(self) -> str:
        status = "saturated" if self.saturated else "ok"
        return (
            f"{self.routing_name:10s} {self.pattern_name:14s} "
            f"load={self.offered_load:.3f} accepted={self.accepted_load:.3f} "
            f"latency={self.avg_latency:7.2f} min%={100 * self.minimal_fraction:5.1f} "
            f"[{status}]"
        )
