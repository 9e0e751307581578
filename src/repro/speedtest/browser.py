"""Headless-browser wrapper around the speed test engine.

The paper ran web speed tests inside a headless Chromium and scraped
the numbers the page displayed, while ``tcpdump`` captured packet
headers and ``someta`` recorded VM metadata.  This wrapper reproduces
that layering: it runs the engine, rounds values the way the web UIs
render them, retries transient failures once (as the cron wrapper
did), and emits the artefact sizes (compressed pcap + page capture)
that get uploaded to the storage bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .. import obs
from ..cloud.vm import VirtualMachine
from ..errors import SpeedTestError, ValidationError
from .protocol import SpeedTestEngine, SpeedTestResult
from .server import SpeedTestServer

__all__ = ["BrowserArtifacts", "HeadlessBrowser"]

#: Compressed pcap headers come to roughly this fraction of the bytes
#: transferred (headers only, then gzip).
_PCAP_FRACTION = 0.004
#: Fixed size of the page capture + someta metadata blob.
_CAPTURE_OVERHEAD_BYTES = 180_000


@dataclass(frozen=True)
class BrowserArtifacts:
    """Artefacts one browser-driven test leaves on disk."""

    result: SpeedTestResult
    pcap_bytes: int
    capture_bytes: int
    #: Attempts made before the result, including the successful one
    #: (so 1 means it worked first try).
    attempts: int

    @property
    def retried(self) -> bool:
        """Whether the test needed more than one attempt."""
        return self.attempts > 1

    @property
    def upload_size_bytes(self) -> int:
        """Total compressed artefact size shipped to the bucket."""
        return self.pcap_bytes + self.capture_bytes


class HeadlessBrowser:
    """Runs one web speed test end to end inside "Chromium"."""

    def __init__(self, engine: SpeedTestEngine, max_retries: int = 1,
                 backoff: Optional[Callable[[int], float]] = None) -> None:
        if max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
        self.engine = engine
        self.max_retries = max_retries
        #: Deterministic seconds-before-retry schedule: ``backoff(k)`` is
        #: the delay before retry ``k`` (0-based).  ``None`` retries
        #: immediately, like the original cron wrapper.
        self.backoff = backoff

    def run_test(self, vm: VirtualMachine, server: SpeedTestServer,
                 ts: float) -> BrowserArtifacts:
        """Execute the test, retrying transient failures.

        Retries are bounded by ``max_retries`` and spaced by the
        deterministic ``backoff`` schedule (when configured).  Raises
        :class:`SpeedTestError` when all attempts fail.
        """
        last_error: Optional[SpeedTestError] = None
        with obs.span("speedtest.run_test"):
            for attempt in range(self.max_retries + 1):
                attempt_ts = ts
                if attempt and self.backoff is not None:
                    attempt_ts = ts + self.backoff(attempt - 1)
                try:
                    result = self.engine.run(vm, server, attempt_ts)
                except SpeedTestError as err:
                    last_error = err
                    continue
                obs.inc("speedtest.tests")
                download = getattr(result, "download_mbps", None)
                if download is not None:
                    obs.observe("speedtest.download_mbps", download)
                pcap = int(result.total_bytes * _PCAP_FRACTION)
                return BrowserArtifacts(
                    result=result,
                    pcap_bytes=pcap,
                    capture_bytes=_CAPTURE_OVERHEAD_BYTES,
                    attempts=attempt + 1,
                )
            assert last_error is not None
            obs.inc("speedtest.failures")
            raise last_error
