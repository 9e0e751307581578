"""Speed test infrastructure: platforms, server catalogs, test protocol.

Models the three infrastructures CLASP leveraged - Ookla, M-Lab, and
Comcast Xfinity - as catalogs of well-provisioned (>= 1 Gbps) servers
hosted across edge networks, plus the web speed test protocol itself
(latency probes, multi-flow download, multi-flow upload) executed from
a headless browser on the measurement VM.
"""

from .server import Platform, ServerRecord, SpeedTestServer
from .catalog import CatalogConfig, ServerCatalog, build_catalog
from .protocol import SpeedTestEngine, SpeedTestResult
from .browser import BrowserArtifacts, HeadlessBrowser

__all__ = [
    "Platform", "ServerRecord", "SpeedTestServer",
    "CatalogConfig", "ServerCatalog", "build_catalog",
    "SpeedTestEngine", "SpeedTestResult",
    "BrowserArtifacts", "HeadlessBrowser",
]
