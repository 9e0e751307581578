"""Cloud regions and availability zones.

The catalog mirrors the regions the paper measured from: five U.S.
regions plus europe-west1, each anchored to the real datacenter metro.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import CloudError

__all__ = ["Zone", "Region", "REGIONS", "PAPER_REGIONS"]


@dataclass(frozen=True)
class Zone:
    """One availability zone within a region."""

    name: str          # e.g. "us-west1-a"
    region_name: str


@dataclass(frozen=True)
class Region:
    """A cloud region: a datacenter campus in one metro."""

    name: str
    city_key: str
    zone_suffixes: Tuple[str, ...] = ("a", "b", "c")

    @property
    def zones(self) -> List[Zone]:
        return [Zone(f"{self.name}-{s}", self.name) for s in self.zone_suffixes]

    def zone(self, suffix: str) -> Zone:
        if suffix not in self.zone_suffixes:
            raise CloudError(f"region {self.name} has no zone -{suffix}")
        return Zone(f"{self.name}-{suffix}", self.name)


#: All regions the simulated platform offers.
REGIONS: Dict[str, Region] = {
    r.name: r for r in [
        Region("us-west1", "The Dalles, US"),
        Region("us-west2", "Los Angeles, US"),
        Region("us-west3", "Salt Lake City, US"),
        Region("us-west4", "Las Vegas, US"),
        Region("us-central1", "Council Bluffs, US", ("a", "b", "c", "f")),
        Region("us-east1", "Moncks Corner, US", ("b", "c", "d")),
        Region("us-east4", "Ashburn, US"),
        Region("europe-west1", "St. Ghislain, BE", ("b", "c", "d")),
        Region("europe-west2", "London, GB"),
        Region("europe-west4", "Amsterdam, NL"),
        Region("asia-southeast1", "Singapore, SG"),
        Region("asia-northeast1", "Tokyo, JP"),
    ]
}

#: Regions used in the paper's measurement campaign.  Table 1 covers the
#: five U.S. regions us-west1/us-west2/us-east1/us-east4/us-central1;
#: Fig. 2 additionally shows us-west4, and the differential experiments
#: use us-central1, us-east1, and europe-west1.
PAPER_US_REGIONS: Tuple[str, ...] = (
    "us-west1", "us-west2", "us-west4", "us-east1", "us-east4",
    "us-central1",
)
PAPER_TABLE1_REGIONS: Tuple[str, ...] = (
    "us-west1", "us-west2", "us-east1", "us-east4", "us-central1",
)
PAPER_DIFFERENTIAL_REGIONS: Tuple[str, ...] = (
    "us-central1", "us-east1", "europe-west1",
)
PAPER_REGIONS: Tuple[str, ...] = PAPER_US_REGIONS + ("europe-west1",)

