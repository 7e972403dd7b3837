"""repro.repod: the XNIT repository *service*, built to survive overload.

The paper's Table 3 registry is a fleet of campuses all pulling from one
XNIT repository; this package models that server side on the simulation
kernel, with robustness — not raw capacity — as the headline:

* :mod:`repro.repod.server` — :class:`RepoServer`, the origin: bounded
  connection slots, a bounded *admission queue* with deadline-aware load
  shedding (a request whose client deadline already expired is shed, not
  served), and crash/recover hooks for the ``origin.crash`` fault.
* :mod:`repro.repod.proxy` — :class:`SiteProxy`, the campus cache tier:
  hit/miss accounting, request *coalescing* (N concurrent misses for one
  artifact produce one origin fetch), and *serve-stale* graceful
  degradation when the origin is dead or shedding.
* :mod:`repro.repod.client` — :class:`RepoClient`, a campus sync whose
  retries follow :class:`~repro.faults.RetryPolicy` but are governed by a
  token-bucket :class:`~repro.faults.RetryBudget`, so a degraded origin
  sees load decay instead of a retry storm.
* :mod:`repro.repod.storm` — :class:`UpdateStormScenario`: the security
  release that makes every campus sync at once, with the origin crashing
  and proxy uplinks flapping mid-storm, plus the invariant audit
  (:func:`repod_confluence_problems`) chaos invariant 8 runs.

Every decision lands on the trace bus as ``repod.*`` events (request /
shed / coalesce / stale, and retry_budget for a denied retry; a granted
one names its budget on the client's ``fault.retry``) — same seed,
byte-identical JSONL, even mid-storm.  See docs/DELIVERY.md.
"""

from .client import RepoClient, RequestRecord
from .proxy import SiteProxy
from .server import FetchResult, RepoServer, payload_for
from .storm import StormReport, UpdateStormScenario, repod_confluence_problems

__all__ = [
    "FetchResult",
    "RepoClient",
    "RepoServer",
    "RequestRecord",
    "SiteProxy",
    "StormReport",
    "UpdateStormScenario",
    "payload_for",
    "repod_confluence_problems",
]
