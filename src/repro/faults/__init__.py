"""repro.faults: deterministic fault injection and retry machinery.

Three layers, importable in increasing weight:

* :mod:`repro.faults.retry` — :class:`RetryPolicy`, :class:`RetryBudget`
  and :func:`call_with_retry`: seeded exponential backoff with jitter,
  deadlines and retry budgets, all spending simulated time on the
  kernel.  This layer is imported *by* the subsystems (PXE, yum mirror,
  GridFTP), so it must stay dependency-light.
* :mod:`repro.faults.plan` / :mod:`repro.faults.inject` — declarative
  :class:`FaultPlan` schedules and the :class:`FaultInjector` that turns
  them into kernel events (duck-typed against whatever subsystems you
  wire in).
* :mod:`repro.faults.chaos` — the whole-stack chaos harness behind
  ``python -m repro.faults``.  **Not** imported here: it pulls in the
  scheduler, monitoring, and hardware layers, which in turn import this
  package; reach it as ``repro.faults.chaos`` explicitly.
"""

from .inject import ActiveFault, FaultInjector
from .plan import FaultKind, FaultPlan, FaultSpec
from .retry import RetryBudget, RetryPolicy, call_with_retry

__all__ = [
    "ActiveFault",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RetryBudget",
    "RetryPolicy",
    "call_with_retry",
]
