"""Workload generators for the simulation study.

Section 4.1: "Two event-generating methods are used.  In the first, events
are clustered in a short period of time and conflict with each other.
Such very busy periods may be found at the beginning period of a
multi-party conversation.  In the second event-generating method, events
are relatively evenly distributed over long periods of time."

* :mod:`repro.workloads.membership` -- bursty and sparse (Poisson)
  join/leave event schedules,
* :mod:`repro.workloads.scenario` -- bundling of a topology, a connection,
  and an event schedule into one runnable scenario,
* :mod:`repro.workloads.zipf` -- Zipf-popularity group churn and traffic
  batches with converged many-group bring-up, for the batched data plane.
"""

from repro.workloads.membership import (
    MembershipSchedule,
    ScheduledEvent,
    bursty_schedule,
    sparse_schedule,
)
from repro.workloads.scenario import Scenario
from repro.workloads.failures import FailureInjector, FailureRecord
from repro.workloads.zipf import (
    ConvergedGroups,
    ZipfWorkload,
    zipf_churn_workload,
)

__all__ = [
    "ScheduledEvent",
    "MembershipSchedule",
    "bursty_schedule",
    "sparse_schedule",
    "Scenario",
    "FailureInjector",
    "FailureRecord",
    "ZipfWorkload",
    "zipf_churn_workload",
    "ConvergedGroups",
]
