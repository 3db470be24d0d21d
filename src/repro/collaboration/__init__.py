"""Collaboration: shared workspaces, threads, MQO (paper §7).

Public API:

- :class:`SharedWorkspace`, :class:`Contribution`,
  :class:`ExplorationThread`.
- :class:`CollaborationSession`.
- :class:`SharedJobExecutor`, :class:`SharingReport`,
  :class:`SharedExecutionResult`, :func:`job_key`.
"""

from repro.collaboration.mqo import (
    SharedExecutionResult,
    SharedJobExecutor,
    SharingReport,
    job_key,
)
from repro.collaboration.session import CollaborationSession
from repro.collaboration.workspace import (
    Contribution,
    ExplorationThread,
    SharedWorkspace,
)

__all__ = [
    "CollaborationSession",
    "Contribution",
    "ExplorationThread",
    "SharedExecutionResult",
    "SharedJobExecutor",
    "SharedWorkspace",
    "SharingReport",
    "job_key",
]
