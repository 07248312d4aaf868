"""Scheduling policies: the paper's three schemes and extension baselines.

* :class:`MKSSStatic` (MKSS_ST)   -- static R-pattern, concurrent copies.
* :class:`MKSSDualPriority` (MKSS_DP) -- static R-pattern, preference-
  oriented mains, backups postponed by the promotion time Y_i.
* :class:`MKSSGreedy`             -- dynamic patterns, every feasible
  optional executed on the primary (the motivation's Figures 2-3).
* :class:`MKSSSelective`          -- the paper's contribution
  (Algorithm 1): FD = 1 optionals only, alternating processors, backups
  postponed by θ_i.
* :class:`SingleProcessorFP`      -- plain FP substrate (no sparing).
"""

from .base import run_policy
from .mkss_st import MKSSStatic
from .mkss_dp import MKSSDualPriority
from .greedy import MKSSGreedy
from .selective import MKSSSelective
from .hybrid import MKSSHybrid, selective_execution_rate
from .fp import SingleProcessorFP
from .reexecution import ReExecutionFP

__all__ = [
    "run_policy",
    "MKSSStatic",
    "MKSSDualPriority",
    "MKSSGreedy",
    "MKSSSelective",
    "MKSSHybrid",
    "selective_execution_rate",
    "SingleProcessorFP",
    "ReExecutionFP",
]
