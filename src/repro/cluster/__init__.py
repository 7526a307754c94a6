"""Multi-client experiment harness.

The paper's testbed runs one database VM per compute server, all sharing a
single emulated CSD.  This package wires the same topology together over the
simulator: a set of :class:`~repro.cluster.client.ClientSpec` tenants (each
running either the Skipper executor or the vanilla pull-based executor over
its own tenant dataset), one shared
:class:`~repro.csd.device.ColdStorageDevice`, and the metrics needed to
reproduce the figures: average/cumulative execution time, the
switch/transfer/processing breakdown, stretch and the L2 norm of stretch.
"""

from repro.cluster.client import ClientSpec
from repro.cluster.cluster import ClusterConfig, ClusterResult
from repro.cluster.metrics import (
    ExecutionBreakdown,
    attribute_waiting,
    imbalance_coefficient,
    jain_fairness,
    l2_norm,
    max_stretch,
    merge_intervals,
    percentile,
    stretches,
)

__all__ = [
    "ClientSpec",
    "ClusterConfig",
    "ClusterResult",
    "ExecutionBreakdown",
    "attribute_waiting",
    "imbalance_coefficient",
    "jain_fairness",
    "l2_norm",
    "max_stretch",
    "merge_intervals",
    "percentile",
    "stretches",
]
