"""Hierarchical scheduling: BDR resource interfaces for partitions.

ARINC-653 style systems bind threads to *virtual processors* -- budgeted
partitions of a physical processor.  This package abstracts each
partition's server by a bounded-delay resource interface ``(alpha,
delta)``, checks the partition's demand against the interface's supply
bound function analytically, and falls back to an exact supply-aware
flattened simulation when the (sufficient) interface check cannot
settle a partition.  See ``docs/hier.md``.
"""

from repro.hier.analysis import analyze_hier
from repro.hier.check import (
    PartitionCheck,
    check_partition,
    check_partition_edf,
    check_partition_fp,
)
from repro.hier.flatten import (
    DEFAULT_MAX_WINDOW,
    FlattenedRun,
    simulate_partition,
)
from repro.hier.interface import HIER_FAULTS, BdrInterface

__all__ = [
    "BdrInterface",
    "HIER_FAULTS",
    "PartitionCheck",
    "FlattenedRun",
    "DEFAULT_MAX_WINDOW",
    "analyze_hier",
    "check_partition",
    "check_partition_edf",
    "check_partition_fp",
    "simulate_partition",
]
