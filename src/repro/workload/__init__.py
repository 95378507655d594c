"""Workloads beyond TPC-C, behind one registry API.

:mod:`repro.workload.registry` catalogues every workload the experiment
layers can drive — ``tpcc`` (the paper's), ``tpch-scan`` (sequential-scan
analytics for the §3.3 scan-resistance experiments) and ``ycsb``
(Zipf-skewed point access with a Flashield-style write-churn preset) —
mirroring the flash-cache policy registry's shape: one frozen entry per
workload with a schema/loader, a driver factory and validated knobs.
"""

from repro.workload.registry import (
    TPCC_SPEC,
    WorkloadEntry,
    WorkloadSpec,
    available_workloads,
    estimate_workload_pages,
    get_workload_entry,
    load_workload,
    make_workload,
    workload_spec,
)
from repro.workload.synthetic import KV_SCHEMA, ZipfGenerator

__all__ = [
    "KV_SCHEMA",
    "TPCC_SPEC",
    "WorkloadEntry",
    "WorkloadSpec",
    "ZipfGenerator",
    "available_workloads",
    "estimate_workload_pages",
    "get_workload_entry",
    "load_workload",
    "make_workload",
    "workload_spec",
]
