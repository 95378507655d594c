"""Workloads beyond TPC-C, behind one registry API.

:mod:`repro.workload.registry` catalogues every workload the experiment
layers can drive — ``tpcc`` (the paper's), ``tpch-scan`` (sequential-scan
analytics for the §3.3 scan-resistance experiments) and ``ycsb``
(Zipf-skewed point access with a Flashield-style write-churn preset) —
mirroring the flash-cache policy registry's shape: one frozen entry per
workload with a schema/loader, a driver factory and validated knobs.
"""
