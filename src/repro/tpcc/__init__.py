"""TPC-C workload: schema, scaled population, NURand inputs, 5 transactions.

The paper's workload (Section 5.1) re-implemented for the simulator: the
nine-table TPC-C schema, a scale-profile-driven loader
(:mod:`~repro.tpcc.loader` — the paper's 50-warehouse setup shrunk to
TINY/BENCH profiles with the same ratios), spec-conformant NURand/last-name
randomness (:mod:`~repro.tpcc.random_gen`), the five transaction types with
the standard mix (:mod:`~repro.tpcc.transactions`,
:mod:`~repro.tpcc.driver`), and the TPC-C consistency conditions used as
post-recovery integrity checks (:mod:`~repro.tpcc.consistency`).
"""
