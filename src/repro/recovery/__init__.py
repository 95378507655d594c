"""Crash recovery: the Section 4.2 restart sequence.

:class:`~repro.recovery.restart.RecoveryManager` runs the timed restart
pipeline — flash-cache metadata restore, ARIES-style analysis / redo /
undo over the durable log, and the end-of-recovery checkpoint — against a
crashed :class:`~repro.core.dbms.SimulatedDBMS`.  Redo fetches pages
through the normal data path, which is exactly where FaCE's faster
recovery comes from: a restored flash cache serves most recovery reads at
flash latency (Table 6).  Results come back as a
:class:`~repro.recovery.restart.RestartReport`.
"""
