"""Write-ahead logging: records, LSNs, commit-time force, crash semantics.

FaCE deliberately changes *nothing* about logging (Section 4) — so this
package implements the standard discipline the paper assumes: typed log
records with LSNs and byte sizes (:mod:`~repro.wal.records`), and a
:class:`~repro.wal.log.LogManager` enforcing the WAL rule (force before
any dirty page reaches a non-volatile tier), commit-time group force onto
a dedicated log device, full-page-write tracking, checkpoint-driven log
truncation, and lose-the-tail crash semantics.
"""
