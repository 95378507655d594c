"""Mini page-based storage engine: pages, heaps, catalog, durable hash index.

Just enough of a storage engine to host TPC-C under the paper's I/O paths:
slotted :class:`~repro.db.page.Page` objects with page LSNs (the redo
guard), heap files with RID allocation, a catalog mapping tables and
indexes to page ranges, a bucket-per-page hash index, and
physical-consistency checkers (:mod:`~repro.db.verify`).  All I/O goes
through the buffer/cache layers; nothing here talks to a device directly.
"""
