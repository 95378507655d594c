"""Storage substrate: calibrated device timing models + non-volatile stores.

The device models are calibrated against Table 1 of the paper (see
:mod:`repro.storage.profiles`); the design rationale is in DESIGN.md §6.
"""
