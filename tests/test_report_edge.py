"""The public API surface: root exports, subpackages, version."""

import repro


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_subpackages_re_export_nothing():
    """A name is imported from the module that defines it: a subpackage's
    namespace holds its submodules and nothing else (DESIGN.md §6)."""
    import types

    import repro.analysis
    import repro.buffer
    import repro.core
    import repro.db
    import repro.flashcache
    import repro.recovery
    import repro.sim
    import repro.storage
    import repro.tpcc
    import repro.wal
    import repro.workload

    for module in (
        repro.analysis, repro.buffer, repro.core, repro.db, repro.flashcache,
        repro.recovery, repro.sim, repro.storage, repro.tpcc, repro.wal,
        repro.workload,
    ):
        assert not hasattr(module, "__all__"), module.__name__
        for name, value in vars(module).items():
            if not name.startswith("__"):
                assert isinstance(value, types.ModuleType), f"{module.__name__}.{name}"


def test_version_is_semver_like():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)
