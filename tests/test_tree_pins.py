"""Tree-wide pins: env flags, the frozen benchmark's imports, deleted names.

Cheap whole-tree checks a deletion PR trips before the benchmark does:

* the ``REPRO_*`` environment variables named under ``src/`` are exactly
  the documented three — a new escape hatch (or a stale mention of a
  deleted one) fails here;
* everything ``perf/*.py`` imports from ``repro`` still resolves, and the
  traced pass can still find every function it wraps.  ``perf/`` is frozen
  between ``benchmark`` PRs, so ``src/`` has to keep those names;
* what the function census found no workload executing, and deleted
  (DESIGN.md §15), stays deleted.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"

#: Owner -> names deleted because only tests and examples reached them.
DELETED = {
    "repro.db": ("BTreeIndex",),
    "repro.db.index:HashIndex": ("insert", "delete"),
    "repro.db.index:PageAccessor": ("update_slot",),
    "repro.core.dbms": ("TxPageAccessor",),
    "repro.core.dbms:SimulatedDBMS": ("update_slot", "tx_accessor", "create_btree_index"),
    "repro.db.page": (
        "_RUN_TAGGED", "_pack_tagged", "_unpack_tagged", "_slot_shape",
        "_encode_value", "_decode_value",
    ),
    "repro.storage.codec": ("_KIND_VALUE", "_encode_value", "_decode_value"),
    # Reached by nothing at all, tests included.
    "repro.tpcc.random_gen:TpccRandom": ("amount", "choice"),
    "repro.tpcc.transactions": ("_replace",),
    "repro.tpcc.loader:TpccDatabase": ("db_pages",),
    "repro.db.schema:TableSchema": ("row_width", "column_names"),
    "repro.workload.registry:WorkloadSpec": ("knob_dict",),
    "repro.obs.registry:MetricRegistry": ("metrics",),
}

ENV_FLAGS = {
    "REPRO_TRACE_CACHE",
    "REPRO_OBS",
    "REPRO_REPLAY_WARMFORK",
}


def test_env_flags_under_src_are_exactly_the_documented_three():
    named = set()
    for path in (ROOT / "src").rglob("*.py"):
        named.update(re.findall(r"\bREPRO_[A-Z0-9_]+", path.read_text()))
    assert named == ENV_FLAGS


def _repro_imports(tree: ast.AST):
    """``(module, attribute-or-None)`` for every static ``repro`` import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    yield alias.name, None
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", "")) == "import_module"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("repro")
        ):
            yield node.args[0].value, None


def test_perf_imports_from_repro_resolve():
    checked = 0
    for path in sorted(PERF.glob("*.py")):
        for module_name, attribute in _repro_imports(ast.parse(path.read_text())):
            module = importlib.import_module(module_name)
            if attribute is not None and not hasattr(module, attribute):
                # ``from package import submodule``
                importlib.import_module(f"{module_name}.{attribute}")
            checked += 1
    assert checked > 30  # the walk found perf/'s imports, not nothing


def test_perf_tracing_targets_resolve():
    # targets() imports every wrapped class and module (its one dynamic
    # ``import_module(f"repro.sim.{name}")`` included).  install() then reads
    # ``vars(owner)[name]``: a module-level function that moved raises
    # KeyError in the middle of a traced pass, while a method that moved is
    # silently left unwrapped — so the replay-side names are listed here.
    spec = importlib.util.spec_from_file_location("_perf_tracing", PERF / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets()
    for layer, owner, name in targets:
        assert name in vars(owner), f"{layer}: {owner!r} lost {name!r}"
    wrapped = {(owner.__name__, name) for _, owner, name in targets}
    assert wrapped >= {
        ("ReplayRunner", "warm_up"),
        ("ReplayRunner", "measure"),
        ("ReplayRunner", "step"),
        ("repro.sim.replay", "fork_dbms"),
        ("repro.sim.replay", "fork_database"),
    }


def test_deleted_names_stay_deleted():
    assert importlib.util.find_spec("repro.db.btree") is None
    assert not (ROOT / "examples" / "range_queries.py").exists()
    for owner, names in DELETED.items():
        module_name, _, attribute = owner.partition(":")
        target = importlib.import_module(module_name)
        if attribute:
            target = getattr(target, attribute)
        for name in names:
            assert not hasattr(target, name), f"{owner}.{name} is back"
