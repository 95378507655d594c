"""Documentation integrity: the docs must reference real artefacts.

DESIGN.md's per-experiment index and README's benchmark section name
record passes and modules; these tests keep them from drifting as the code
evolves.
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE"):
        assert (ROOT / name).exists(), name


def record_passes() -> set[str]:
    """The pass names of ``benchmarks/record.py``'s ``PASSES`` table."""
    spec = importlib.util.spec_from_file_location(
        "record_for_docs", ROOT / "benchmarks" / "record.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return set(module.PASSES)


def test_readme_names_every_record_pass():
    readme = read("README.md")
    for name in record_passes():
        assert f"`{name}`" in readme, f"pass {name} missing from README.md"


def test_every_design_bench_target_is_a_record_pass():
    design = read("DESIGN.md")
    index = design[design.index("## 4. Per-experiment index"):design.index("## 5.")]
    rows = [
        line for line in index.splitlines()
        if line.startswith("| ") and not line.startswith("| Exp")
    ]
    assert rows, "DESIGN.md §4 has no experiment rows"
    passes = record_passes()
    for row in rows:
        target = row.rstrip(" |").rsplit(" | ", 1)[-1]
        match = re.fullmatch(r"`record\.py (\w+)`", target)
        assert match and match.group(1) in passes, (
            f"DESIGN.md §4 bench target {target!r} names no record pass"
        )


def test_no_doc_names_a_deleted_harness():
    docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
    docs += [str(path.relative_to(ROOT)) for path in (ROOT / "docs").glob("*.md")]
    for doc in docs:
        text = read(doc)
        for pattern in (r"bench_[\w{},]*\.py", r"REPRO_BENCH_\w*", r"pytest-benchmark"):
            found = re.findall(pattern, text)
            assert not found, f"{doc} names {found[0]}"


def test_design_module_map_matches_source_tree():
    design = read("DESIGN.md")
    for module in (ROOT / "src" / "repro").rglob("*.py"):
        if module.name in ("__init__.py", "__main__.py"):
            continue
        assert module.name in design, (
            f"src module {module.relative_to(ROOT)} missing from DESIGN.md"
        )


def test_readme_examples_exist():
    readme = read("README.md")
    for name in re.findall(r"examples/([a-z_]+\.py)", readme):
        assert (ROOT / "examples" / name).exists(), name
    for path in (ROOT / "examples").glob("*.py"):
        assert path.name in readme, f"example {path.name} not advertised"


def test_experiments_covers_every_paper_artifact():
    experiments = read("EXPERIMENTS.md")
    for artifact in (
        "Table 1", "Table 3", "Table 4", "Table 5", "Table 6",
        "Figure 4", "Figure 5", "Figure 6", "2.2",
    ):
        assert artifact in experiments, f"{artifact} missing from EXPERIMENTS.md"


def test_experiments_stays_under_its_line_cap():
    # The paper's artefacts and their status; host-cost run logs live in
    # git history and CHANGES.md, one table row per change here.
    lines = read("EXPERIMENTS.md").count("\n")
    assert lines <= 800, f"EXPERIMENTS.md has {lines} lines (cap 800)"
