"""Table formatting helpers used by the benchmark harness."""

from repro.analysis.tables import format_table


def test_format_table_structure():
    text = format_table("Title", ["a", "b"], [(1, 2.5), ("x", 3)])
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert "a" in lines[1] and "b" in lines[1]
    assert set(lines[2]) <= {"-", "+"}
    assert "2.5" in lines[3]
    assert "x" in lines[4]


def test_format_table_thousands_separator():
    text = format_table("t", ["n"], [(1234567,)])
    assert "1,234,567" in text

