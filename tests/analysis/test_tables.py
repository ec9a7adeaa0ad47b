"""Tests for table rendering."""

import pytest

from repro.analysis.tables import Table


class TestTable:
    def test_render_alignment(self):
        t = Table(["name", "value"], title="T")
        t.add_row("a", 1)
        t.add_row("longer-name", 2.5)
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        # All rows align to the same width.
        assert len(lines[3]) <= len(lines[1]) + 2

    def test_wrong_cell_count_rejected(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_markdown(self):
        t = Table(["a", "b"], title="MD")
        t.add_row(1, 2)
        md = t.render_markdown()
        assert "| a | b |" in md
        assert "|---|---|" in md
        assert "| 1 | 2 |" in md

    def test_markdown_escapes_pipes_in_cells(self):
        t = Table(["paper |V|", "b"])
        t.add_row("x|y", 2)
        md = t.render_markdown()
        assert md.splitlines()[0] == r"| paper \|V\| | b |"
        assert md.splitlines()[2] == r"| x\|y | 2 |"

    def test_float_formatting(self):
        t = Table(["x"])
        t.add_row(0.5)
        t.add_row(1234.5678)
        t.add_row(0.000001)
        t.add_row(0)
        cells = [row[0] for row in t.rows]
        assert cells[0] == "0.5"
        assert cells[1] == "1.23e+03"
        assert cells[2] == "1e-06"
        assert cells[3] == "0"

    def test_str_is_render(self):
        t = Table(["a"])
        t.add_row("x")
        assert str(t) == t.render()
