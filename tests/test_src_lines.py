"""tests/src_lines.py sorts lines into code, docstring, comment and blank,
counts syntax-tree nodes and measures compile peaks; no module of
src/hkrees passes the node cap."""

from pathlib import Path

from src_lines import compile_peak, line_kinds, node_count


def test_line_kinds_splits_code_docstrings_comments_and_blanks():
    text = ('"""Module."""\n\n# note\ndef f():\n    """Doc\n    more."""\n'
            '    s = """not a\n    docstring"""\n    return s  # trailing\n')
    assert line_kinds(text) == {"code": 4, "docstring": 3, "comment": 1, "blank": 1}


def test_node_count_walks_the_whole_tree():
    # Module, Assign, Name, Store, Constant
    assert node_count("x = 1\n") == 5
    # a comment and a blank line add no node; a docstring adds Expr, Constant
    assert node_count("# note\n\nx = 1\n") == 5
    assert node_count('"""Doc."""\nx = 1\n') == 7


def test_compile_peak_grows_with_the_source():
    one = compile_peak("x = 1\n")
    assert 0 < one < compile_peak("x = 1\n" * 1000)


def test_no_module_passes_the_compile_peak_cap():
    """No module of src/hkrees parses into more syntax-tree nodes than
    lattice.py's 3,547, the cap on the peak cost of compiling one module."""
    src = Path(__file__).resolve().parents[1] / "src" / "hkrees"
    counts = {path.name: node_count(path.read_text(encoding="utf-8"))
              for path in sorted(src.glob("*.py"))}
    assert counts and max(counts.values()) <= 3547, counts
