"""tests/src_lines.py sorts lines into code, docstring, comment and blank,
and counts syntax-tree nodes."""

from src_lines import line_kinds, node_count


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
