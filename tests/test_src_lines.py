"""tests/src_lines.py sorts lines into code, docstring, comment and blank."""

from src_lines import line_kinds


def test_line_kinds_splits_code_docstrings_comments_and_blanks():
    text = ('"""Module."""\n\n# note\ndef f():\n    """Doc\n    more."""\n'
            '    s = """not a\n    docstring"""\n    return s  # trailing\n')
    assert line_kinds(text) == {"code": 4, "docstring": 3, "comment": 1, "blank": 1}
