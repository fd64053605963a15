"""Print the code, docstring, comment and blank lines of each module in
src/hkrees, its syntax-tree node count and its compile peak, and the totals
of all but the peak.

    python tests/src_lines.py            # the package next to this file
    python tests/src_lines.py DIR        # the modules in another directory

A docstring line is a line of a module, class or function docstring; a
comment line holds a comment and no code; a blank line holds nothing.
Every other line is code, including the lines of a multi-line string that
is not a docstring.  The node count is the number of nodes that
`ast.walk` visits in the parsed module.  The compile peak, printed in MB,
is the most memory that `tracemalloc` sees in use while `compile` turns
the module's source into a code object.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
import tracemalloc
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def line_kinds(text: str) -> dict[str, int]:
    """How many lines of the Python source `text` are of each kind."""
    doc = _docstring_lines(ast.parse(text))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for i in range(1, len(text.splitlines()) + 1):
        kind = ("docstring" if i in doc else "code" if i in code
                else "comment" if i in comment else "blank")
        counts[kind] += 1
    return counts


def node_count(text: str) -> int:
    """How many syntax-tree nodes the Python source `text` parses into."""
    return sum(1 for _ in ast.walk(ast.parse(text)))


def compile_peak(text: str) -> int:
    """Peak bytes allocated while compiling the Python source `text`."""
    tracemalloc.start()
    try:
        compile(text, "<module>", "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "hkrees"
    columns = (*KINDS, "nodes")
    total = dict.fromkeys(columns, 0)
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in columns) + f"{'peak_MB':>10}")
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts = {**line_kinds(text), "nodes": node_count(text)}
        for k in columns:
            total[k] += counts[k]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in columns)
              + f"{compile_peak(text) / 1e6:>10.2f}")
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
