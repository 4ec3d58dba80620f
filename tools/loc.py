"""Total and code lines of every Python module under a source directory.

Usage: python3 tools/loc.py <src>

Prints one line per module under <src> (searched recursively, in path
order): its path relative to <src>, its total lines and its code lines.
The last line is the totals.  A code line holds at least one token that is
neither a comment nor a module, class or function docstring, so blank
lines, comment-only lines and docstrings do not count; a line of a
multi-line string that is not a docstring does.  Standard library only;
exits 2 on a usage error.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_spans(tree):
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def count(text):
    """(total lines, code lines) of one module's source text."""
    spans = docstring_spans(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in NOT_CODE:
            continue
        if any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv):
    if len(argv) != 2 or not Path(argv[1]).is_dir():
        print("usage: python3 tools/loc.py <src>", file=sys.stderr)
        return 2
    root = Path(argv[1])
    totals = [0, 0]
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{str(path.relative_to(root)):32s} {lines:6,} {code:6,}")
    print(f"{'total':32s} {totals[0]:6,} {totals[1]:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
