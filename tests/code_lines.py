"""Print the code lines of each module in src/cryomux/: the lines that hold
anything other than blanks, comments and docstrings, as `wc -l` prints its
counts, with a total. It only reports.

    python3 tests/code_lines.py

pytest does not collect this file (its name does not start with test_).
"""
import ast
import io
import tokenize
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src" / "cryomux"
# tokens that make no line a code line on their own
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of source that a token other than layout, a comment
    or a docstring touches."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main():
    total = 0
    for path in sorted(SRC_DIR.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.relative_to(SRC_DIR.parents[1])}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
