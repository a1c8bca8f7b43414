"""Count the code lines of the package, by file and in total.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the leading string of a module, class or function).
Blank lines, comment lines and docstrings are not counted; a line with
code and a trailing comment is.

Run from anywhere, with `python3 tests/code_lines.py [DIR]`; DIR defaults
to src/numsem of the checkout this script lives in.
"""

import ast
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of the tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """The number of code lines of one Python source file."""
    with tokenize.open(path) as f:
        source = f.read()
    docs = docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in SKIP:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> None:
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).parents[1] / "src" / "numsem"
    counts = {path.stem: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name:<12} {count:>6,}")
    print(f"{'total':<12} {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
