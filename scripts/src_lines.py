"""Count the code lines of every module under src/.

A code line holds at least one token that is not a comment and does not
lie inside a docstring (the leading string of a module, class or
function). Blank lines, comment-only lines and docstring lines are left
out. Prints one line per module and the total.

    python3 scripts/src_lines.py [ROOT]

ROOT defaults to the src/ directory next to this script.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docs = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", nargs="?", default=pathlib.Path(__file__).resolve().parent.parent / "src")
    args = ap.parse_args()
    root = pathlib.Path(args.root)
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
