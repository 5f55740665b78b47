"""Print the size of each Python file under a directory, in two columns:

  * lines: what ``wc -l`` counts;
  * code: lines that hold a token other than a comment or a docstring
    (a string that is a statement by itself); blank lines hold none.

    python3 tools/src_size.py src/pbnc

prints a Markdown table, one row per file and a total.  Deleting a comment
or a docstring leaves the code column as it is, so a change that shrinks
the program shows there.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source."""
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the tokens of one logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return source.count("\n"), len(code)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("directory", type=Path)
    args = p.parse_args(argv)
    print("| file | lines | code |\n| --- | --- | --- |")
    total = [0, 0]
    for path in sorted(args.directory.rglob("*.py")):
        lines, code = count(path.read_text())
        total = [total[0] + lines, total[1] + code]
        print(f"| {path.relative_to(args.directory)} | {lines} | {code} |")
    print(f"| total | {total[0]} | {total[1]} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
