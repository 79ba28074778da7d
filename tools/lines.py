"""Line counts of a package's modules: ``wc -l`` and code-only.

Code-only lines are the lines that some token spans, leaving out comments,
blank lines and string-only statements (docstrings).  Run from the repo
root:

    python tools/lines.py [package directory, default src/pfhaf]

It prints one row per module and a total row: name, ``wc -l``, code-only.
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def counts(source: str) -> tuple[int, int]:
    """(``wc -l``, code-only lines) of the Python ``source``."""
    code, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return source.count("\n"), len(code)


def main(argv) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/pfhaf")
    rows = [(p.name, *counts(p.read_text())) for p in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
