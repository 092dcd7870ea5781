#!/usr/bin/env python3
"""Mutation test of tools/check_docs.py.

Copies the source tree, without build directories, to a temporary
directory.  check_docs.py finds the repository from its own path, so
the copied script checks the copy.  It must pass on the unmutated
copy and fail after each of these edits to every registry table: a
dropped row, an unknown row, two swapped rows, and an edited cell in
each compared column.

Exits non-zero with one line per edit the checker missed.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_docs  # noqa: E402

COPIED = ["src", "docs", "tools", "tests", "bench", "examples",
          "perfbench", "README.md", "EXPERIMENTS.md", "DESIGN.md",
          ".clang-tidy"]


def check(root: Path) -> int:
    return subprocess.run(
        [sys.executable, str(root / "tools" / "check_docs.py")],
        capture_output=True).returncode


def edits(lines: list, rows: list, columns: list) -> list:
    """(name, edited lines) for each edit of one table's rows."""
    (first, cells), (second, _) = rows[0], rows[1]
    unknown = lines[first].replace(f"`{cells[0]}`", "`no-such-entry`", 1)
    swapped = list(lines)
    swapped[first], swapped[second] = lines[second], lines[first]
    out = [("dropped row", lines[:first] + lines[first + 1:]),
           ("unknown row", lines[:first] + [unknown] + lines[first:]),
           ("swapped rows", swapped)]
    for k, name in enumerate(columns, start=1):
        parts = lines[first].split("|")
        parts[k + 1] = parts[k + 1].replace(cells[k], "x" + cells[k], 1)
        out.append((f"edited {name}",
                    lines[:first] + ["|".join(parts)] + lines[first + 1:]))
    return out


def main() -> int:
    missed = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("build*", ".bench_build",
                                        "__pycache__")
        for name in COPIED:
            src = check_docs.REPO / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=ignore)
            elif src.exists():
                shutil.copy2(src, root / name)
        if check(root) != 0:
            print("check_docs_test: the unmutated copy fails",
                  file=sys.stderr)
            return 1
        check_docs.REPO = root
        for header, macro, doc, section, columns in check_docs.REGISTRIES:
            path = root / doc
            original = path.read_text(encoding="utf-8")
            rows = check_docs.doc_table(doc, section, [])
            if len(rows) < 2:
                missed.append(f"{doc}: {macro} table has fewer than two "
                              f"rows to edit")
                continue
            for name, lines in edits(original.splitlines(), rows,
                                     columns):
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                if check(root) != 1:
                    missed.append(f"{doc}: {macro} table: {name} passed")
            path.write_text(original, encoding="utf-8")
    for line in missed:
        print(f"check_docs_test: {line}", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
