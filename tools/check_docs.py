#!/usr/bin/env python3
"""Documentation consistency checks (CI `docs` job).

Four checks:

1. Relative markdown links in README.md, EXPERIMENTS.md, DESIGN.md and
   docs/*.md must point at files that exist.
2. Every row of the observation table in docs/OBSERVATIONS.md must
   cite a model-source file and a test file that contain a literal
   ``O<n>`` tag comment, the cited bench file must exist, and the
   table must cover all of O1..O14.
3. Each registry table named in REGISTRIES must document exactly the
   entries of its X-macro, in registry order, with the registered
   value in every compared column: the lint rules (severity), the
   fault clauses (syntax), the DRAMSCOPE_FASTPATH modes, the mc
   open-row policies (knobs), the mitigations (knobs) and the mc
   workloads.
4. README.md's subsystem documentation index must link every file
   under docs/ (no undocumented doc can be added silently).

Exits non-zero with one line per problem.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK_CHECKED = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]
OBSERVATIONS = "docs/OBSERVATIONS.md"
ALL_TAGS = [f"O{n}" for n in range(1, 15)]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ROW_RE = re.compile(r"^\|\s*(O\d+)\s*\|")
PATH_RE = re.compile(r"`([^`]+)`")

# The registry tables: (header, X-macro, doc, "## " section of the
# table, compared columns).  A table row documents one X(...) entry:
# its first cell is the entry's id (its second argument) in
# backticks, then come the compared columns, each equal to the
# argument after the id, then the description.
REGISTRIES = [
    ("src/bender/lint.h", "DRAMSCOPE_LINT_RULES", "docs/LINT_RULES.md",
     "Rules", ["severity"]),
    ("src/dram/faulty_device.h", "DRAMSCOPE_FAULT_CLAUSES",
     "docs/RESILIENCE.md", "Fault grammar", ["syntax"]),
    ("src/dram/device.h", "DRAMSCOPE_FASTPATH_MODES", "README.md",
     "Fast-forward execution of hammer loops", []),
    ("src/mc/mc.h", "DRAMSCOPE_MC_POLICIES", "docs/MC.md",
     "Open-row policies", ["knobs"]),
    ("src/core/protect/mitigation.h", "DRAMSCOPE_MITIGATIONS",
     "docs/MC.md", "Mitigations", ["knobs"]),
    ("src/mc/workload.h", "DRAMSCOPE_MC_WORKLOADS", "docs/MC.md",
     "Workloads and traces", []),
]
# X-macro tokens: a string literal, a word, or punctuation.
MACRO_TOKEN_RE = re.compile(r'"((?:[^"\\]|\\.)*)"|(\w+)|([(),])')
# A registry table row: | `id` | cells... |
TABLE_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|(.*)\|\s*$")


def check_links(md_path: Path, errors: list) -> None:
    text = md_path.read_text(encoding="utf-8")
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        resolved = (md_path.parent / target).resolve()
        if not resolved.exists():
            errors.append(f"{md_path.relative_to(REPO)}: broken link "
                          f"-> {target}")


def check_observations(errors: list) -> None:
    obs_path = REPO / OBSERVATIONS
    if not obs_path.exists():
        errors.append(f"{OBSERVATIONS}: missing")
        return

    seen = {}
    for line in obs_path.read_text(encoding="utf-8").splitlines():
        m = ROW_RE.match(line)
        if not m:
            continue
        tag = m.group(1)
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 5:
            errors.append(f"{OBSERVATIONS}: {tag}: row has "
                          f"{len(cells)} cells, expected 5")
            continue
        paths = []
        for cell in cells[2:5]:
            cited = PATH_RE.findall(cell)
            if len(cited) != 1:
                errors.append(f"{OBSERVATIONS}: {tag}: expected one "
                              f"backticked path per cell, got: {cell}")
                paths.append(None)
            else:
                paths.append(cited[0])
        seen[tag] = paths

    for tag in ALL_TAGS:
        if tag not in seen:
            errors.append(f"{OBSERVATIONS}: no table row for {tag}")

    tag_re_cache = {}
    for tag, paths in sorted(seen.items()):
        source, test, bench = paths
        # Source and test must carry the literal tag; the bench is
        # only required to exist (figure benches cover tag ranges).
        for role, rel in (("source", source), ("test", test)):
            if rel is None:
                continue
            path = REPO / rel
            if not path.exists():
                errors.append(f"{OBSERVATIONS}: {tag}: {role} file "
                              f"missing: {rel}")
                continue
            pattern = tag_re_cache.setdefault(
                tag, re.compile(rf"\b{tag}\b"))
            if not pattern.search(path.read_text(encoding="utf-8")):
                errors.append(f"{OBSERVATIONS}: {tag}: {role} file "
                              f"{rel} has no literal {tag} tag")
        if bench is not None and not (REPO / bench).exists():
            errors.append(f"{OBSERVATIONS}: {tag}: bench file "
                          f"missing: {bench}")


def xmacro_entries(header: str, macro: str, errors: list) -> list:
    """The arguments of each X(...) entry of `macro`, registry order.

    Adjacent string literals join into one argument.  Unquoted
    arguments (enumerators, such as a severity) are read in lower
    case, as the docs write them.
    """
    path = REPO / header
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    marker = f"#define {macro}(X)"
    start = text.find(marker)
    if start < 0:
        errors.append(f"{header}: {macro} macro not found")
        return []
    # The macro body is the run of backslash-continued lines.
    body = []
    for line in text[start + len(marker):].splitlines():
        body.append(line)
        if not line.rstrip().endswith("\\"):
            break
    entries, args = [], None
    for string, word, punct in MACRO_TOKEN_RE.findall("\n".join(body)):
        if args is None:
            if punct == "(" and word == "":
                args = [""]
        elif punct == ",":
            args.append("")
        elif punct == ")":
            entries.append(args)
            args = None
        else:
            args[-1] += string or word.lower()
    if not entries:
        errors.append(f"{header}: no X(...) entries parsed from {macro}")
    return entries


def doc_table(doc: str, section: str, errors: list) -> list:
    """(line index, cells) of the registry rows in ``## <section>``.

    The first cell is the id without its backticks; the others are
    stripped of surrounding space and backticks.
    """
    path = REPO / doc
    if not path.exists():
        errors.append(f"{doc}: missing")
        return []
    rows, in_section, found = [], False, False
    for index, line in enumerate(path.read_text(encoding="utf-8")
                                 .splitlines()):
        if line.startswith("## "):
            in_section = line[3:].strip() == section
            found = found or in_section
            continue
        m = TABLE_ROW_RE.match(line.strip()) if in_section else None
        if m:
            rows.append((index, [m.group(1)] + [
                cell.strip().strip("`") for cell in m.group(2).split("|")]))
    if not found:
        errors.append(f"{doc}: no '## {section}' section")
    return rows


def check_registry(header: str, macro: str, doc: str, section: str,
                   columns: list, errors: list) -> None:
    """One doc table against the X-macro it documents."""
    registered = {args[1]: args[2:2 + len(columns)]
                  for args in xmacro_entries(header, macro, errors)}
    documented = {}
    for _, cells in doc_table(doc, section, errors):
        rid = cells[0]
        if rid in documented:
            errors.append(f"{doc}: {rid}: documented twice")
        documented[rid] = cells[1:1 + len(columns)]
        if len(cells) != len(columns) + 2 or not cells[-1]:
            errors.append(f"{doc}: {rid}: expected {len(columns) + 2} "
                          f"cells ending in a description")
    for rid in registered:
        if rid not in documented:
            errors.append(f"{doc}: {macro} entry '{rid}' has no table "
                          f"row")
    for rid in documented:
        if rid not in registered:
            errors.append(f"{doc}: documents '{rid}', which {macro} in "
                          f"{header} does not register")
            continue
        for name, want, got in zip(columns, registered[rid],
                                   documented[rid]):
            if want != got:
                errors.append(f"{doc}: {rid}: documented {name} '{got}' "
                              f"!= registered '{want}'")
    if registered.keys() == documented.keys() and \
            list(registered) != list(documented):
        errors.append(f"{doc}: table rows are not in {macro} order")


def check_readme_doc_index(errors: list) -> None:
    """README's subsystem index must link every docs/*.md file."""
    readme = REPO / "README.md"
    if not readme.exists():
        return  # Reported by the link pass already.
    text = readme.read_text(encoding="utf-8")
    for path in sorted((REPO / "docs").glob("*.md")):
        rel = f"docs/{path.name}"
        if rel not in text:
            errors.append(f"README.md: subsystem index does not link "
                          f"{rel}")


def main() -> int:
    errors = []
    for name in LINK_CHECKED:
        path = REPO / name
        if path.exists():
            check_links(path, errors)
        else:
            errors.append(f"{name}: missing")
    for path in sorted((REPO / "docs").glob("*.md")):
        check_links(path, errors)
    check_observations(errors)
    for registry in REGISTRIES:
        check_registry(*registry, errors)
    check_readme_doc_index(errors)

    if errors:
        for err in errors:
            print(f"check_docs: {err}", file=sys.stderr)
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_docs: all links resolve, O1..O14 all mapped and tagged, "
          f"{len(REGISTRIES)} registry tables in sync, README indexes "
          f"every docs/ file")
    return 0


if __name__ == "__main__":
    sys.exit(main())
