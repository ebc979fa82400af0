#!/usr/bin/env python
"""Docs link/staleness checker (CI docs job).

Scans the repository's Markdown documentation (README.md, docs/*.md,
CHANGES.md) and fails when it references things that do not exist:

* relative Markdown links — ``[text](path)`` — whose target file is
  missing (http/https/mailto and ``#`` anchors are skipped);
* inline code spans that look like repository paths — `repro/shard/`,
  `benchmarks/bench_fig3_accuracy_deletions.py`,
  `repro/core/counting.py::count_with_mirror` — whose file or
  directory is missing (tried relative to the repo root, then src/).

Fenced code blocks are ignored (shell transcripts are not references).

It also scans the Python files under src/ and benchmarks/ for ``*.md``
names (in docstrings and comments) that resolve nowhere — tried
relative to the file, the repo root, src/ and docs/ — so code cannot
cite a document that does not exist.

Run from anywhere: ``python tools/check_links.py``.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Iterable, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_PATHLIKE = re.compile(r"^[A-Za-z0-9_.\-/]+$")
_MD_NAME = re.compile(r"[A-Za-z0-9_./\-]*[A-Za-z0-9_\-]\.md\b")


def _markdown_files() -> List[pathlib.Path]:
    files = [REPO_ROOT / "README.md", REPO_ROOT / "CHANGES.md"]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def _python_files() -> List[pathlib.Path]:
    files: List[pathlib.Path] = []
    for top in ("src", "benchmarks"):
        files += sorted((REPO_ROOT / top).rglob("*.py"))
    return files


def _strip_fenced_blocks(text: str) -> str:
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            out.append(line)
    return "\n".join(out)


def _resolves(base: pathlib.Path, token: str) -> bool:
    token = token.split("::", 1)[0].rstrip("/")
    if not token:
        return True
    candidates = (base / token, REPO_ROOT / token, REPO_ROOT / "src" / token)
    return any(c.exists() for c in candidates)


def _pathlike_spans(text: str) -> Iterable[str]:
    for span in _CODE_SPAN.findall(text):
        candidate = span.split("::", 1)[0]
        if "/" not in candidate or not _PATHLIKE.match(candidate):
            continue
        if candidate.endswith((".py", ".md")) or candidate.endswith("/"):
            yield span


def check_file(path: pathlib.Path) -> List[Tuple[str, str]]:
    """Return (kind, reference) problems found in one Markdown file."""
    text = _strip_fenced_blocks(path.read_text(encoding="utf-8"))
    problems = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        clean = target.split("#", 1)[0]
        if clean and not _resolves(path.parent, clean):
            problems.append(("broken link", target))
    for span in _pathlike_spans(text):
        if not _resolves(path.parent, span):
            problems.append(("missing path", span))
    return problems


def check_python_file(path: pathlib.Path) -> List[Tuple[str, str]]:
    """Return ("missing document", name) for ``*.md`` names in one
    Python file that resolve nowhere."""
    problems = []
    for name in _MD_NAME.findall(path.read_text(encoding="utf-8")):
        if name.startswith("/"):  # an absolute path or a URL's tail
            continue
        candidates = (
            path.parent / name,
            REPO_ROOT / name,
            REPO_ROOT / "src" / name,
            REPO_ROOT / "docs" / name,
        )
        if not any(c.exists() for c in candidates):
            problems.append(("missing document", name))
    return problems


def main() -> int:
    failures = 0
    checks = [(path, check_file) for path in _markdown_files()]
    checks += [(path, check_python_file) for path in _python_files()]
    for path, check in checks:
        for kind, reference in check(path):
            rel = path.relative_to(REPO_ROOT)
            print(f"{rel}: {kind}: {reference}", file=sys.stderr)
            failures += 1
    if failures:
        print(
            f"{failures} documentation reference(s) are stale",
            file=sys.stderr,
        )
        return 1
    print(f"docs OK ({len(checks)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
