"""Every relative Markdown link in the prose docs resolves.

A link names a file that exists, and a ``#fragment`` names a heading of
the target (or of the same page) under GitHub's slug rule, so deleting or
renaming a section fails here instead of leaving a dead link behind.
"""

from __future__ import annotations

import pathlib
import re
from collections import Counter
from typing import Iterator, List, Set, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = sorted(
    [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    + list((ROOT / "docs").glob("*.md"))
)
LINK = re.compile(r"(?<!!)\[(?:[^\[\]]|\[[^\]]*\])*\]\(([^()\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
EXTERNAL = re.compile(r"^[a-z][a-z0-9+.-]*:", re.IGNORECASE)


def prose(path: pathlib.Path) -> Iterator[Tuple[int, str]]:
    """Numbered lines outside fenced code blocks."""
    fenced = False
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith(("```", "~~~")):
            fenced = not fenced
        elif not fenced:
            yield number, line


def slug(heading: str) -> str:
    """GitHub's anchor for a heading: link text kept, lower case, every
    character but letters, digits, ``_``, ``-`` and spaces dropped, spaces
    turned into hyphens."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading).strip().lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def anchors(path: pathlib.Path) -> Set[str]:
    seen: Counter = Counter()
    out = set()
    for _, line in prose(path):
        match = HEADING.match(line)
        if match:
            base = slug(match.group(1))
            out.add(base if not seen[base] else f"{base}-{seen[base]}")
            seen[base] += 1
    return out


def broken(path: pathlib.Path, root: pathlib.Path = ROOT) -> List[str]:
    """Dead links of one page.  A path that climbs out of ``root`` is a
    route of the hosting site (the CI badge's ``../../actions/...``), not
    a file of the repository, and is left alone."""
    problems = []
    for number, line in prose(path):
        for target in LINK.findall(re.sub(r"`[^`]*`", "", line)):
            if EXTERNAL.match(target):
                continue
            name, _, fragment = target.partition("#")
            linked = (path.parent / name).resolve() if name else path
            if root.resolve() not in linked.parents and linked != root.resolve():
                continue
            where = f"{path.name}:{number}: {target}"
            if not linked.exists():
                problems.append(f"{where} (no such file)")
            elif fragment and fragment not in anchors(linked):
                problems.append(f"{where} (no such heading)")
    return problems


@pytest.mark.parametrize("path", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_relative_link_resolves(path):
    assert broken(path) == []


def test_the_slug_rule_matches_headings_the_docs_link_to():
    assert slug("Kept / cut (measured)") == "kept--cut-measured"
    assert slug("How a stamp is stored and compared (`repro/core/timestamp.py`)") == (
        "how-a-stamp-is-stored-and-compared-reprocoretimestamppy"
    )
    assert slug("See [the kernel](simulation-kernel.md) — twice") == "see-the-kernel--twice"


def test_a_dead_anchor_is_reported(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("# Title\n\n## A section\n\n[ok](#a-section) [gone](#old-section)\n"
                    "```\n[in code](#nowhere)\n```\n")
    other = tmp_path / "other.md"
    other.write_text("[ok](page.md#title) [missing](absent.md)\n")
    assert broken(page, tmp_path) == ["page.md:5: #old-section (no such heading)"]
    assert broken(other, tmp_path) == ["other.md:1: absent.md (no such file)"]
