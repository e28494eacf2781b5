#!/usr/bin/env python3
"""Docs checker: every fenced python snippet must run, every link resolve.

The docs job in CI runs this over ``docs/*.md`` and ``README.md``, and
then over the sources under ``src/repro``:

* every fenced ```` ```python ```` block is executed (doctest-style) in a
  fresh namespace with ``src/`` importable.  A raised exception is
  reported with the file, 1-based snippet line and traceback -- and the
  checker keeps going, so one broken snippet never hides the others: the
  summary lists *every* failing ``file:line`` across all files.  Blocks
  tagged ```` ```python no-run ```` are skipped (none today);
* every relative markdown link ``[text](path)`` must point at an existing
  file (absolute URLs are ignored), and every wiki-style ``[[name]]``
  cross-reference must resolve to ``docs/name.md``;
* anchors are checked too: an in-page link ``[text](#section)`` must
  match a heading in the same file, and a cross-file link
  ``[text](other.md#section)`` must match a heading in the target file
  (GitHub-style slugs: lowercased, punctuation stripped, spaces to
  hyphens, ``-N`` suffixes for duplicates);
* every Sphinx cross-reference in a source file -- ``:class:``,
  ``:meth:``, ``:func:`` or ``:mod:`` -- must name something that
  imports: the dotted target as written, or relative to the module it
  appears in, a class visible in that module, or a package enclosing it
  (short names are the packages' exports).  A target that does not
  resolve is reported as ``file:line``;
* every backticked token that looks like a path in this repository --
  ``tests/....py``, ``benchmarks/....py``, ``bench/...``, ``docs/....md``,
  ``examples/....py``, ``tools/....py``, ``src/...`` or a root-level
  ``NAME.json`` / ``NAME.md`` -- must exist, in the Markdown files and in
  the sources alike (a ``::test`` or ``:line`` suffix is ignored, a
  ``*`` must match at least one file).  A path that is gone is reported
  as ``file:line``.

Usage: ``python tools/check_docs.py [files...]`` (defaults to README.md
and docs/*.md from the repo root plus the ``src/repro`` cross-reference
and path passes; explicit files are checked as Markdown only).
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FENCE = re.compile(
    r"^```(?P<info>[^\n]*)\n(?P<body>.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)
# [text](target) -- but not images ![...](...).
MD_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
WIKI_LINK = re.compile(r"\[\[([A-Za-z0-9._/-]+)\]\]")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*$", re.MULTILINE)
# :role:`target`, :role:`~target` or :role:`title <target>`; a long
# target may be wrapped after a dot, so whitespace inside it is dropped.
XREF = re.compile(r":(?:class|meth|func|mod):`(?:[^`<]*<)?~?([^`>]+)>?`")
# `token` or ``token`` whose head is a path under one of the repo's
# top-level directories, or a bare root-level NAME.json / NAME.md.
REPO_PATH = re.compile(
    r"`((?:(?:tests|benchmarks|bench|docs|examples|tools|src)/[\w./*-]+"
    r"|[\w*-]+\.(?:json|md))\b)[^`\n]*`"
)


def default_files() -> list[Path]:
    return [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]


def snippets(text: str) -> list[tuple[int, str]]:
    """(1-based line, source) for each runnable python fence."""
    found = []
    for match in FENCE.finditer(text):
        info = match.group("info").strip().lower()
        if not info.startswith("python"):
            continue
        if "no-run" in info:
            continue
        line = text.count("\n", 0, match.start("body")) + 1
        found.append((line, match.group("body")))
    return found


def run_snippet(source: str, label: str) -> str | None:
    """Execute one snippet in a fresh namespace; return an error or None.

    The namespace is fresh per snippet, so a failure cannot poison the
    snippets after it -- every block stands (or falls) on its own.
    """
    namespace: dict = {"__name__": "__docs__", "__file__": label}
    try:
        code = compile(source, label, "exec")
        exec(code, namespace)  # noqa: S102 - that is the whole point
    except BaseException:
        return traceback.format_exc()
    return None


def github_slug(title: str) -> str:
    """A heading's anchor slug, GitHub-style (before -N dedup suffixes)."""
    slug = title.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)          # inline markup markers
    slug = re.sub(r"[^\w\- ]", "", slug)       # punctuation
    return slug.replace(" ", "-")


def anchors_of(text: str) -> set[str]:
    """Every anchor the file's headings define (with duplicate suffixes)."""
    seen: dict[str, int] = {}
    anchors: set[str] = set()
    # Callers pass fence-stripped text: '# comment' in ``` is no heading.
    for match in HEADING.finditer(text):
        slug = github_slug(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def strip_fences(text: str) -> str:
    """Remove fenced code blocks (their contents are not headings/links)."""
    return FENCE.sub("", text)


#: Per-file anchor sets, so N links into one target parse it once.
_anchor_cache: dict[Path, set[str]] = {}


def anchors_of_file(path: Path) -> set[str]:
    try:
        return _anchor_cache[path]
    except KeyError:
        anchors = anchors_of(
            strip_fences(path.read_text(encoding="utf-8"))
        )
        _anchor_cache[path] = anchors
        return anchors


def check_links(path: Path, text: str) -> list[str]:
    errors = []
    base = path.parent
    prose = strip_fences(text)
    own_anchors = anchors_of(prose)
    for target in MD_LINK.findall(prose):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            # In-page anchor: must match one of this file's headings.
            if target[1:] not in own_anchors:
                errors.append(
                    f"{path.name}: broken anchor -> {target} "
                    f"(no such heading)"
                )
            continue
        file_part, _, fragment = target.partition("#")
        resolved = (base / file_part).resolve()
        if not resolved.exists():
            errors.append(f"{path.name}: broken link -> {target}")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in anchors_of_file(resolved):
                errors.append(
                    f"{path.name}: broken anchor -> {target} "
                    f"(no such heading in {resolved.name})"
                )
    for name in WIKI_LINK.findall(prose):
        # [[name]] resolves within docs/ (the memory-style cross-ref).
        candidate = REPO / "docs" / f"{name}.md"
        if not candidate.exists():
            errors.append(f"{path.name}: broken [[{name}]] cross-reference")
    return errors


def short(path: Path) -> Path:
    """``path`` relative to the repo root (as given, if it lies outside)."""
    try:
        return path.relative_to(REPO)
    except ValueError:
        return path


def importable(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain off one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attribute in parts[cut:]:
                found = getattr(found, attribute)
        except AttributeError:
            return False
        return True
    return False


def check_xrefs(path: Path, module_name: str) -> list[str]:
    """``file:line`` for each cross-reference in ``path`` nothing backs."""
    text = path.read_text(encoding="utf-8")
    packages = module_name.split(".")
    scopes = [".".join(packages[:n]) for n in range(len(packages), 0, -1)]
    scopes.extend(
        f"{module_name}.{name}" for name, _cls in inspect.getmembers(
            importlib.import_module(module_name), inspect.isclass
        )
    )
    errors = []
    for match in XREF.finditer(text):
        target = re.sub(r"\s+", "", match.group(1))
        if not importable(target) and not any(
            importable(f"{scope}.{target}") for scope in scopes
        ):
            line = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{short(path)}:{line}: "
                f"unresolved cross-reference -> {target}"
            )
    return errors


def check_paths(path: Path) -> list[str]:
    """``file:line`` for each backticked repo path in ``path`` that is gone.

    A bare ``NAME.md`` may also name a sibling of the file mentioning it
    (the pages under ``docs/`` refer to each other that way).
    """
    text = path.read_text(encoding="utf-8")
    errors = []
    for match in REPO_PATH.finditer(text):
        token = match.group(1)
        if not any(
            next(base.glob(token), None) is not None
            for base in (REPO, path.parent)
        ):
            line = text.count("\n", 0, match.start()) + 1
            errors.append(f"{short(path)}:{line}: no such path -> {token}")
    return errors


def source_modules() -> list[tuple[Path, str]]:
    """Every module under ``src/repro`` with its dotted import name."""
    root = REPO / "src"
    return [
        (path, ".".join(path.relative_to(root).with_suffix("").parts)
         .removesuffix(".__init__"))
        for path in sorted((root / "repro").rglob("*.py"))
    ]


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(REPO / "src"))
    files = [Path(a).resolve() for a in argv] if argv else default_files()
    failures: list[str] = []
    if not argv:
        for path, module_name in source_modules():
            failures.extend(check_xrefs(path, module_name))
            failures.extend(check_paths(path))
    ran = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        failures.extend(check_links(path, text))
        failures.extend(check_paths(path))
        for line, source in snippets(text):
            label = f"{short(path)}:{line}"
            error = run_snippet(source, label)
            ran += 1
            if error is None:
                print(f"ok   {label}")
            else:
                # Keep going: every failing snippet in every file is
                # executed and lands in the summary below.
                print(f"FAIL {label}\n{error}")
                failures.append(f"{label}: snippet raised")
    print(f"\n{ran} snippet(s) across {len(files)} file(s); "
          f"{len(failures)} failure(s)")
    for failure in failures:
        print(" -", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
