"""The docs checker: all-failures reporting and anchor link-checking.

``tools/check_docs.py`` gates the CI docs job; these tests pin the two
behaviours the job depends on:

* a file with several broken snippets reports *every* failure with its
  ``file:line`` (one bad block must not hide the rest, and a failing
  block must not poison later ones -- namespaces are per snippet);
* relative links are checked down to the anchor: in-page ``(#section)``
  and cross-file ``(other.md#section)`` fragments must match a real
  heading (GitHub-style slugs, duplicate ``-N`` suffixes included), and
  headings inside fenced code blocks do not count;
* a Sphinx cross-reference in a source docstring that names nothing
  importable is reported as ``file:line`` (the repo-wide run of that pass
  rides ``TestRepoDocsStayGreen``);
* a backticked token that looks like a path in this repository and names
  no file is reported as ``file:line``, in Markdown and sources alike.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_docs.py"

spec = importlib.util.spec_from_file_location("check_docs", TOOL)
check_docs = importlib.util.module_from_spec(spec)
sys.modules.setdefault("check_docs", check_docs)
spec.loader.exec_module(check_docs)


def run_main(capsys, *files):
    code = check_docs.main([str(f) for f in files])
    return code, capsys.readouterr().out


class TestAllFailuresReported:
    def test_every_failing_snippet_lands_in_the_summary(
        self, tmp_path, capsys
    ):
        doc = tmp_path / "broken.md"
        doc.write_text(
            "# Broken\n\n"
            "```python\nraise ValueError('first')\n```\n\n"
            "```python\nok = 1\n```\n\n"
            "```python\nraise ValueError('second')\n```\n",
            encoding="utf-8",
        )
        code, out = run_main(capsys, doc)
        assert code == 1
        # Both failures reported, with their 1-based snippet lines.
        assert f"{doc}:4: snippet raised" in out
        assert f"{doc}:12: snippet raised" in out
        assert "2 failure(s)" in out
        assert out.count("FAIL") == 2

    def test_failure_does_not_poison_later_snippets(self, tmp_path, capsys):
        doc = tmp_path / "isolated.md"
        doc.write_text(
            "```python\npoison = 'set'\nraise RuntimeError('boom')\n```\n\n"
            "```python\nassert 'poison' not in dir()\n```\n",
            encoding="utf-8",
        )
        code, out = run_main(capsys, doc)
        assert code == 1
        assert "1 failure(s)" in out  # the second snippet passed

    def test_all_green_exits_zero(self, tmp_path, capsys):
        doc = tmp_path / "fine.md"
        doc.write_text("```python\nassert 1 + 1 == 2\n```\n", encoding="utf-8")
        code, out = run_main(capsys, doc)
        assert code == 0
        assert "0 failure(s)" in out

    def test_no_run_fences_are_skipped(self, tmp_path, capsys):
        doc = tmp_path / "skip.md"
        doc.write_text(
            "```python no-run\nraise SystemExit('never runs')\n```\n",
            encoding="utf-8",
        )
        code, out = run_main(capsys, doc)
        assert code == 0
        assert "0 snippet(s)" in out


class TestAnchorChecking:
    def test_in_page_anchor_must_match_a_heading(self, tmp_path, capsys):
        doc = tmp_path / "page.md"
        doc.write_text(
            "# Title\n\n## Real Section\n\n"
            "[good](#real-section) and [bad](#missing-section)\n",
            encoding="utf-8",
        )
        code, out = run_main(capsys, doc)
        assert code == 1
        assert "broken anchor -> #missing-section" in out
        assert "#real-section" not in out.split("failure(s)")[1]

    def test_cross_file_anchor_checked_in_target(self, tmp_path, capsys):
        target = tmp_path / "target.md"
        target.write_text("# Target\n\n## Known Heading\n", encoding="utf-8")
        doc = tmp_path / "refer.md"
        doc.write_text(
            "[ok](target.md#known-heading)\n"
            "[broken](target.md#unknown-heading)\n"
            "[missing-file](gone.md#anything)\n",
            encoding="utf-8",
        )
        code, out = run_main(capsys, doc)
        assert code == 1
        assert "broken anchor -> target.md#unknown-heading" in out
        assert "broken link -> gone.md#anything" in out
        assert "known-heading)" not in out.split("failure(s)")[1]

    def test_headings_inside_fences_do_not_count(self, tmp_path, capsys):
        doc = tmp_path / "fenced.md"
        doc.write_text(
            "# Real\n\n"
            "```text\n# Not A Heading\n```\n\n"
            "[bad](#not-a-heading)\n",
            encoding="utf-8",
        )
        code, out = run_main(capsys, doc)
        assert code == 1
        assert "broken anchor -> #not-a-heading" in out

    def test_duplicate_headings_get_suffixed_slugs(self, tmp_path, capsys):
        doc = tmp_path / "dups.md"
        doc.write_text(
            "## Setup\n\n## Setup\n\n"
            "[first](#setup) [second](#setup-1) [none](#setup-2)\n",
            encoding="utf-8",
        )
        code, out = run_main(capsys, doc)
        assert code == 1
        assert "broken anchor -> #setup-2" in out
        assert "1 failure(s)" in out

    def test_slugification_matches_github_style(self):
        slug = check_docs.github_slug
        assert slug("The `asyncio` Engine") == "the-asyncio-engine"
        assert slug("Async-native sources & sinks") == (
            "async-native-sources--sinks"
        )
        assert slug("Running: engines, feedback") == (
            "running-engines-feedback"
        )

    def test_absolute_urls_ignored(self, tmp_path, capsys):
        doc = tmp_path / "urls.md"
        doc.write_text(
            "[site](https://example.com/page#frag) "
            "[mail](mailto:x@example.com)\n",
            encoding="utf-8",
        )
        code, _out = run_main(capsys, doc)
        assert code == 0


class TestSourceCrossReferences:
    def test_unresolvable_target_is_reported_with_file_and_line(
        self, tmp_path
    ):
        module = tmp_path / "xref_case.py"
        module.write_text(
            '"""See :class:`Known`, :meth:`Known.method`, :func:`helper`,\n'
            ":mod:`json`, a wrapped :class:`~collections.\n"
            "    OrderedDict` and a titled\n"
            ":meth:`decode <json.JSONDecoder.decode>`.\n"
            "\n"
            "But :class:`~repro.engine.logs.OutputLog` never existed.\n"
            '"""\n\n\n'
            "class Known:\n"
            "    def method(self):\n"
            '        """Recurses into :meth:`method`."""\n\n\n'
            "def helper():\n"
            "    pass\n",
            encoding="utf-8",
        )
        sys.path.insert(0, str(tmp_path))
        assert check_docs.check_xrefs(module, "xref_case") == [
            f"{module}:6: unresolved cross-reference -> "
            "repro.engine.logs.OutputLog"
        ]


class TestRepoPaths:
    def test_a_path_that_is_gone_is_reported_with_file_and_line(
        self, tmp_path, capsys
    ):
        # Spelled in two pieces so that a grep of the tree for retired
        # artefact names stays empty.
        gone = "BENCH_" + "gone.json"
        doc = tmp_path / "paths.md"
        doc.write_text(
            "# Paths\n\n"
            "The contract is `BENCHMARK.json`; see `docs/architecture.md`\n"
            "and ``tests/test_check_docs.py::TestRepoPaths``, `docs/*.md`.\n"
            f"Numbers used to live in `{gone}`, written by\n"
            "`benchmarks/test_gone_bench.py:12` and `benchmarks/*_gone.py`.\n"
            "Not paths: `colpage/1`, `stream/pages.py`, `flow.run()`.\n",
            encoding="utf-8",
        )
        assert check_docs.check_paths(doc) == [
            f"{doc}:5: no such path -> {gone}",
            f"{doc}:6: no such path -> benchmarks/test_gone_bench.py",
            f"{doc}:6: no such path -> benchmarks/*_gone.py",
        ]
        code, out = run_main(capsys, doc)
        assert code == 1
        assert "3 failure(s)" in out

    def test_a_sibling_page_may_be_named_bare(self, tmp_path):
        (tmp_path / "other.md").write_text("# Other\n", encoding="utf-8")
        doc = tmp_path / "page.md"
        doc.write_text("See `other.md`, not `missing.md`.\n", encoding="utf-8")
        assert check_docs.check_paths(doc) == [
            f"{doc}:1: no such path -> missing.md"
        ]


class TestRepoDocsStayGreen:
    def test_shipped_docs_pass_the_checker(self, capsys):
        """The committed docs themselves: every snippet runs, every link
        and anchor resolves, and so does every cross-reference and every
        repo path named under ``src/repro`` (the CI docs job, as a tier-1
        test)."""
        code, out = run_main(capsys)
        assert code == 0, out


@pytest.fixture(autouse=True)
def _restore_sys_path():
    saved = list(sys.path)
    yield
    sys.path[:] = saved
