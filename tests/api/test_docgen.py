"""The generated estimator reference: correctness and freshness.

The freshness test is the tier-1 twin of CI's
``python -m repro.api.docgen --check``: the committed
``docs/estimators.md`` must be byte-identical to fresh emitter output.
"""

import pathlib

from repro.api.docgen import DEFAULT_PATH, main, render_markdown
from repro.api.registry import registered_estimators

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
DOC_PATH = REPO_ROOT / DEFAULT_PATH


class TestRenderMarkdown:
    def test_every_registration_has_a_section(self):
        rendered = render_markdown()
        for name in registered_estimators():
            assert f"## `{name}`" in rendered

    def test_deterministic(self):
        assert render_markdown() == render_markdown()

    def test_capability_flags_present(self):
        rendered = render_markdown()
        assert "snapshot/restore, batch fast path, sharding" in rendered
        # The sharded engine itself must not claim sharding.
        sharded = rendered.split("## `sharded`")[1]
        assert "sharding" not in sharded.split("|", 1)[0]

    def test_marked_as_generated(self):
        assert render_markdown().startswith("<!-- GENERATED FILE")


class TestCommittedDocFreshness:
    def test_docs_estimators_md_is_byte_identical(self):
        committed = DOC_PATH.read_text(encoding="utf-8")
        assert committed == render_markdown(), (
            "docs/estimators.md is stale; regenerate with "
            "PYTHONPATH=src python -m repro.api.docgen --write"
        )


class TestCli:
    def test_check_mode_passes_on_fresh_file(self, capsys):
        assert main(["--check", str(DOC_PATH)]) == 0
        assert "up to date" in capsys.readouterr().out

    def test_check_mode_fails_on_stale_file(self, tmp_path, capsys):
        stale = tmp_path / "estimators.md"
        stale.write_text("old", encoding="utf-8")
        assert main(["--check", str(stale)]) == 1
        assert "stale" in capsys.readouterr().err

    def test_check_mode_fails_on_missing_file(self, tmp_path):
        assert main(["--check", str(tmp_path / "nope.md")]) == 1

    def test_write_then_check_round_trips(self, tmp_path, capsys):
        target = tmp_path / "estimators.md"
        assert main(["--write", str(target)]) == 0
        assert main(["--check", str(target)]) == 0

    def test_default_prints_to_stdout(self, capsys):
        assert main([]) == 0
        assert capsys.readouterr().out == render_markdown()


class TestLinkChecker:
    """tools/check_links.py must pass on the committed documentation."""

    def test_docs_references_resolve(self):
        import importlib.util
        import sys

        spec = importlib.util.spec_from_file_location(
            "check_links", REPO_ROOT / "tools" / "check_links.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        problems = []
        for path in module._markdown_files():
            problems += [
                (str(path.relative_to(REPO_ROOT)), kind, ref)
                for kind, ref in module.check_file(path)
            ]
        for path in module._python_files():
            problems += [
                (str(path.relative_to(REPO_ROOT)), kind, ref)
                for kind, ref in module.check_python_file(path)
            ]
        assert problems == []
        sys.modules.pop("check_links", None)

    def test_python_files_citing_missing_documents_are_flagged(
        self, tmp_path
    ):
        import importlib.util
        import sys

        spec = importlib.util.spec_from_file_location(
            "check_links", REPO_ROOT / "tools" / "check_links.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        source = tmp_path / "cites.py"
        source.write_text(
            '"""See DESIGN.md substitution #2 and docs/paper_map.md."""\n'
            "# *.md globs and https://example.org/x.md are not names.\n",
            encoding="utf-8",
        )
        assert module.check_python_file(source) == [
            ("missing document", "DESIGN.md")
        ]
        sys.modules.pop("check_links", None)
