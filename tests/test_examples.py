"""Smoke tests: every shipped example runs to completion.

Examples are user-facing documentation; a broken one is a broken
README.  Each is executed in-process (runpy) with stdout captured and
its key claims asserted on the output, and so are the two quickstart
snippets (README.md and the package docstring).  ``time_space_tradeoff`` sweeps
four protocol variants and takes minutes, so it gets a structural
import check instead of a full run.
"""

import re
import runpy
import sys
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "Unique leader elected" in out
        assert "silent" in out

    def test_sensor_network_recovery(self, capsys):
        out = run_example("sensor_network_recovery", capsys)
        assert out.count("recovered in") == 5
        assert "FAULT BURST 5: 24/24" in out

    def test_protocol_composition(self, capsys):
        out = run_example("protocol_composition", capsys)
        assert "every agent runs version 42" in out
        assert "Healed end-to-end" in out

    def test_reset_walkthrough(self, capsys):
        out = run_example("reset_walkthrough", capsys)
        assert "reset wave" in out
        assert "dormant election" in out
        assert "stabilized: unique ranking" in out

    def test_time_space_tradeoff_imports_and_helpers(self):
        """Full run sweeps four protocols (minutes); check the pieces."""
        sys.path.insert(0, str(EXAMPLES))
        try:
            import importlib

            module = importlib.import_module("time_space_tradeoff")
            assert module.ciw_time() > 0  # the cheap cell runs for real
        finally:
            sys.path.pop(0)
            sys.modules.pop("time_space_tradeoff", None)


class TestQuickstartSnippets:
    """The quickstarts users copy first run as written."""

    def test_readme_quickstart(self, capsys):
        readme = (ROOT / "README.md").read_text(encoding="utf8")
        section = readme.split("## Quickstart", 1)[1]
        (snippet,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
        exec(compile(snippet, "README.md", "exec"), {})
        assert re.fullmatch(
            r"leader = agent \d+, stabilized at [\d.]+ time\n", capsys.readouterr().out
        )

    def test_package_docstring_quickstart(self, capsys):
        block = repro.__doc__.split("Quickstart::\n", 1)[1]
        snippet = textwrap.dedent(block)
        exec(compile(snippet, "repro/__init__.py", "exec"), {})
        assert re.fullmatch(
            r"leader elected: agent \d+ after [\d.]+ time\n", capsys.readouterr().out
        )
