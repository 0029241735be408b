"""Smoke test: the quick examples must run end-to-end.

quickstart is the one a new user tries first; the two trace-reading
examples are the only callers of the opt-in block tracer outside the
tests.  The remaining examples run multi-minute campaigns and are
exercised by the bench suite's machinery instead.
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


class TestQuickstart:
    def test_quickstart_runs(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "data loss per power fault" in result.stdout
        assert "per-fault results" in result.stdout

    @pytest.mark.parametrize(
        "script, marker",
        [
            ("failure_forensics.py", "btt summary:"),
            ("trace_replay_checker.py", "packets checked"),
        ],
    )
    def test_trace_reading_example_runs(self, script, marker, tmp_path):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / script)],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "TMPDIR": str(tmp_path)},
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert marker in result.stdout

    def test_all_examples_compile(self):
        for script in sorted(EXAMPLES.glob("*.py")):
            source = script.read_text()
            compile(source, str(script), "exec")
            assert '"""' in source, f"{script.name} needs a docstring"
            assert "def main()" in source, f"{script.name} needs a main()"
