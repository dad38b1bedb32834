"""The suite's own pytest settings, exercised on a throwaway suite."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_is_reported_and_later_files_still_run(tmp_path):
    # warnings are errors, but the one hypothesis's report hook raises on a
    # failing @given test must not turn the failure into an INTERNALERROR
    shutil.copyfile(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_a.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n"
    )
    (tmp_path / "test_b.py").write_text("def test_passes():\n    pass\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_a.py", "test_b.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
