"""The suite's per-test time limit (tests/conftest.py) ends a hung run."""

from __future__ import annotations

import subprocess
import sys
import textwrap
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_a_test_past_the_limit_ends_the_run_with_its_traceback(tmp_path):
    (tmp_path / "test_hangs.py").write_text(textwrap.dedent("""
        import time


        def test_hangs():
            time.sleep(60)
    """))
    # The suite's conftest as a plugin, with its limit lowered in this
    # subprocess only.
    driver = textwrap.dedent(f"""
        import sys
        sys.path[:0] = [{str(TESTS)!r}, {str(SRC)!r}]
        import conftest
        import pytest
        conftest.TEST_TIME_LIMIT_S = 1.0
        sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "test_hangs.py"],
                             plugins=[conftest]))
    """)
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", driver], cwd=tmp_path, capture_output=True, text=True,
        timeout=120,
    )
    assert time.monotonic() - started < 50, "the limit did not end the run"
    assert done.returncode != 0
    assert "Timeout (0:00:01)!" in done.stderr, done.stderr
    assert "test_hangs" in done.stderr, done.stderr
