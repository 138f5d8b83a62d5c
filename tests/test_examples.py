"""Every example script runs to completion.

Each ``examples/*.py`` runs in its own interpreter, as a user starts it,
with ``src`` on the path and the temporary directory (where an example
may write its output) under the test's own ``tmp_path``; it must exit 0.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
