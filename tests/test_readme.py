"""The README's library tour runs as written against `src/` and reports
the verdict it is known for."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_tour() -> str:
    """The first python code block under the README's "Library tour"."""
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)


def test_library_tour_report():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", library_tour()], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "stateCount: 10" in lines
    assert "goalReachable: True" in lines
    assert "deadlocks: 0" in lines
