import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 3
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, (demo.name, proc.stderr)
        if demo.name == "quadratic_substitution.py":
            assert "overall: PASS" in proc.stdout
