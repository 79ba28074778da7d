import os
import re
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
        failed = re.search(r"->\s*False|\bFAIL", proc.stdout)
        assert not failed, (demo.name, proc.stdout)
        if demo.name == "identity_tour.py":
            # Borchardt, Pfaffian-Hafnian, GEN_DET, GEN_SCHUR, GEN_MAIN
            assert len(re.findall(r"->\s*True$", proc.stdout, re.M)) == 5, proc.stdout
        if demo.name == "quadratic_substitution.py":
            assert "overall: PASS" in proc.stdout
