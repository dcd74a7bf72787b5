"""Every narrative script in demos/ runs to the end and prints what it
printed when its digest was pinned.

No other test reaches the demos, so a helper they use could otherwise be
removed unnoticed.  Each demo runs in its own interpreter on this checkout's
sources.  A demo's standard output is the same bytes on every run, so its
SHA-256 is pinned: a refactor that keeps the output keeps the digest, and a
change that means to alter a demo's output updates the digest with it.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "bar_and_borel":
        "f440aa50dba36bb7f3420fdee35ebe5a968300a768038e4343c10137e987637f",
    "classifying_models":
        "f2c5b317ea4b3b15acdfd116368217337dfa6e74548dc9c00ac3f41f6dd9bdd7",
    "defect_gallery":
        "fe5bae999e6b7e26ae8c19f7a8d05ffbd035c4b8db47bac437142880ffeb4acd",
    "hexagon_s3":
        "f1aa6ef81454c717043ee4573306ee78f45838ffb3e6f94bb0fc7da7c2a82815",
    "interchange_sequences":
        "4f5a1e13fdb08ce68955a3f9827401228dfbd3a2436db6ee654825fdc9123162",
    "manifest_tour":
        "72f5671bef950f609cad173d2817879864ec03112bbee0082e43f3766efc8f38",
    "reflection_circle":
        "8f9cb445050caf998fb2ae9778bd011b6315efff01f1b6633023a6d8a7e563ac",
    "tor_probe":
        "502ef97287449d5ab90bb10998d10fd3328cca29cd7491f32cc29eb4fad9df7a",
}


def test_demos_are_present():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout.strip()
    assert (hashlib.sha256(done.stdout).hexdigest()
            == STDOUT_SHA256[demo.stem])
