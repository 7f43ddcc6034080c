"""The committed golden digests match the outputs of this tree."""

import json
import os
import subprocess
import sys

import preflab
from golden import GOLDEN, differences


def test_outputs_match_the_golden_digests():
    # a fresh interpreter imports preflab before numpy; any difference fails,
    # in the environment record as in the digests, so the check never passes
    # by comparing nothing
    src = os.path.dirname(os.path.dirname(preflab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = os.path.join(os.path.dirname(__file__), "golden.py")
    proc = subprocess.run([sys.executable, script], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(proc.stdout)
    assert want["digests"] and got["digests"]
    moved = differences(want, got)
    assert not moved, "outputs differ from GOLDEN.json:\n" + "\n".join(moved)
