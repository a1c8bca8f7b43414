"""The gate commands of tests/gates.sh, run as one tier-1 test.

The script checks the stdout digest, stderr note or exit code of each
gate command and stops at the first check that fails, naming its line
on stderr.  It takes about 10 s.
"""

import pathlib
import shutil
import subprocess

import pytest

GATES = pathlib.Path(__file__).with_name("gates.sh")


@pytest.mark.skipif(shutil.which("bash") is None, reason="tests/gates.sh needs bash")
def test_every_gate_check_passes():
    proc = subprocess.run(["bash", str(GATES)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1:] == ["all gate checks passed"], proc.stdout
