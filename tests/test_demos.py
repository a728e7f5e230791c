import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# sha256 of each demo's stdout, recorded when each poset element still stored
# its word and matrix; words are now spelled along the parents
STDOUT_SHA256 = {
    "adjoint_counts.py": "cb072a9ba3aa4789ebe91f3ddd9524930f0d444fc1e8131dca14abc6679b2474",
    "exceptional_walkthrough.py":
        "bab84eec04c2a7b0714af69845d952dd1e2dc9ece54227a44439bcbb928a5a4a",
    "twisted_diagram_tour.py":
        "d983fce972dc55f57f4487ec20ca014225cda8d58d38da22b8dcf87ed51bb1bb",
}


@pytest.mark.parametrize("demo,flags", [
    pytest.param(demo, flags, id=demo + suffix)
    for demo in sorted(STDOUT_SHA256) for flags, suffix in (([], ""), (["-O"], "-O"))
])
def test_demo_runs(demo, flags):
    # python -O strips asserts: each demo must print the same bytes without them
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    r = subprocess.run([sys.executable, *flags, str(ROOT / "demos" / demo)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == STDOUT_SHA256[demo]
