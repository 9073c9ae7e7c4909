"""The C heap keeps the pages a scan frees (``diskclass._keep_freed_memory``),
so a warm scan takes its memory from the heap, not from the kernel."""
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import diskclass

# A fresh interpreter: pytest's own process may already have raised glibc's
# dynamic thresholds by freeing a large block, which would hide a regression.
FAULTS_PER_CALL = """
import resource
from diskclass import build_member, sample_schwarz, theorem2_grid
from diskclass.explorer import ALPHA_GRID
f = build_member(0.3 + 0.2j, sample_schwarz(1, "random_polynomial", 4))
for _ in range(3):
    theorem2_grid(f, ALPHA_GRID)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    theorem2_grid(f, ALPHA_GRID)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


GLIBC = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                           reason="mallopt thresholds are glibc's")


@GLIBC
@pytest.mark.skipif(sys.maxsize < 2 ** 32, reason="a 32-bit glibc refuses a 32 MiB mmap threshold")
def test_the_c_library_takes_both_settings():
    assert diskclass._HEAP_KEPT is True


@GLIBC
def test_warm_theorem2_scans_do_not_fault_pages_in():
    # With glibc's default thresholds a warm call takes about 120 minor faults.
    src = str(Path(diskclass.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_CALL], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert float(out) < 10.0
