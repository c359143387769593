"""perfbench's tracer wraps peakfn functions by name.  Every name it lists
must resolve, so a rename under src/ fails here instead of silently
breaking `perfbench/run.py --trace 1`."""

import os
import subprocess
import sys
from pathlib import Path

import peakfn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# runs in a child, so the installed wrappers never reach this process
SCRIPT = """
import math
import tracer
from peakfn import HypothesisConstants, derive_constants, families
names = [(owner, attr) for owner, attr, *_ in tracer.SPANS + tracer.COUNTERS]
missing = [f"{owner.__name__}.{attr}" for owner, attr in names
           if not hasattr(owner, attr)]
assert not missing, f"unresolved: {missing}"
t = tracer.Tracer()
t.install()
unwrapped = [f"{owner.__name__}.{attr}" for owner, attr in names
             if getattr(owner, attr).__name__ != "wrapper"]
assert not unwrapped, f"not wrapped: {unwrapped}"
# the traced family_by_name rebuilds each family and its barriers with
# dataclasses.replace; one barrier call must go through and be counted
consts, _ = derive_constants(
    HypothesisConstants(alpha=0.5, s=1.0, t=0.75, A=0.5, C=2.0))
for name in families.FAMILY_NAMES:
    fam = families.family_by_name(name, consts)
    delta = 0.5 if fam.domain.dimension == 1 else -0.5
    assert abs(fam.barrier(math.log(100.0))(delta)) <= consts.alpha
assert t.counts[tracer.BARRIER_EVALS] == len(families.FAMILY_NAMES)
print(len(names))
"""


def test_tracer_names_resolve_and_install():
    src = str(Path(peakfn.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(PERFBENCH), src])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
