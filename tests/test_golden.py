"""Every output of the reference cases keeps the bytes pinned under
tests/golden/.  The cases and their runner live in tests/regen_golden.py;
a change that moves bytes on purpose reruns that script, and the diff of
tests/golden/ shows what moved."""

import json

import pytest

from regen_golden import GOLDEN, MANIFEST, golden_files


def _first_difference(want: bytes, got: bytes) -> str:
    want_lines = want.decode("utf-8").splitlines(keepends=True)
    got_lines = got.decode("utf-8").splitlines(keepends=True)
    for i, (w, g) in enumerate(zip(want_lines, got_lines), 1):
        if w != g:
            return f"line {i}: pinned {w!r}, now {g!r}"
    i = min(len(want_lines), len(got_lines)) + 1
    return (f"line {i}: pinned {len(want_lines)} lines, now "
            f"{len(got_lines)}")


def test_outputs_keep_the_golden_bytes(tmp_path):
    pinned = {p.name: p.read_bytes() for p in GOLDEN.iterdir()}
    made_on = (json.loads(pinned[MANIFEST])["made_on"]
               if MANIFEST in pinned else None)
    now = golden_files(tmp_path, made_on)
    # the floats come from libm; a difference on another platform may be
    # the platform's, and is reported, not forgiven
    where = f"golden files made on {made_on}"
    missing = sorted(now.keys() - pinned.keys())
    extra = sorted(pinned.keys() - now.keys())
    assert not missing, f"no golden file for {missing} ({where})"
    assert not extra, f"golden files no case writes: {extra} ({where})"
    for name, data in now.items():
        if data != pinned[name]:
            pytest.fail(f"{name} differs from tests/golden/{name} at "
                        f"{_first_difference(pinned[name], data)} ({where})")
