"""The reference outputs pinned under tests/golden/, and the one runner
that makes them.

    PYTHONPATH=src python tests/regen_golden.py

rewrites tests/golden/ from the code in the tree; tests/test_golden.py
runs the same cases and requires the same bytes.  A change that moves
bytes on purpose reruns this script, so the diff of tests/golden/ shows
what moved.

The cases: the reference hypothesis through every stage on both families
at N = 10, 100 and 1000; the certificate battery on three hypotheses of
perfbench's certify-cold box (seed 1) and on overrides under which claim
2 fails (exit code 2); and malformed command lines, --help and the
removed --m-max option, of which only the exit code is kept.  Every case
runs through cli.main in process.

What is kept: the params, certify, build and verify reports in full, the
build report's series path rewritten to OUT; the SHA-256, byte length
and line count of each series file and eval table; every exit code; and
the libc and machine the bytes were made on, since the floats come from
the platform's libm.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

from peakfn import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = "manifest.json"

REF = {"alpha": 0.5, "s": 1.0, "t": 0.75, "A": 0.5, "C": 2.0}
# the 10-term head puts points past the head (the head-to-split ceiling,
# head-exhausted labels and verify's exit 2) into the set; disk-exp at
# N = 1000 is cheap, since each disk point calls only f_1..f_m(y)
STAGE_RUNS = [("synthetic", 1000), ("disk-exp", 100), ("synthetic", 10),
              ("disk-exp", 1000)]
BATTERY = [
    {"alpha": 0.5521616897432062, "s": 0.7349586963600938,
     "t": 0.8065684994514803, "A": 0.3507086869130501,
     "C": 2.101516869271345},
    {"alpha": 0.4165939451210995, "s": 0.8300424332743244,
     "t": 0.7571534607086419, "A": 0.5708941275979967,
     "C": 2.9921502970786213},
    {"alpha": 0.5776982815523525, "s": 0.5445653337402547,
     "t": 0.5710841080611686, "A": 0.3108191766976263,
     "C": 1.961455177731552},
    {"alpha": 0.5, "s": 0.5, "t": 0.75, "A": 0.9, "C": 2.0, "D": 0.9,
     "M": 2.5},
]
CONFIGS = {**{f"{fam}-{n}": {**REF, "family": fam} for fam, n in STAGE_RUNS},
           **{f"battery{i}": hyp for i, hyp in enumerate(BATTERY, 1)}}
# command lines whose text may change; CFG stands for a config's path
USAGE = ["", "-h", "--help", "params -h", "certify --help", "build -h",
         "eval --help", "verify -h", "frobnicate", "params",
         "params --config", "params --config CFG --terms 5",
         "eval --config CFG --bogus 1", "certify --config CFG --m-max x",
         "build --config CFG --series",
         "params --config=CFG --m-max=40",
         "certify --m-max 5 --config CFG --m-max 12"]


def _stage_cases(tag: str, n: int) -> list:
    series = ["--series", f"{tag}.series.json"]
    return [(f"{tag}.params.json", ["params"]),
            (f"{tag}.certify.json", ["certify"]),
            (f"{tag}.build.json", ["build", "--terms", str(n), *series]),
            (f"{tag}.verify.json",
             ["verify", *series, "--grid", "log:1e-30:1.0:100"]),
            (f"{tag}.eval-log.csv",
             ["eval", *series, "--grid", "log:1e-30:1.0:500"]),
            (f"{tag}.eval-linear.csv",
             ["eval", *series, "--grid", "linear:1e-6:1.0:300"])]


# (config, output file, command line), in the order they run; file names
# in a command line are in the work directory
CASES = [(tag, out, argv) for fam, n in STAGE_RUNS
         for tag in [f"{fam}-{n}"] for out, argv in _stage_cases(tag, n)]
CASES += [(tag, f"{tag}.{command}.json", [command])
          for tag in CONFIGS if tag.startswith("battery")
          for command in ("params", "certify")]


def _run(argv: list) -> int:
    """cli.main's exit code on argv; what it prints is dropped."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def _digest(data: bytes) -> str:
    # one line, so that a difference names its file
    lines = data.count(b"\n")
    return (f"sha256 {hashlib.sha256(data).hexdigest()}, {len(data)} bytes, "
            f"{lines} lines")


def golden_files(work: Path, made_on) -> dict:
    """Run every case in the directory work and return the golden set,
    {file name: bytes}, with made_on written into the manifest."""
    for tag, config in CONFIGS.items():
        (work / f"{tag}.config.json").write_text(json.dumps(config) + "\n")
    files, digests, exit_codes = {}, {}, {}
    for tag, out, argv in CASES:
        words = [str(work / w) if w.endswith(".series.json") else w
                 for w in argv]
        exit_codes[out] = _run(words + [
            "--config", str(work / f"{tag}.config.json"),
            "--out", str(work / out)])
        if not (work / out).exists():
            continue
        data = (work / out).read_bytes()
        if out.endswith(".csv"):
            digests[out] = _digest(data)
        else:
            files[out] = data.replace(str(work).encode(), b"OUT")
    for path in sorted(work.glob("*.series.json")):
        digests[path.name] = _digest(path.read_bytes())
    cfg = str(work / "synthetic-1000.config.json")
    for line in USAGE:
        exit_codes[f"peakfn {line}".strip()] = _run(
            [w.replace("CFG", cfg) for w in line.split()])
    manifest = {"made_on": made_on, "exit_codes": exit_codes,
                "digests": digests}
    files[MANIFEST] = (json.dumps(manifest, indent=2) + "\n").encode()
    return files


def platform_now() -> dict:
    name, version = platform.libc_ver()
    return {"libc": f"{name} {version}".strip(),
            "machine": platform.machine()}


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        files = golden_files(Path(work), platform_now())
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.iterdir():
        if path.name not in files:
            path.unlink()
    for name, data in files.items():
        (GOLDEN / name).write_bytes(data)
    print(f"wrote {len(files)} files to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
