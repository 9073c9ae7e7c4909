"""Regenerate the canonical campaign reports pinned under tests/golden/.

Run from the repository root:

    PYTHONPATH=src python tests/regen_golden.py

or, to compare each freshly generated report with its file byte for byte
without writing anything (one line per case, exit 1 on any difference):

    PYTHONPATH=src python tests/regen_golden.py --check

Each file holds the stdout of ``diskclass campaign --kind K --samples 100
--seed S --json`` for the four campaign kinds at seeds 0 and 5 (conjecture
with ``--a2 1:2``).  ``test_golden.py`` compares fresh reports with these
files to 1e-12, since numpy's SIMD exp, log and sin can differ by an ulp
between hosts; ``--check`` is the byte-exact comparison for one host.  A
change that moves a report regenerates them and lists every moved field
with the change.
"""
import contextlib
import io
import pathlib
import sys

from diskclass.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

CASES = {
    f"{kind}_seed{seed}": ["campaign", "--kind", kind, "--samples", "100",
                           "--seed", str(seed), "--json"]
    + (["--a2", "1:2"] if kind == "conjecture" else [])
    for kind in ("theorem1", "theorem2", "theorem3", "conjecture")
    for seed in (0, 5)
}


def report_text(argv) -> str:
    """The CLI's stdout for argv; a nonzero exit code raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"diskclass {' '.join(argv)} exited {code}")
    return out.getvalue()


def check() -> int:
    """Compare every case with its file byte for byte; 1 if any differs."""
    failed = 0
    for name, argv in CASES.items():
        path = GOLDEN / f"{name}.json"
        same = path.exists() and path.read_bytes() == report_text(argv).encode("utf-8")
        failed += not same
        print(f"{name}.json {'identical' if same else 'DIFFERS'}")
    return int(failed > 0)


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit("usage: regen_golden.py [--check]")
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(report_text(argv), encoding="utf-8")
        print(f"wrote {name}.json")
