"""Regenerate the canonical campaign reports pinned under tests/golden/.

Run from the repository root:

    PYTHONPATH=src python tests/regen_golden.py

Each file holds the stdout of ``diskclass campaign --kind K --samples 100
--seed S --json`` for the four campaign kinds at seeds 0 and 5 (conjecture
with ``--a2 1:2``).  ``test_golden.py`` compares fresh reports with these
files; a change that moves a report regenerates them and lists every moved
field with the change.
"""
import contextlib
import io
import pathlib

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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(report_text(argv), encoding="utf-8")
        print(f"wrote {name}.json")
