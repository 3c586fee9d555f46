#!/usr/bin/env python3
"""Compare what the command line writes between two checkouts.

Each checkout runs the fixed list ``COMMANDS`` through its own ``src/``, every
command once with ``--format json`` and once with ``--format csv``, in one
Python process per side. Each side works in its own temporary directory, and
the symbol specs and outputs have the same relative paths in both, so a path
recorded in a report reads the same on both sides. Then, per output file:

- a JSON report must have the same ``data`` section,
- a CSV report the same lines outside its ``#`` header,
- any other file (the growth ``.dat`` and discretize ``.symbol.json``
  companions, the exit statuses) must match byte for byte.

    python3 tools/data_diff.py --parent ../parent --change .

Prints the first differing lines of every output that differs and exits 1,
or prints how many outputs agree and exits 0.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SPECS = {
    "callback_1d.json": {"kind": "callback", "d": 1,
                         "expr": "cos(0.3*s1) / (1 + abs(s1 - t1)) + 0.5*sin(0.2*t1)"},
    "callback_2d.json": {"kind": "callback", "d": 2,
                         "expr": "cos(0.4*s1 - 0.9*t2) / (1 + (s1 - t1)^2 + (s2 - t2)^2)"},
    "toeplitz_2d.json": {"kind": "toeplitz", "d": 2,
                         "phi": "cos(0.7*k1 + 1.1*k2) / (1 + k1*k1 + k2*k2)"},
    "toeplitz_3d.json": {"kind": "toeplitz", "d": 3,
                         "phi": "cos(0.7*k1 - 1.1*k3) / (1 + k1*k1 + k2*k2 + k3*k3)"},
    # every spelling and function the specs above leave out
    "spellings_1d.json": {"kind": "callback", "d": 1,
                          "expr": "conj(exp(0.1i × pi × s1)) × re(exp(0.2i*t1))"
                                  " + im(exp(0.3i*(s1 - t1))) ÷ (2 + max(s1, t1, -s1) - min(s1, t1, -t1))"
                                  " + sign(s1 - t1)*sqrt(1 + t1**2) ÷ (e + log(2 + (s1 - t1)**2))"},
    # a guard puts 0 where 1 / k1 divides by zero
    "guarded_1d.json": {"kind": "toeplitz", "d": 1, "phi": "1 / k1", "guards": [{"value": 0}]},
    "continuous_2d.json": {"kind": "continuous", "d": 2, "expr": "2 + 0*x1"},
    # a known defect: the 2-d mixed partials are too noisy, and check exits 2
    "continuous_2d_defect.json": {"kind": "continuous", "d": 2,
                                  "expr": "arctan(x1 - y1) * arctan(x2 - y2)"},
}

COMMANDS = [
    # check on every discrete catalog symbol
    ["check", "--catalog", "constant_one", "--nmax", "6"],
    ["check", "--catalog", "triangular", "--nmax", "8"],
    ["check", "--catalog", "lacunary_toeplitz", "--seed", "3", "--nmax", "8"],
    ["check", "--catalog", "rank_one", "--seed", "2", "--nmax", "6", "--base-range=-4:4"],
    ["check", "--catalog", "smooth_homogeneous", "--nmax", "6"],
    # callback and Toeplitz specs; d = 3 always takes the mixed-difference checker
    ["check", "--spec", "callback_1d.json", "--nmax", "5", "--base-range=-4:4"],
    ["check", "--spec", "callback_2d.json", "--kmax", "3", "--base-range=-2:2"],
    ["check", "--spec", "toeplitz_2d.json", "--kmax", "3"],
    ["check", "--spec", "toeplitz_3d.json", "--kmax", "2", "--base-range=-2:2"],
    ["check", "--spec", "spellings_1d.json"],
    ["check", "--spec", "guarded_1d.json"],
    ["estimate", "--spec", "spellings_1d.json", "--p", "4", "--n", "8", "--restarts", "2",
     "--iters", "20"],
    ["estimate", "--spec", "guarded_1d.json", "--p", "4", "--n", "8", "--restarts", "2",
     "--iters", "20"],
    # the mixed-difference checker forced at d = 1, 2 and 3
    ["check", "--catalog", "triangular", "--alpha", "--kmax", "3", "--base-range=-2:2"],
    ["check", "--spec", "callback_2d.json", "--alpha", "--kmax", "2", "--base-range=-2:2"],
    ["check", "--spec", "toeplitz_3d.json", "--alpha", "--kmax", "3", "--base-range=-1:1"],
    # continuous symbols, a passing 2-d one and the 2-d defect
    ["check", "--catalog", "continuous_constant", "--jmin", "-2", "--jmax", "2"],
    ["check", "--catalog", "continuous_arctan", "--jmin", "-3", "--jmax", "3"],
    ["check", "--catalog", "continuous_ratio", "--jmin", "-3", "--jmax", "3"],
    ["check", "--spec", "continuous_2d.json", "--jmin", "0", "--jmax", "1"],
    ["check", "--spec", "continuous_2d_defect.json", "--jmin", "0", "--jmax", "0"],
    ["discretize", "--catalog", "continuous_ratio", "--scale", "3", "--nmax", "4",
     "--jmin", "-2", "--jmax", "2"],
    ["estimate", "--catalog", "lacunary_toeplitz", "--seed", "0", "--p", "4/3,2,4",
     "--n", "8,16", "--restarts", "2", "--iters", "30"],
    ["estimate", "--catalog", "smooth_homogeneous", "--p", "4", "--n", "8", "--amp", "2",
     "--restarts", "2", "--iters", "20"],
    ["growth", "--catalog", "triangular", "--p", "4/3,4", "--n", "8,16",
     "--restarts", "2", "--iters", "20"],
    ["verify", "--trials", "6", "--seed", "1"],
    ["catalog"],
    # every option left at its parser default
    ["check", "--catalog", "triangular"],
    ["check", "--catalog", "lacunary_toeplitz"],
    ["check", "--spec", "toeplitz_2d.json"],
    ["check", "--spec", "toeplitz_3d.json"],
    ["check", "--spec", "callback_2d.json"],
    ["check", "--catalog", "continuous_arctan"],
    ["estimate", "--catalog", "smooth_homogeneous", "--p", "4"],
    ["discretize", "--catalog", "continuous_ratio"],
    ["verify"],
    # a bare growth takes ten seconds; --n keeps the other defaults
    ["growth", "--catalog", "triangular", "--n", "4,8"],
]

FORMATS = ("json", "csv")
EXIT_CODES = "exit_codes.json"

# Runs in each checkout's own src/: every command, then the exit statuses.
RUNNER = r"""
import json, sys
from pathlib import Path
import schurkit, schurkit.cli
src = Path(sys.argv[1]).resolve()
if src not in Path(schurkit.__file__).resolve().parents:
    sys.exit(f"imported {schurkit.__file__}, not the package in {src}")
codes = []
for argv in json.loads(Path(sys.argv[2]).read_text()):
    try:
        codes.append(schurkit.cli.main(argv))
    except Exception as exc:
        codes.append(f"raised {type(exc).__name__}: {exc}")
Path(sys.argv[3]).write_text(json.dumps(codes, indent=1) + "\n")
"""


def runs():
    """(argv, report file name) for every command in every format."""
    return [(argv + ["--format", fmt, "--out", f"{i:02d}-{fmt}.{fmt}"], f"{i:02d}-{fmt}.{fmt}")
            for i, argv in enumerate(COMMANDS) for fmt in FORMATS]


def run_side(checkout: Path, workdir: Path) -> None:
    """Every command in ``workdir`` through ``checkout``'s own ``src/``."""
    for name, spec in SPECS.items():
        (workdir / name).write_text(json.dumps(spec))
    (workdir / "argv.json").write_text(json.dumps([argv for argv, _ in runs()]))
    src = checkout.resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(src), "argv.json", EXIT_CODES],
                          cwd=workdir, env=env, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"commands in {checkout} failed:\n{proc.stderr[-2000:]}")


def compared_lines(path: Path, reports) -> list:
    """The lines of one output that must match: a JSON report's data section,
    a CSV report's non-comment lines, or all of any other file."""
    if not path.exists():
        return ["(no file)"]
    text = path.read_text()
    if path.name in reports and path.suffix == ".json":
        text = json.dumps(json.loads(text)["data"], indent=2, sort_keys=True)
    elif path.name in reports:
        text = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return text.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    args = ap.parse_args(argv)
    labels = {name: " ".join(argv) for argv, name in runs()}
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        sides = (Path(parent_dir), Path(change_dir))
        run_side(args.parent, sides[0])
        run_side(args.change, sides[1])
        names = sorted({p.name for side in sides for p in side.iterdir()} - {"argv.json"})
        differing = 0
        for name in names:
            old, new = (compared_lines(side / name, labels.keys()) for side in sides)
            if old == new:
                continue
            differing += 1
            print(f"DIFFERS {name}: {labels.get(name, 'companion file or exit statuses')}")
            diff = list(difflib.unified_diff(old, new, "parent", "change", n=1, lineterm=""))
            print("\n".join(diff[:14]))
    if differing:
        print(f"{differing} of {len(names)} outputs differ")
        return 1
    print(f"all {len(names)} outputs identical ({len(COMMANDS)} commands x {len(FORMATS)} formats)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
