#!/usr/bin/env python3
"""Run every README CLI line plus one `check` per inequality id (gn at
q = 4 and q = 2), one `trace` per trace id (layer-cake in 2D and 3D), a
48² prop3 check, a Sinkhorn prop3 check, a prop3 check at a given
threshold, a prop3, a gn, a frozen prop2 and a frozen geomest
calibration, a gn sweep, the superconductor chain, and prop3, prop5 and
prop4 checks and prop3 and prop5 traces at d = 1 or 3, and a
two-parameter prop3 `extremize` in a fresh directory, and print the exit
code of each command and a sha256 per output file.

    PYTHONPATH=src python tools/readme_digest.py <out_dir>

<out_dir> must not exist yet.  Two checkouts produce byte-identical
outputs exactly when their printed digests are equal, so comparing two
commits is one `diff` of this script's output at each.
"""

import hashlib
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from test_readme import readme_commands, write_field  # noqa: E402

from ineqlab.cli import main as cli_main  # noqa: E402

BIG_CAP = "--support-cap 4194304"
EXTRA = [
    "check --id prop1 --family random-steps --d 2 --n 64 --seed 2 --out chk-prop1",
    "check --id gn --q 4 --family random-steps --d 2 --n 64 --seed 1 --out chk-gn",
    "check --id gn --q 2 --family random-steps --d 2 --n 64 --seed 1 --out chk-gn-q2",
    "check --id weak1 --family random-steps --d 2 --n 64 --seed 1 --out chk-weak1",
    "check --id prop2 --family ostwald --params phi=1/16,n_balls=2 --d 2 --n 64 --out chk-prop2",
    "check --id weaklog --family ostwald --params phi=1/16,n_balls=2 --d 2 --n 64 --out chk-weaklog",
    "check --id geomest --family ball-lattice --params phi=1/16,n_balls=4 --d 2 --n 128 --out chk-geomest",
    f"check --id prop3 --family ball-lattice --params phi=0.2,mean=1 --d 2 --n 16 {BIG_CAP} --out chk-prop3",
    f"check --id prop3 --family single-bump --params radius=0.2,mean=1 --d 2 --n 48 {BIG_CAP} --out chk-prop3-48",
    "check --id prop3 --family ball-lattice --params phi=0.2,mean=1 --d 2 --n 16 --method sinkhorn "
    "--out chk-prop3-sinkhorn",
    "check --id prop5 --family ball-lattice --params phi=0.1,n_balls=2 --d 2 --n 16 --phi 0.02 --nu 0.05 "
    "--seeds 0..2 --out chk-prop5",
    f"check --id prop4 --family single-bump --params radius=0.2 --d 2 --n 16 {BIG_CAP} --out chk-prop4",
    "trace --id layer-cake --family random-steps --params scale=64 --d 2 --n 32 --seed 1 --out tr-layer-cake",
    "trace --id layer-cake --family random-steps --d 3 --n 16 --params blocks=4,scale=100 --seed 1 "
    "--out tr-layer-cake-3d",
    "trace --id prop2 --family ostwald --params phi=1/16,n_balls=2 --d 2 --n 64 --mu-count 3 --out tr-prop2",
    "trace --id prop3 --family ball-lattice --params phi=0.05,n_balls=2,mean=1 --d 2 --n 24 --eps 0.4 "
    f"{BIG_CAP} --out tr-prop3",
    "trace --id prop5 --family ball-lattice --params phi=0.1,n_balls=2 --d 2 --n 16 --phi 0.03 --nu 0.5 "
    "--out tr-prop5",
    f"calibrate --id prop3 --family ball-lattice --params phi=0.2,mean=1 --d 2 --n 16 --seeds 0..2 {BIG_CAP} "
    "--out cal-prop3",
    "calibrate --id prop2 --frozen --out cal-prop2",
    "calibrate --id geomest --frozen --out cal-geomest",
    "scaling --functional superconductor-chain --family ball-lattice --params phi=0.1,n_balls=1 --d 2 --n 16 "
    f"--nu 0.5 {BIG_CAP} --out sc1",
    # the W2 statements off d = 2
    f"check --id prop3 --family ball-lattice --params phi=0.2,mean=1 --d 3 --n 8 {BIG_CAP} --out chk-prop3-3d",
    "check --id prop5 --family ball-lattice --params phi=0.05,n_balls=2 --d 1 --n 64 --phi 0.02 --nu 0.05 "
    "--seeds 0..2 --out chk-prop5-1d",
    "check --id prop4 --family single-bump --params radius=0.3 --d 1 --n 32 --out chk-prop4-1d",
    # the check options routed through the CLI's settings table
    "check --id prop3 --family ball-lattice --params phi=0.2,mean=1 --d 2 --n 16 --threshold 0.9 "
    f"{BIG_CAP} --out chk-prop3-thr",
    "calibrate --id gn --q 4 --family random-steps --d 1 --n 32 --seeds 0..3 --out cal-gn",
    "sweep --id gn --q 1 --family random-steps --d 2 --n 32 --seeds 0..2 --out sw-gn",
    "trace --id prop3 --family ball-lattice --params phi=0.1,n_balls=1,mean=1 --d 3 --n 12 --eps 0.6 "
    f"{BIG_CAP} --out tr-prop3-3d",
    "trace --id prop5 --family ball-lattice --params phi=0.05,n_balls=2 --d 1 --n 64 --phi 0.02 --nu 0.05 "
    "--out tr-prop5-1d",
    # a Nelder-Mead simplex over two parameters (radius, height)
    f"extremize --id prop3 --family single-bump --d 2 --n 16 --params mean=1 --budget 30 --seed 1 {BIG_CAP} "
    "--out ex-prop3-2p",
]


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True)
    os.chdir(out)
    write_field()
    commands = [argv_[1:] for argv_ in readme_commands()] + [shlex.split(line) for line in EXTRA]
    for args in commands:  # in order: the README's `report` line re-runs an earlier config
        print(f"exit {cli_main(args)}  {' '.join(args)}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    main(sys.argv[1:])
