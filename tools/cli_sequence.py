"""Run the seeded `gneva` CLI sequence on one source tree and write a manifest of everything it wrote.

    python tools/cli_sequence.py --src path/to/src --out path/to/empty/dir

The sequence, each step through `python -m gneva.cli` with `PYTHONPATH=<src>`
and `OPENBLAS_NUM_THREADS=1`, run inside `--out` with relative paths so
nothing it prints depends on where the tree lives:

- `synth` of 40 training scenes each of turn, straight and merge at seed 7,
  and of 22 held-out scenes of each kind at seed 901;
- `train-spatial` and `train-traj`, 30 steps each at batch 16 with 5 warmup steps;
- `predict` on the held-out directory, then `eval`;
- `density` of the first 2 held-out scenes of each kind, at 0.5 m and at 0.25 m.

Each step's stdout and stderr go to `stdout.txt` and `stderr.txt` under a
`$ gneva ...` header. `manifest.txt` holds the sha256 of every file, those
two included, so the runs of two trees compare with `diff`. The sequence
stops at the first step that exits nonzero; the manifest is still written
and the tool exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

KINDS = ("turn", "straight", "merge")
TRAIN = ["--set", "train.batch_size=16", "--set", "train.max_steps=30", "--set", "train.warmup_steps=5"]


def steps() -> list[list[str]]:
    seq = [["synth", "--kind", k, "--n", "40", "--seed", "7", "--out", "train"] for k in KINDS]
    seq += [["synth", "--kind", k, "--n", "22", "--seed", "901", "--out", "heldout"] for k in KINDS]
    seq += [
        [*TRAIN, "train-spatial", "--data", "train", "--out", "spatial.json"],
        [*TRAIN, "train-traj", "--data", "train", "--spatial-model", "spatial.json", "--out", "traj.json"],
        ["predict", "--spatial-model", "spatial.json", "--traj-model", "traj.json", "--scenario", "heldout",
         "--out", "pred"],
        ["eval", "--pred", "pred", "--data", "heldout", "--out", "report.json"],
    ]
    for kind in KINDS:
        for i in range(2):
            scene = f"heldout/{kind}-901-{i:04d}.json"
            for spacing in ("0.5", "0.25"):
                seq.append(["density", "--spatial-model", "spatial.json", "--scenario", scene, "--spacing", spacing,
                            "--out", f"density/{kind}-{i}-{spacing}.csv"])
    return seq


def write_manifest(out: Path) -> None:
    files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.txt")
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}\n" for p in files]
    (out / "manifest.txt").write_text("".join(lines))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the tree's src directory, holding the gneva package")
    parser.add_argument("--out", required=True, help="an empty or new directory for the sequence's files")
    args = parser.parse_args()
    src, out = Path(args.src).resolve(), Path(args.out)
    if not (src / "gneva").is_dir():
        parser.error(f"{src} holds no gneva package")
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    (out / "density").mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    code = 0
    with open(out / "stdout.txt", "w") as stdout, open(out / "stderr.txt", "w") as stderr:
        for argv in steps():
            header = f"$ gneva {' '.join(argv)}\n"
            stdout.write(header)
            stderr.write(header)
            stdout.flush()
            stderr.flush()
            run = subprocess.run([sys.executable, "-m", "gneva.cli", *argv], cwd=out, env=env,
                                 stdout=stdout, stderr=stderr)
            if run.returncode != 0:
                stderr.write(f"exit {run.returncode}\n")
                code = 1
                break
    write_manifest(out)
    print(f"{'stopped' if code else 'done'}: {out / 'manifest.txt'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
