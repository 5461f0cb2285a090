#!/usr/bin/env python3
"""End-to-end experiment: synthesize data, train, evaluate, report.

Reproduces the full pipeline on synthetic handovers with a pair-disjoint
split, writing every artifact (dataset, checkpoint, loss history, metrics,
per-sample comparisons) into one output directory. With the defaults this
is the repository's reference experiment: 13 pairs x 10 handovers, train on
11 pairs, test on pairs 12 and 13.

Usage:
    python3 scripts/run_experiment.py --out runs/reference
    python3 scripts/run_experiment.py --out runs/quick --epochs 5 --hidden 8
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gripforecast.cli import main as cli_main

TRAIN_KEYS = ("epochs", "hidden", "batch_size", "learning_rate", "seed")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory for all artifacts")
    ap.add_argument("--pairs", type=int, default=13)
    ap.add_argument("--per-pair", type=int, default=10)
    ap.add_argument("--data-seed", type=int, default=7)
    ap.add_argument("--test-pairs", default="12,13")
    # Training flags (default None) override TrainConfig's defaults when given.
    ap.add_argument("--epochs", type=int)
    ap.add_argument("--hidden", type=int)
    ap.add_argument("--batch-size", type=int)
    ap.add_argument("--learning-rate", type=float)
    ap.add_argument("--train-seed", dest="seed", type=int)
    return ap.parse_args(argv)


def run(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = out / "data.csv"
    config = out / "train_config.json"
    given = {key: getattr(args, key) for key in TRAIN_KEYS if getattr(args, key) is not None}
    config.write_text(json.dumps(given, indent=2) + "\n")

    steps = [
        (
            "synth",
            [
                "synth",
                "--pairs", str(args.pairs),
                "--per-pair", str(args.per_pair),
                "--seed", str(args.data_seed),
                "--out", str(data),
            ],
        ),
        (
            "train",
            [
                "train",
                "--data", str(data),
                "--test-pairs", args.test_pairs,
                "--config", str(config),
                "--out", str(out / "model"),
            ],
        ),
        (
            "eval",
            [
                "eval",
                "--model", str(out / "model" / "checkpoint.json"),
                "--data", str(data),
                "--test-pairs", args.test_pairs,
                "--out", str(out / "eval"),
            ],
        ),
    ]
    for name, argv in steps:
        t0 = time.time()
        print(f"[{name}] {' '.join(argv[1:])}", flush=True)
        rc = cli_main(argv)
        if rc != 0:
            print(f"[{name}] failed with exit code {rc}", file=sys.stderr)
            return rc
        print(f"[{name}] done in {time.time() - t0:.1f} s", flush=True)

    metrics = json.loads((out / "eval" / "metrics.json").read_text())
    print("test metrics:")
    for key, value in metrics.items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
