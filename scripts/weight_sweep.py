#!/usr/bin/env python3
"""Penalty-weight comparison on the 30-bus case: w2 in {0.1, 1.0}.

Trains the two variants identically (same data, seeds and epochs) and
prints a feasibility / cost-difference / speedup row per variant.

Usage: python scripts/weight_sweep.py [--epochs 100] [--train 1000]
       [--test 200] [--seed 7]
"""

import argparse
import logging

from deepsolve import OpfPredictor, build_dataset, evaluate, load_case


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--case", default="case30")
    ap.add_argument("--train", type=int, default=1000)
    ap.add_argument("--test", type=int, default=200)
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    logging.basicConfig(level=logging.WARNING)
    case = load_case(args.case)
    train_ds, test_ds = build_dataset(case, args.train, args.test, seed=args.seed)

    print(f"{'w2':>5}  {'feasibility %':>14}  {'cost diff %':>12}  {'speedup':>8}")
    for w2 in (0.1, 1.0):
        est = OpfPredictor(case=case, epochs=args.epochs, w2=w2, seed=args.seed + 1)
        report = evaluate(est.fit(train_ds), test_ds, timed=True)
        print(
            f"{w2:>5}  {report.feasibility_rate:>14.1f}  "
            f"{report.cost_diff_pct:>+12.3f}  x{report.speedup:>7.1f}"
        )


if __name__ == "__main__":
    main()
