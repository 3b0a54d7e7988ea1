"""Summarize the records run.py leaves in perfbench/out/ as markdown tables.

    python3 perfbench/summarize.py --seeds 1-10 [--seeds 11-20]

For each workload and seed set: the median, quartiles and quartile spread
(q3 - q1, as a share of the median) of every end-to-end metric over the
untraced runs; with two sets, the second median as a share of the first.
Then the traced runs' per-layer medians, and the tracing overhead: the
traced runs' end-to-end medians as a share of the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import statistics

from run import END_TO_END, OUT, PER_LAYER
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(workload: str, seeds: list[int], trace: int) -> list[dict]:
    paths = (OUT / f"{workload}-seed{s}-trace{trace}.json" for s in seeds)
    return [json.loads(p.read_text()) for p in paths if p.exists()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", action="append", type=seed_range, required=True)
    sets = ap.parse_args().seeds
    for wl in WORKLOADS:
        runs = [load(wl, seeds, 0) for seeds in sets]
        if not runs[0]:
            continue
        print(f"\n### {wl}\n")
        head = "| metric | unit |"
        for i, r in enumerate(runs):
            head += f" set {i + 1} median ({len(r)} runs) | q1 | q3 | spread |"
        if len(runs) == 2:
            head += " set 2 / set 1 |"
        print(head)
        print("|" + "---|" * (head.count("|") - 1))
        for name, unit in END_TO_END.items():
            row, medians = f"| {name} | {unit} |", []
            for r in runs:
                q1, med, q3 = quartiles([x["end_to_end"][name] for x in r])
                medians.append(med)
                row += f" {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} |"
            if len(runs) == 2:
                row += f" {medians[1] / medians[0]:.3f} |"
            print(row)
        traced = load(wl, [s for seeds in sets for s in seeds], 1)
        if not traced:
            continue
        print(f"\nTraced ({len(traced)} runs), median per timed round "
              "(weights.*: per set-up):\n")
        print("| layer metric | unit | median |")
        print("|---|---|---|")
        for name, unit in PER_LAYER.items():
            med = statistics.median(x["per_layer"][name] for x in traced)
            print(f"| {name} | {unit} | {med:.4g} |")
        untraced = [x for r in runs for x in r]
        print("\n| end-to-end | untraced median | traced median | traced / untraced |")
        print("|---|---|---|---|")
        # the traced set-up runs in-process, so setup_s is not comparable
        for name in ("simulate_s", "track_s", "pipeline_s",
                     "ingest_evbin_mev_s", "ingest_csv_mev_s", "repr_mev_s"):
            a = statistics.median(x["end_to_end"][name] for x in untraced)
            b = statistics.median(x["end_to_end"][name] for x in traced)
            print(f"| {name} | {a:.4g} | {b:.4g} | {b / a:.3f} |")


if __name__ == "__main__":
    main()
