"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/summarize.py --seeds 1-10 --seconds 30 \
        [--workloads tiny-pipeline verify] [--out perfbench/trajectory/x.json]

Each run is a fresh process, one after another. For every end-to-end metric
that applies to a workload it prints the median over runs, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median next to the metric's bound; ``ok`` means the spread is below a third
of the bound. Optimizer-step samples are also pooled over all runs, which
gives a tail percentile even where one run has too few steps for one.
With ``--out`` the summary is written as JSON, one trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import E2E_METRICS, OUT, ROOT, tail  # noqa: E402

#: deterministic per seed, so their spread over seeds is not noise
PER_SEED = ("heldout_plm_loss", "test_error_rate")


def seed_range(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:"
                           f"\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace0"
    record = json.loads((OUT / "results" / f"{tag}.json").read_text())
    return {"result": result, "record": record}


def summarize(workload: str, runs: list[dict]) -> dict:
    out = {"runs": len(runs),
           "failed_ops": sum(r["result"]["failed"] for r in runs),
           "attempted_ops": sum(r["result"]["attempted"] for r in runs),
           "env": runs[0]["record"]["env"], "metrics": {}}
    for name, unit, better, bound, workloads in E2E_METRICS:
        if workload not in workloads or name == "failed_ops_ratio":
            continue
        values = [r["record"]["e2e"][name]["value"] for r in runs
                  if name in r["record"]["e2e"]]
        if len(values) < 2:
            out["metrics"][name] = {"unit": unit, "values": values}
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        out["metrics"][name] = {"unit": unit, "median": q2, "q1": q1, "q3": q3,
                                "spread": spread, "bound": bound,
                                "values": values}
    steps = [s for r in runs for p in r["record"]["passes"]
             for s in p.get("step_s", ())]
    if steps:
        pooled = {"n": len(steps), "p50": statistics.median(steps)}
        t = tail(steps)
        if t is not None:
            pooled.update(tail=t[0], tail_percentile=t[1])
        out["pooled_step_s"] = pooled
    return out


def print_summary(workload: str, summary: dict) -> None:
    print(f"\n== {workload}: {summary['runs']} runs, failed ops "
          f"{summary['failed_ops']}/{summary['attempted_ops']}")
    print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, m in summary["metrics"].items():
        if "median" not in m:
            print(f"{name:<24} values {m['values']}")
            continue
        flag = ("per-seed" if name in PER_SEED
                else "ok" if m["spread"] < m["bound"] / 3 else "WIDE")
        print(f"{name:<24} {m['median']:>12.6g} {m['q1']:>12.6g} "
              f"{m['q3']:>12.6g} {m['spread']:>8.4f} {m['bound']:>6} {flag}"
              f"  [{m['unit']}]")
    if "pooled_step_s" in summary:
        p = summary["pooled_step_s"]
        tail_text = (f"p{p['tail_percentile']} {p['tail']:.6g} s"
                     if "tail" in p else "tail n/a")
        print(f"pooled optimizer steps: n={p['n']} p50 {p['p50']:.6g} s, "
              f"{tail_text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["tiny-pipeline", "full-long", "verify"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    summaries = {}
    for workload in args.workloads:
        runs = []
        for seed in seed_range(args.seeds):
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: "
                  f"{json.dumps(runs[-1]['result']['metrics'])}", flush=True)
        summaries[workload] = summarize(workload, runs)
        print_summary(workload, summaries[workload])
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds,
             "workloads": summaries}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
