"""Repeat benchmark runs and judge their steadiness against BENCHMARK.json.

    python3 bench/steady.py --runs 10 --label first          # 10 runs per workload
    python3 bench/steady.py --runs 10 --label second --first-seed 101
    python3 bench/steady.py --compare first second

A set of runs uses seeds first-seed, first-seed+1, ... on each workload
and the run length from BENCHMARK.json; its results go to
``bench/results/steady-<label>.json``.  For each end-to-end metric the
report gives the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, against the metric's bound.
``--compare`` puts two sets side by side: the second median may be
worse than the first by at most the bound, and the share of failed
operations must be the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


def load_config():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_set(config, label, runs, first_seed):
    runs_out = {}
    for name in (w["name"] for w in config["workloads"]):
        runs_out[name] = []
        for i in range(runs):
            seed = first_seed + i
            cmd = config["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs_out[name].append(result)
            values = " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            )
            print(f"{name} seed {seed}: correct={result['correct']} {values}", flush=True)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"steady-{label}.json").write_text(json.dumps(runs_out, indent=1))
    return runs_out


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def report(config, label, runs_out):
    print(f"\nset {label}")
    ok = True
    for name, results in runs_out.items():
        bad = [r for r in results if not r["correct"]]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: {len(results)} runs, {len(bad)} incorrect, failed shares {sorted(shares)}")
        ok &= not bad and len(shares) == 1
        for metric in config["end_to_end"]:
            m = metric["name"]
            med, q1, q3, rel = spread([r["metrics"][m]["value"] for r in results])
            bound = metric["bound"]
            verdict = "ok" if rel < bound / 3 else ("within bound" if rel <= bound else "OVER")
            ok &= rel <= bound
            print(
                f"  {m:12s} median {med:.5g} {metric['unit']}  q1 {q1:.5g}  q3 {q3:.5g}"
                f"  iqr/median {rel:.3f}  bound {bound}  {verdict}"
            )
    return ok


def compare(config, first, second):
    a = json.loads((RESULTS / f"steady-{first}.json").read_text())
    b = json.loads((RESULTS / f"steady-{second}.json").read_text())
    ok = report(config, first, a) & report(config, second, b)
    print(f"\n{second} against {first}")
    for name in a:
        share_a = {r["failed"] / r["attempted"] for r in a[name]}
        share_b = {r["failed"] / r["attempted"] for r in b[name]}
        ok &= share_a == share_b
        print(f"{name}: failed shares {sorted(share_a)} / {sorted(share_b)}")
        for metric in config["end_to_end"]:
            m = metric["name"]
            ma = statistics.median(r["metrics"][m]["value"] for r in a[name])
            mb = statistics.median(r["metrics"][m]["value"] for r in b[name])
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            within = worse <= metric["bound"]
            ok &= within
            print(
                f"  {m:12s} {ma:.5g} -> {mb:.5g}  worse by {worse:+.3f}"
                f"  bound {metric['bound']}  {'ok' if within else 'OVER'}"
            )
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="latest")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    config = load_config()
    if args.compare:
        return 0 if compare(config, *args.compare) else 1
    runs_out = run_set(config, args.label, args.runs, args.first_seed)
    return 0 if report(config, args.label, runs_out) else 1


if __name__ == "__main__":
    sys.exit(main())
