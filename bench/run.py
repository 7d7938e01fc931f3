"""Run one finhaar benchmark workload and print its metrics.

    python3 bench/run.py --workload lattice-ladder --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: finhaar is imported from
``src/`` next to this directory, never from an installed copy.  One
process, one thread, one call at a time (a closed loop).  The run

1. imports finhaar, makes the workload's inputs from the seed and sets
   the workload up, then times that set-up in fresh interpreters
   (``--probe setup``), each next to a fresh interpreter that times the
   frozen reference imports (``--probe ref``), and keeps the median of
   the ratios;
2. runs one untimed warm-up pass and checks its outputs against
   computations made apart from finhaar (``oracles``);
3. runs timed passes until ``--seconds`` have gone by, each after
   ``gc.collect()``, each on fresh group objects, with the frozen
   reference loop sampled every 40 ms through the pass (``refloop``),
   and compares each pass's outputs with the checked warm-up.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones
from ``tracing``.  Details of every run go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
# set-up probes run in pairs (set-up, reference) until SETUP_PROBE_S
# seconds have gone by and at least SETUP_PROBES_MIN pairs have run, so
# a workload with a cheap set-up takes more samples
SETUP_PROBE_S = 10
SETUP_PROBES_MIN = 11
PROBE_TIMEOUT_S = 60

# The workloads are single-thread.  numpy's OpenBLAS would otherwise
# start a worker thread per vCPU at import, which made the set-up time
# depend on the load of the other vCPU; probes inherit this setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, str(BENCH))

from refloop import NOMINAL_IMPORT_S, REF_IMPORTS, Sampler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_finhaar():
    """finhaar from this checkout's src/, or exit 2 if it is not there."""
    package = SRC / "finhaar"
    if not (package / "__init__.py").is_file():
        print(f"bench: no finhaar sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import finhaar

    if Path(finhaar.__file__).resolve().parent != package.resolve():
        print(f"bench: imported finhaar from {finhaar.__file__}", file=sys.stderr)
        sys.exit(2)
    return finhaar


def probe(kind, workload, seed):
    """Wall seconds of one set-up (``kind`` "setup": import finhaar plus
    the workload's set-up) or of the reference imports (``kind`` "ref")
    in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--probe", kind],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["wall_s"]


def run_probe(kind, wl, seed):
    started = time.perf_counter()
    if kind == "ref":
        for name in REF_IMPORTS:
            importlib.import_module(name)
    else:
        wl.setup(import_finhaar(), seed, ROOT)
    print(json.dumps({"wall_s": time.perf_counter() - started}))


def run_pass(steps, errors, sampler):
    """One pass: returns (outputs, failed, work seconds, work in
    reference loops).

    Work seconds are the pass's wall time less the time spent in
    reference samples."""
    outputs, failed = {}, 0
    sampler.start()
    started = time.perf_counter()
    for name, step in steps:
        try:
            outputs[name] = step(outputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            outputs[name] = None
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    ended = time.perf_counter()
    samples = sampler.stop()
    work = ended - started - sum(samples)
    return outputs, failed, work, in_ref_loops(started, ended, sampler.starts, samples)


def in_ref_loops(started, ended, starts, samples):
    """Work between ``started`` and ``ended`` counted in reference loops:
    each stretch between two samples divided by the mean of the samples
    on either side of it, so that a stretch run at a slow speed is
    divided by slow samples."""
    stretch_starts = [started] + [s + d for s, d in zip(starts, samples)]
    stretch_ends = list(starts) + [ended]
    total = 0.0
    for j, (a, b) in enumerate(zip(stretch_starts, stretch_ends)):
        total += (b - a) / statistics.fmean(samples[max(j - 1, 0) : j + 1])
    return total


def _number(value):
    return int(value) if float(value).is_integer() and abs(value) < 2**53 else value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", choices=["setup", "ref"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if args.probe:
        run_probe(args.probe, wl, args.seed)
        return 0

    fh = import_finhaar()
    prepared = wl.prepare(args.seed, ROOT)
    state = dict(prepared, **wl.setup(fh, args.seed, ROOT))
    probes = []
    probe_deadline = time.perf_counter() + SETUP_PROBE_S
    while len(probes) < SETUP_PROBES_MIN or time.perf_counter() < probe_deadline:
        probes.append(
            (probe("setup", args.workload, args.seed), probe("ref", args.workload, args.seed))
        )

    tracer, sampler = None, Sampler()
    if args.trace:  # spans leave the reference samples out
        from tracing import Tracer

        tracer = Tracer(sampler)
        tracer.install()

    errors = []
    gc.collect()
    warm = run_pass(wl.steps(state), errors, sampler)[0]
    try:
        problems = wl.check(state, warm)
        reference = wl.summary(warm)
    except Exception as exc:  # a crash in a check is a failed check
        problems, reference = [f"check crashed: {type(exc).__name__}: {exc}"], None
    # no pass runs while an earlier pass's groups are alive, so the peak
    # resident set does not depend on how many passes fit the run
    del warm

    attempted = failed = 0
    walls, norms = [], []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        steps = wl.steps(state)
        gc.collect()
        if tracer:
            tracer.pass_index = len(walls)
        outputs, pass_failed, work, norm = run_pass(steps, errors, sampler)
        if tracer:
            tracer.pass_index = None
        attempted += len(steps)
        failed += pass_failed
        walls.append(work)
        norms.append(norm)
        try:
            if wl.summary(outputs) != reference:
                problems.append(f"pass {len(walls)}: outputs differ from the warm-up pass")
        except Exception as exc:
            problems.append(f"pass {len(walls)}: summary crashed: {exc}")
        del outputs
    for line in dict.fromkeys(errors + problems):
        print(f"bench: {line}", file=sys.stderr)

    end_to_end = {
        "setup_s": (statistics.median(w / ref for w, ref in probes) * NOMINAL_IMPORT_S, "s"),
        "pass_norm": (statistics.median(norms), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    metrics = end_to_end
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.uninstall()
        metrics = tracer.per_pass_metrics(len(walls))
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": _number(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        passes=len(walls),
        pass_walls=walls,
        pass_norms=norms,
        setup_wall_s=[w for w, _ref in probes],
        ref_import_wall_s=[ref for _w, ref in probes],
        pass_s=statistics.median(walls),
        end_to_end={k: v for k, (v, _u) in end_to_end.items()},
        problems=problems,
    )
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
