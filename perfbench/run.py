"""lsimpute benchmark: one workload per call, a JSON result on the last line.

    python3 perfbench/run.py --workload impute-paper-ratio --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20   # the four workloads in turn
    python3 perfbench/run.py --self-test                   # checks must catch corruptions

A run builds the seed's inputs and references if they are not cached (see
gen.py), then repeats the workload's timed pass until ``--seconds`` have
passed, with a set-up probe in a fresh process after each pass, and reports
medians. ``--trace 1`` wraps lsimpute's public functions and reports
per-layer figures instead of the end-to-end ones. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ["impute-paper-ratio", "impute-rare-anchors", "node2vec-hubs", "pipeline-dump"]
SETUP_SAMPLES = 7


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])}


def ensure_inputs(workload: str, seed: int) -> Path:
    """Build the cached inputs in a child process, so their memory is not ours."""
    out = subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                          "--seed", str(seed), "--keep"],
                         env=_env(), capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"building inputs for {workload} seed {seed} failed")
    return Path(out.stdout.strip().splitlines()[-1])


def setup_probe(workload: str, entry: Path) -> float:
    """Time from process start until imports are done and inputs are read."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "workloads.py"), workload, str(entry)],
                          env=_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    entry = ensure_inputs(workload, seed)

    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    wl = workloads.make(workload, entry)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.setup(wl.setup)
    else:
        wl.setup()

    times: list[float] = []
    # Set-up probes run between passes, so that they sample the same stretch
    # of machine speed as the passes do, not only its first seconds.
    setup_samples: list[float] = []
    attempted = failed = 0
    last = first_digest = None
    deterministic = True
    start = time.perf_counter()
    while True:
        wl.prepare()
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = tracer.round(wl.run) if tracer else wl.run()
        except Exception:
            failed += 1
            traceback.print_exc()
        else:
            times.append(time.perf_counter() - t0)
            digest = wl.digest(out)
            first_digest = first_digest or digest
            deterministic &= digest == first_digest
            last = out
        if not tracer and len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_probe(workload, entry))
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    else:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_probe(workload, entry))
    if not times:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}

    wall_s = statistics.median(times)
    failures, found = wl.check(last, wall_s)
    if not deterministic:
        failures.append("repeated passes over the same inputs gave different outputs")
    if tracer:
        traced_failures, traced_metrics = wl.check_traced(last, tracer)
        failures += traced_failures
        values = {**tracer.layer_metrics(), **traced_metrics, "traced.wall_s": wall_s}
        tracer.dump(ROOT / ".perfbench" / "out" / f"trace-{workload}-seed-{seed}.json")
    else:
        values = {"wall_s": wall_s, "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": peak_rss_mb, **found}
    units = _declared_units("per_layer" if tracer else "end_to_end")
    missing = [name for name in units if name not in values]
    if missing:
        # only a pass whose outputs failed a check leaves a metric uncomputed
        failures.append(f"metrics not computed: {missing}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    extra = {name: v for name, v in values.items() if name not in units}
    print(f"{workload}: also measured " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(extra.items())),
          file=sys.stderr)
    for msg in failures:
        print(f"CHECK FAILED [{workload} seed {seed}]: {msg}", file=sys.stderr)
    print(f"{workload}: {len(times)} passes, median {wall_s:.3f} s, all {[round(t, 3) for t in times]}",
          file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def _declared_units(kind: str) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares; each is reported on every workload."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    return {m["name"]: m["unit"] for m in declared}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    code = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))], capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}")
            code = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
        code |= not result["correct"]
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "lsimpute" / "__init__.py").is_file():
        print(f"error: no lsimpute sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if ns.self_test:
        sys.path[:0] = [str(SRC), str(HERE)]
        import selftest

        return selftest.main()
    if ns.all:
        return run_all(ns.seed, ns.seconds, bool(ns.trace))
    if not ns.workload:
        ap.error("give --workload, --all or --self-test")
    with contextlib.redirect_stdout(sys.stderr):
        result = run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
