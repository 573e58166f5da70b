"""Run one schrodlab benchmark workload and print its metrics.

    python3 bench/run.py --workload spectral --seed 3 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives a closed loop: fresh worker processes, started
one after another and never two at once, each set up and run the workload's
experiments one after another.  Before each worker, set-up-only processes
sample set-up time once more each.  Set-up time is the median over all these
processes, first-pass time the median over the workers, warm-pass time the
median of all their warm passes; spreading the samples over the whole run
makes them less sensitive to a slow spell of the host.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The lines
before it give every metric by name with its unit, and the environment.

``--record-reference`` rewrites the workload's entries of
``bench/reference.json`` from a run at the committed seeds, and refuses
to if any execution fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
WORKERS = 3
SETUP_PROBES = 2  # set-up-only processes before each worker
IMPORT_PROBES = 3
IMPORT_MODULES = ("grid", "multipliers", "birman_schwinger", "kernels", "counterexample", "cli")
# Set-up and first passes run outside the --seconds budget; the run must end
# within DEADLINE_BASE_S + DEADLINE_PER_S * seconds.
DEADLINE_BASE_S = 120.0
DEADLINE_PER_S = 2.0


def spawn(argv: list[str], env: dict, deadline: float,
          echo: bool = True) -> subprocess.CompletedProcess:
    """Run a child to completion within the deadline; raise if it fails.

    The child's standard error is captured, and passed on when ``echo`` is set.
    """
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(argv, env=env, timeout=timeout, text=True, stderr=subprocess.PIPE)
    if echo:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited with code {proc.returncode}")
    return proc


def import_times(env: dict, deadline: float) -> dict[str, float]:
    """Cumulative import time of each traced module, from ``-X importtime``."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_PROBES):
        proc = spawn([sys.executable, "-X", "importtime", "-c", "import schrodlab.cli"],
                     env, deadline, echo=False)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("schrodlab."):
                module = parts[2].strip().removeprefix("schrodlab.")
                if module in samples:
                    samples[module].append(int(parts[1]) * 1e-6)
    return {f"{m}.import_s": statistics.median(v) for m, v in samples.items()}


def cache_size(level: int) -> int | None:
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return int(out) if out else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="replaces the seed of the seeded configs (default: committed seeds)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="time budget of the warm passes (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb-reference", action="store_true",
                    help="alter one reference value, so the checks must fail")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "schrodlab" / "cli.py").is_file():
        print(f"no schrodlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import ALL_EXPERIMENTS, WORKLOADS, field_bytes, write_configs

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed is not None:
        print("--record-reference uses the committed seeds; drop --seed", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    deadline = time.monotonic() + DEADLINE_BASE_S + DEADLINE_PER_S * args.seconds
    load_at_start = os.getloadavg()
    experiments = WORKLOADS[args.workload]

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        configs = write_configs(args.workload, ROOT, args.seed, run_dir / "configs")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        worker = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                  "--run-dir", str(run_dir)]

        if args.perturb_reference:
            worker.append("--perturb-reference")
        if args.record_reference:
            worker.append("--record")
        # The workers share the warm budget; what one leaves unused passes to
        # the next.  A traced run gives half of it to the last worker's traced
        # passes.
        warm_total = args.seconds / (1 + args.trace)
        workers, setup_times = [], []
        for k in range(WORKERS):
            for _ in range(SETUP_PROBES):
                start = time.monotonic()
                spawn(worker + ["--result", "setup.json", "--setup-only"], env, deadline)
                setup_times.append(json.loads((run_dir / "setup.json").read_text())["ready"]
                                   - start)
            used = sum(r["warm_s"] for r in workers)
            extra = ["--seconds", str(max(0.0, warm_total - used) / (WORKERS - k))]
            if args.trace and k == WORKERS - 1:
                extra += ["--traced-seconds", str(args.seconds - warm_total)]
            start = time.monotonic()
            spawn(worker + ["--result", f"result{k}.json"] + extra, env, deadline)
            workers.append(json.loads((run_dir / f"result{k}.json").read_text()))
            setup_times.append(workers[-1]["ready"] - start)
        result = workers[-1]
        imports = import_times(env, deadline) if args.trace else {}
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    if args.record_reference:
        if failed:
            print(f"not recording: {failed} of {attempted} executions failed", file=sys.stderr)
            return 1
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        reference.update(result["observed"])
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"recorded {sorted(result['observed'])} in {REFERENCE}", file=sys.stderr)

    warm = [t for r in workers for t in r["passes"]]
    values = {
        "setup_s": statistics.median(setup_times),
        "first_pass_s": statistics.median(r["first_pass_s"] for r in workers),
        "pass_s": statistics.median(warm),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in workers),
        "ok_frac": (attempted - failed) / attempted,
    }
    if args.trace:
        traced = statistics.median(result["traced_passes"])
        values.update(result["layers"])
        values.update(imports)
        each = [t for r in workers for t in r["experiment_times"]]
        values.update({f"cli.{name}_s": statistics.median(t[name] for t in each)
                       if name in each[0] else 0.0 for name in ALL_EXPERIMENTS})
        values["trace.pass_s"] = traced
        values["trace.overhead_s"] = traced - values["pass_s"]

    environment = dict(result["environment"])
    environment.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "l2_cache_bytes": cache_size(2),
        "l3_cache_bytes": cache_size(3),
        "field_bytes": {e.name: field_bytes(e, configs[e.name]) for e in experiments},
        "loadavg_at_start": load_at_start,
        "samples": {"runs": 1, "setup_s": len(setup_times), "first_pass_s": len(workers),
                    "pass_s": len(warm), "cli_s": len(warm),
                    "traced_passes": len(result.get("traced_passes", [])),
                    "import_s": IMPORT_PROBES if args.trace else 0},
        "failed_frac": failed / attempted,
        "setup_times_s": setup_times,
        "first_pass_times_s": [r["first_pass_s"] for r in workers],
        "pass_times_s": warm,
    })
    for k, r in enumerate(workers):
        for failure in r["failures"]:
            print(f"FAILED worker {k} {failure}", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:48s} {values[m['name']]:.6g} {m['unit']}")
    print(f"{'failed_frac':48s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} executions)")
    print(json.dumps({"environment": environment}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
