"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

It checks that

* a short run of every workload prints every metric named in
  ``BENCHMARK.json`` with its unit, untraced and traced, and passes its checks;
* a perturbed reference value drives ``failed_frac`` above 0, and a
  missing reference entry fails the comparison;
* the traced counts match the call totals each workload's configs imply, so
  a wrapper that misses a ``from``-import shows up;
* the ``starts_agree`` check fails ``bs_sweep`` at a seed where op_norm's
  two starts disagree, the known defect that keeps ``bs_sweep`` at its
  committed seed;
* in a directory holding only ``BENCHMARK.json`` and ``bench/`` the benchmark
  exits non-zero without printing a result.

It takes a few minutes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent

# Calls per pass fixed by the committed configs, not by how schrodlab computes.
# A bs_sweep seed at which op_norm's two starts differ by more than 2% at nu = 8.
DISAGREEING_SEED = 1523899840

KNOWN_COUNTS = {
    "spectral": {
        "estimates.strichartz_ratio.calls": 90,  # 3 pairs x 6 nu x (4 + 1) fields
        "estimates.gain_ratio.calls": 36,  # 6 nu x (5 + 1) fields
        "birman_schwinger.op_norm.calls": 7,  # 5 + 1 nu values, 1 CGO solve
        "reports.write_report.calls": 5,
    },
    "evolution": {
        "forward.evolve.calls": 62,  # 1 forward, 3 identity trials, 58 distinct probes
        "forward.steps": 8320,  # 128 + 3 x 256 + 58 x 128
        "reconstruction.born_sample.calls": 197,  # lattice points with |xi| <= 8
        "reports.write_report.calls": 3,
    },
    "quadrature": {
        "kernels.eval_K_sigma_quadrature.calls": 1600,  # 8 sigmas x 200 points
        "multipliers.propagator_factor.calls": 1,
        "reports.write_report.calls": 2,
    },
}


def run(cwd: pathlib.Path, workload: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = run(ROOT, workload, "--trace", trace)
            out = result(proc)
            expect(out["correct"] and out["failed"] == 0,
                   f"{workload} trace {trace}: checks failed\n{proc.stderr[-2000:]}")
            expect(set(out["metrics"]) == {m["name"] for m in wanted},
                   f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
            for m in wanted:
                got = out["metrics"].get(m["name"], {})
                expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
                       f"{workload}: {m['name']} not reported in {m['unit']}")
                expect(any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                           for line in proc.stdout.splitlines()),
                       f"{workload}: {m['name']} not printed with its unit")
            if trace == "1":
                for name, count in KNOWN_COUNTS[workload].items():
                    value = out["metrics"][name]["value"]
                    expect(value == count, f"{workload}: {name} = {value}, expected {count}")
        print(f"{workload}: checked", flush=True)

    out = result(run(ROOT, "evolution", "--perturb-reference"))
    expect(out["failed"] > 0 and not out["correct"],
           "a perturbed reference value did not fail the checks")
    sys.path.insert(0, str(BENCH))
    import execute

    for name, quantities in execute.REFERENCE_QUANTITIES.items():
        if quantities:
            observed = {q: [1.0] for q in quantities}
            for reference in ({}, {name: {}}):
                expect(execute.compare(name, observed, reference) != [],
                       f"{name}: a missing reference entry passed the comparison")
    print("perturbed reference: checked", flush=True)

    sys.path.insert(0, str(ROOT / "src"))
    from schrodlab import cli
    from workloads import WORKLOADS, committed_config

    exp = next(e for e in WORKLOADS["spectral"] if e.name == "bs_sweep")
    cfg = dict(committed_config(exp, ROOT), seed=DISAGREEING_SEED)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="disagree-", dir=ROOT / ".bench_tmp"))
    try:
        config = scratch / "bs_sweep.json"
        config.write_text(json.dumps(cfg))
        execute.clear_outputs(scratch / "out")
        outcome = execute.run(cli, exp, cfg, config, scratch / "out")
        report = json.loads((scratch / "out" / execute.REPORT_FILES["bs_sweep"]).read_text())
        _, found = execute.observe(exp, cfg, scratch / "out", outcome)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if all(s["starts_agree"] for s in report["samples"]):
        print(f"bs_sweep at seed {DISAGREEING_SEED}: starts agree now; the known defect "
              "no longer shows here", flush=True)
    else:
        expect(any("starts disagree" in p for p in found),
               "a bs_sweep row with starts_agree false passed the checks")
        print("disagreeing starts: checked", flush=True)

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    bare = pathlib.Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "spectral")
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the sources the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: checked", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
