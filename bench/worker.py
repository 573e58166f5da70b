"""One benchmark worker: a fresh interpreter that runs one workload.

The worker imports ``schrodlab.cli``, reads and validates the workload's
configs (the set-up every CLI invocation pays), then runs passes over the
workload's experiments one after another, each starting when the previous
one returns: the first pass, then warm passes for ``--seconds``, then traced
passes for ``--traced-seconds``, if that is given.  With ``--setup-only``
it stops after set-up.  It starts no threads of its own.  Results go to a
JSON file.  Set-up ends at the monotonic clock reading ``ready``, from which
the parent measures set-up time from process start.
"""

from __future__ import annotations

import argparse
import json
import logging
import pathlib
import resource
import sys
import time
import traceback

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def setup(config_dir: pathlib.Path):
    """Import the CLI and read and validate every config, as the CLI does."""
    from schrodlab import cli

    configs = {}
    for path in sorted(config_dir.glob("*.json")):
        cfg = cli.load_config(str(path))
        if "grid" in cfg:
            cli.build_grid(cfg)
        configs[path.stem] = cfg
    return cli, configs


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    import ctypes
    import numpy as np

    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }


class Runner:
    """Runs passes over the workload's experiments and checks every execution."""

    def __init__(self, experiments, cli, configs, run_dir, reference, seed_matches):
        self.experiments = experiments
        self.cli = cli
        self.configs = configs
        self.run_dir = run_dir
        self.reference = reference
        self.seed_matches = seed_matches
        self.attempted = 0
        self.failures: list[str] = []
        self.observed: dict = {}
        self.tracer = None

    def one_pass(self, number: int) -> tuple[float, dict]:
        """Run every experiment once; return the pass time and each experiment's time."""
        import execute  # after set-up is timed, like the imports in main()

        times = {}
        for exp in self.experiments:
            out = self.run_dir / "out" / exp.name
            execute.clear_outputs(out)
            cfg = self.configs[exp.name]
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.tag = (number, exp.name)
            start = time.perf_counter()
            try:
                config = self.run_dir / "configs" / f"{exp.name}.json"
                outcome = execute.run(self.cli, exp, cfg, config, out)
                problems = None
            except Exception as exc:  # noqa: BLE001 - an execution that raises counts as failed
                traceback.print_exc()
                problems = [f"raised {type(exc).__name__}: {exc}"]
            times[exp.name] = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.tag = None
            if problems is None:
                problems = self.check(exp, cfg, out, outcome)
            if problems:
                self.failures.append(f"pass {number} {exp.name}: {'; '.join(problems[:3])}")
        return sum(times.values()), times

    def check(self, exp, cfg, out, outcome) -> list[str]:
        import execute

        try:
            quantities, problems = execute.observe(exp, cfg, out, outcome)
        except Exception as exc:  # noqa: BLE001 - an unreadable output fails the check
            traceback.print_exc()
            return [f"check raised {type(exc).__name__}: {exc}"]
        self.observed[exp.name] = quantities
        if self.reference is not None and self.seed_matches[exp.name]:
            problems += execute.compare(exp.name, quantities, self.reference)
        return problems

    def passes(self, first: int, budget: float) -> tuple[list[float], list[dict]]:
        """Closed-loop passes until another would overrun ``budget`` seconds (at least one)."""
        totals, each = [], []
        start = time.monotonic()
        while True:
            total, times = self.one_pass(first + len(totals))
            totals.append(total)
            each.append(times)
            if time.monotonic() - start + total > budget:
                return totals, each


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--run-dir", required=True, type=pathlib.Path)
    ap.add_argument("--result", default="result.json", help="file name inside --run-dir")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="warm-pass budget; one warm pass runs at least")
    ap.add_argument("--traced-seconds", type=float, default=0.0, help="traced-pass budget")
    ap.add_argument("--perturb-reference", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="skip the reference comparison; the observed values are to be recorded")
    args = ap.parse_args(argv)

    # The CLI's own basicConfig(INFO) becomes a no-op; warnings still reach stderr.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    cli, configs = setup(args.run_dir / "configs")
    ready = time.monotonic()
    if args.setup_only:
        (args.run_dir / args.result).write_text(json.dumps({"ready": ready}))
        return 0

    # The benchmark's own modules load after set-up is timed, so that set-up
    # time is what ``import schrodlab.cli`` and reading the configs cost.
    import execute
    import tracing
    from workloads import DOMINANT_LAYERS, WORKLOADS, uses_committed_seed

    experiments = WORKLOADS[args.workload]
    reference = None
    if not args.record:
        reference = json.loads((BENCH / "reference.json").read_text())
    if args.perturb_reference:
        name = next(e.name for e in experiments if execute.REFERENCE_QUANTITIES[e.name])
        quantity = execute.REFERENCE_QUANTITIES[name][0]
        reference[name][quantity][0] *= 1.0 + 1e-6
    seed_matches = {e.name: uses_committed_seed(e, ROOT, configs[e.name]) for e in experiments}
    runner = Runner(experiments, cli, configs, args.run_dir, reference, seed_matches)

    first_pass_s, _ = runner.one_pass(0)
    start = time.monotonic()
    warm, warm_each = runner.passes(1, args.seconds)
    result = {"ready": ready, "first_pass_s": first_pass_s, "passes": warm,
              "warm_s": time.monotonic() - start, "experiment_times": warm_each,
              "environment": environment()}
    if args.traced_seconds > 0:
        runner.tracer = tracing.Tracer()
        runner.tracer.install()
        traced, _ = runner.passes(1 + len(warm), args.traced_seconds)
        runner.tracer.uninstall()
        result["traced_passes"] = traced
        result["layers"] = tracing.summarise(runner.tracer, traced,
                                             DOMINANT_LAYERS[args.workload])
    result.update({
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "observed": runner.observed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    (args.run_dir / args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
