"""Tooling checks: the tracer's patch targets exist, every module's __all__ names its public
definitions, every public name has a caller, every defaulted parameter a caller that passes it
and every config default a run that moves it, every test oracle is used, the CLI's and the
kernel quadrature's imports stay light, and the scripts run."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import yaml

from schrodlab import cli
from schrodlab.estimates import SWEEP_TABLES
from schrodlab.reports import COMMON, REQUIRED, read

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_bench(name: str):
    """A module of bench/, loaded by path: bench/ is not a package."""
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve():
    # bench/run.py --trace 1 wraps each (module, attribute) by name; a
    # rename in src/ would otherwise only surface when the tracer runs
    targets = load_bench("tracing").TARGETS
    assert targets
    for module, attr, _layer, _amount in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr} is not callable"


#: Public names, and public members (``Class.name``) of public classes, that nothing in src/,
#: scripts/ or bench/ calls, each kept for a reason.
UNCALLED = {
    "apply_BS_adjoint": "bench/tracing.py TARGETS wraps it by name; only tests call it, as "
                        "the adjoint reference, so it moves to tests/oracles.py at the next "
                        "change to bench/ (ROADMAP item 21)",
    "boundary_mass_fraction": "the per-run manifest of ROADMAP item 4 is to call it",
    "bourgain_norm": "bench/tracing.py TARGETS wraps it by name, so it moves to "
                     "tests/oracles.py at the next change to bench/ (ROADMAP item 4)",
}

#: Defaulted parameters, as ``name(parameter)``, of called public functions and methods that
#: no caller in src/, scripts/ or bench/ passes, each kept for a reason.
UNPASSED = {}

#: Scripts that no test and no run_all.sh line runs, each kept for a reason.
UNRUN_SCRIPTS = {}

#: The modules of the package, which an import can bind to an alias such as ``cli``.
MODULES = {path.stem for path in (ROOT / "src" / "schrodlab").glob("*.py")}


def references(path: pathlib.Path) -> tuple[set[str], set[str]]:
    """The names a file loads or imports, and the attributes it reads, outside their own
    definitions. An attribute read counts as a name too only on a package module alias, as
    ``cli.build_grid`` after ``from schrodlab import cli``; a class member counts by attribute."""
    tree = ast.parse(path.read_text())
    spans = {}  # name -> line span of its definition in this file
    modules = set()  # what an import binds to a package module: "cli", "schrodlab.cli"
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name.startswith("schrodlab.")}
        elif isinstance(node, ast.ImportFrom) and (node.module == "schrodlab"
                                                   or node.level and node.module is None):
            modules |= {a.asname or a.name for a in node.names if a.name in MODULES}
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name, found = node.id, [names]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
            found = [attrs, names] if ast.unparse(node.value) in modules else [attrs]
        elif isinstance(node, ast.alias):
            name, found = node.name.split(".")[-1], [names]
        else:
            continue
        lo, hi = spans.get(name, (0, -1))
        if not lo <= getattr(node, "lineno", 0) <= hi:
            for into in found:
                into.add(name)
    return names, attrs


def is_command(node: ast.AST) -> bool:
    """Whether a definition is registered as a CLI command by ``@command(...)``."""
    return any(isinstance(d, ast.Call) and ast.unparse(d.func) == "command"
               for d in node.decorator_list)


def public_definitions() -> dict[str, ast.AST]:
    """Every top-level public function and class of the package, and the public methods and
    properties of those classes as ``Class.name``. The one exception: the CLI commands, which
    ``@command`` registers and click calls."""
    found = {}
    for path in (ROOT / "src" / "schrodlab").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or is_command(node)):
                continue
            found[node.name] = node
            if isinstance(node, ast.ClassDef):
                found.update({f"{node.name}.{fn.name}": fn for fn in node.body
                              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")})
    return found


def test_every_public_name_has_a_caller():
    # a public name that only its own tests call is dead weight: wire it into a
    # report or delete it, or say here why it stays; the tracer's TARGETS name what
    # it wraps, and a wrapped name that no program path calls is uncalled too
    called, read = set(), set()
    for folder in ("src", "scripts", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            names, attrs = references(path)
            called |= names
            read |= attrs
    uncalled = {q for q in public_definitions()
                if q.rpartition(".")[2] not in (read if "." in q else called)}
    assert sorted(uncalled - set(UNCALLED)) == []
    assert sorted(set(UNCALLED) - uncalled) == []  # the list is no longer than needed


#: Modules without ``__all__``, each for a reason.
NO_ALL = {
    "__init__": "the package module defines nothing",
    "cli": "its public names are the click commands and the helpers tests/ reads by attribute",
}


def test_every_all_names_the_public_definitions():
    # __all__ is each module's public surface: it names every public top-level function and
    # class, and only what the module itself defines or assigns at top level: not a deleted
    # or renamed definition, and not an import (a name re-exported from another module)
    missing, stale, without = {}, {}, set()
    for path in (ROOT / "src" / "schrodlab").glob("*.py"):
        module = importlib.import_module("schrodlab" if path.stem == "__init__"
                                         else f"schrodlab.{path.stem}")
        if not hasattr(module, "__all__"):
            without.add(path.stem)
            continue
        declared = module.__all__
        assert len(declared) == len(set(declared)), f"{path.stem}.__all__ repeats a name"
        body = ast.parse(path.read_text()).body
        public = {node.name for node in body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")}
        own = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        own |= {name.id for node in body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                for name in ast.walk(target) if isinstance(name, ast.Name)}
        if public - set(declared):
            missing[path.stem] = sorted(public - set(declared))
        if set(declared) - own:
            stale[path.stem] = sorted(set(declared) - own)
    assert missing == {}
    assert stale == {}
    assert without == set(NO_ALL)


def call_sites() -> dict[str, list[ast.Call]]:
    """Every call in src/, scripts/ and bench/, by the name called: ``f`` of ``f(...)`` and
    of ``x.f(...)``."""
    sites = {}
    for folder in ("src", "scripts", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    sites.setdefault(name, []).append(node)
    return sites


def literal(node: ast.expr):
    """The value of ``node`` if it is a literal, else a marker equal to nothing."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return object()


def passes(call: ast.Call, index: int | None, name: str, default: ast.expr) -> bool:
    """Whether ``call`` passes the parameter ``name``, at position ``index`` (None when it is
    keyword-only), something other than a literal equal to its ``default``; a ``*`` or ``**``
    argument may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    keywords = {k.arg: k.value for k in call.keywords}
    if None in keywords:
        return True
    value = keywords.get(name)
    if value is None and index is not None and index < len(call.args):
        value = call.args[index]
    return value is not None and literal(value) != literal(default)


def test_every_defaulted_parameter_is_passed():
    # a default that no program path overrides is a constant in disguise: make it one, or
    # say here why the parameter stays; a method's calls are matched by attribute name, and
    # a call that passes a literal equal to the default does not override it
    sites = call_sites()
    unpassed = set()
    for qualified, node in public_definitions().items():
        if not isinstance(node, ast.FunctionDef) or qualified in UNCALLED:
            continue
        args = node.args
        positional = (args.posonlyargs + args.args)[1 if "." in qualified else 0:]  # no self
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg, args.defaults[i - first])
                     for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        calls = sites.get(qualified.rpartition(".")[2], [])
        unpassed |= {f"{qualified}({name})" for index, name, default in defaulted
                     if not any(passes(call, index, name, default) for call in calls)}
    assert sorted(unpassed - set(UNPASSED)) == []
    assert sorted(set(UNPASSED) - unpassed) == []  # the list is no longer than needed


#: Defaulted config keys that every run of scripts/run_all.sh leaves at its default, as
#: ``command.key``, or as ``output_dir``, ``grid.key`` and ``potential.key``, which the commands
#: share, each kept for a reason.
AT_DEFAULT = {
    "bs-norm-sweep.tol": "op_norm's stopping tolerance, which ROADMAP item 2 replaces",
    "bs-norm-sweep.seed": "bench/selftest.py runs bs_sweep at its DISAGREEING_SEED",
    **dict.fromkeys(["potential.pair", "potential.alpha", "potential.center",
                     "potential.cutoff"], "ROADMAP item 18 reworks the potential block"),
    "verify-strichartz.estimate": "it picks the table, in which it has one value",
    **dict.fromkeys(["verify-strichartz.family", "verify-strichartz.min_xi_n"],
                    "the sweep's params echo the config as written, so dropping the key "
                    "changes gain_sweep.json and tests/golden/"),
    "identity-check.steps": "the time step of the experiment, which forward-evolve and "
                            "reconstruct move",
    "reconstruct.freq_radius": "the frequency ball of the experiment, not a method setting",
    "forward-evolve.initial.width": "the initial state, whose center and modulation "
                                    "forward.yaml moves",
}


def defaulted(table: dict, values: dict | None = None, path: str = ""):
    """(key path, default, value) of each defaulted leaf of a config table; ``values`` is a
    config read against the table, and without it each value is None and the ``potential``
    block has the keys of every kind."""
    for key, (kind, default) in table.items():
        here = f"{path}.{key}" if path else key
        value = None if values is None else values[key]
        if callable(kind) and not isinstance(kind, type):  # potential_table
            kind = kind(value or {})
        if isinstance(kind, dict):
            yield from defaulted(kind, value, here)
        elif default is not REQUIRED:
            yield here, default, value


def test_every_config_default_is_moved():
    # a config key that every committed run leaves at its default is a constant in disguise:
    # make it one, or say here why the key stays
    def name(command, path):
        return path if path.split(".")[0] in ("output_dir", "grid", "potential") else \
            f"{command}.{path}"

    keys = set()
    for command, table in cli.TABLES.items():
        if callable(table):  # verify-strichartz: every estimate's keys
            table = {k: v for t in SWEEP_TABLES.values() for k, v in t.items()}
        keys |= {name(command, path) for path, _, _ in defaulted({**COMMON, **table})}
    runs = re.findall(r"^run\s+(\S+)\s+(\S+)\s*$",
                      (ROOT / "scripts" / "run_all.sh").read_text(), re.M)
    moved = set()
    for command, config in runs:
        cfg = cli.load_config(ROOT / config)
        table = cli.TABLES[command]
        table = {**COMMON, **(table(cfg) if callable(table) else table)}
        moved |= {name(command, path) for path, default, value
                  in defaulted(table, read(cfg, table)) if value != default}
    assert runs and moved <= keys
    assert sorted(keys - moved - set(AT_DEFAULT)) == []
    assert sorted(set(AT_DEFAULT) - (keys - moved)) == []  # the list is no longer than needed


def test_every_oracle_is_used():
    # the census above scans src/, scripts/ and bench/ only; an oracle that no test
    # imports any more would rot unseen in tests/oracles.py
    oracles = ROOT / "tests" / "oracles.py"
    defined = {node.name for node in ast.parse(oracles.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    used = set()
    for path in (ROOT / "tests").glob("*.py"):
        if path != oracles:
            used |= set().union(*references(path))
    assert defined
    assert sorted(defined - used) == []


def test_every_script_is_run():
    # a script nothing runs rots unseen; a test runs one through its path,
    # ROOT / "scripts" / name, and run_all.sh through scripts/name
    named = set(re.findall(r"scripts/(\w+\.py)", (ROOT / "scripts" / "run_all.sh").read_text()))
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and isinstance(node.right, ast.Constant)):
                named.add(node.right.value)
    unrun = {path.name for path in (ROOT / "scripts").glob("*.py")} - named
    assert sorted(unrun - set(UNRUN_SCRIPTS)) == []
    assert sorted(set(UNRUN_SCRIPTS) - unrun) == []  # the list is no longer than needed


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH, for a fresh interpreter."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate loads scipy.linalg, optimize, sparse, spatial and fft, start-up time that
    # the numpy kernel quadrature does not need
    out = subprocess.run(
        [sys.executable, "-c", "import schrodlab.cli, sys; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, env=src_env(), check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy():
    # scipy.special alone was over half of the CLI's import time; the counterexample's J_0 is
    # a numpy series, and no scipy module is needed until a test loads one as an oracle
    out = subprocess.run(
        [sys.executable, "-c", "import schrodlab.cli, sys; "
         "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, env=src_env(), check=True)
    assert out.stdout.strip() == "[]"


def test_kernel_quadrature_leaves_out_numpy_ma():
    # np.unique imports numpy.ma on first use, about 1 MiB of modules that a K_sigma
    # quadrature does not need
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from schrodlab import kernels; "
         "kernels.eval_K_sigma_quadrature(0.3, [-2.0, 0.0, 1e-20, 3.0]); "
         "print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, env=src_env(), check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_starts_no_thread():
    # no pool lives at module level: evolve's worker thread starts and ends within each call
    out = subprocess.run(
        [sys.executable, "-c", "import threading, schrodlab.cli; print(threading.active_count())"],
        capture_output=True, text=True, env=src_env(), check=True)
    assert out.stdout.strip() == "1"


def test_bench_disagreeing_seed_exits_3_without_a_report(tmp_path):
    # bench/selftest.py runs bs_sweep at DISAGREEING_SEED and then reads its report; there
    # the two power-iteration starts disagree, so bs-norm-sweep exits 3 and writes no
    # report, and the self-test step must expect that (ROADMAP item 4)
    seed = load_bench("selftest").DISAGREEING_SEED
    cfg = yaml.safe_load((ROOT / "configs" / "bs_sweep.yaml").read_text())
    config = tmp_path / "bs_sweep.json"
    config.write_text(json.dumps({**cfg, "seed": seed}))
    out = subprocess.run(
        [sys.executable, "-m", "schrodlab.cli", "bs-norm-sweep", "--config", str(config),
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=src_env())
    assert out.returncode == 3, out.stderr
    assert "starts disagree" in out.stderr
    assert not (tmp_path / "out" / "bs_norm_sweep.json").exists()
