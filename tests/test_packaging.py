import ast
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "torusgas")


def third_party_imports() -> set[str]:
    """Top-level names of the non-stdlib modules the package imports."""
    names = set()
    for fname in os.listdir(PACKAGE):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "torusgas"}


def test_declared_dependencies_match_imports():
    # a dependency declared but never imported (or imported but undeclared)
    # fails here
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0] for spec in declared}
    assert third_party_imports() == names


def test_readme_example_config_resolves():
    # the README's example configuration names only keys the schema has
    from torusgas import config

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
    assert blocks
    for block in blocks:
        config.resolve(config.parse_text(block))


def unused_imports(path: str) -> list[str]:
    """Names bound by a module's top-level imports that the module never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    unused = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py") and fname != "__init__.py":
            names = unused_imports(os.path.join(PACKAGE, fname))
            if names:
                unused[fname] = names
    assert unused == {}


def import_time_nodes(tree: ast.Module):
    """Every node a module evaluates when it is imported, function bodies left out."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list + node.args.defaults
                         + [d for d in node.args.kw_defaults if d is not None])
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))


def test_numpy_random_is_not_loaded_on_import():
    # numpy.random adds about 6 MB to every command; the package reaches it
    # only inside the functions that draw from numpy's generators, and reads
    # no generator's state
    found = []
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=fname)
        for node in import_time_nodes(tree):
            if isinstance(node, ast.Import):
                loads = any(a.name.startswith("numpy.random") for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                loads = (node.module or "").startswith("numpy.random") or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names))
            else:  # np.random evaluated at import
                loads = isinstance(node, ast.Attribute) and node.attr == "random"
            if loads:
                found.append(f"{fname}:{node.lineno} loads numpy.random on import")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "bit_generator"
                    or isinstance(node, ast.Name) and node.id == "bit_generator"):
                found.append(f"{fname}:{node.lineno} names bit_generator")
    assert found == []


def test_no_module_imports_logging():
    # logging adds about 0.6 MB to every command that loads it; the package
    # has nothing to log, at import time or inside any function
    found = []
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "logging" or n.startswith("logging.") for n in names):
                found.append(f"{fname}:{node.lineno} imports logging")
    assert found == []


# Each command at toy size in a fresh interpreter, and the package modules it
# must not load: a command imports only the code it runs.
COMMAND_RUNS = {
    "simulate": ("configs/simulate_1d.cfg",
                 {"run.T": 0.5, "ensemble.members": 4, "run.snapshot_every": 1},
                 {"relative", "sweep", "euler", "verify"}),
    "weak-strong": ("configs/weak_strong.cfg",
                    {"grid.sizes": [16], "ws.members": 2, "ws.n_steps": 16, "ws.samples": 4},
                    {"sweep", "euler", "ledger", "verify"}),
    "limit-sweep": ("configs/limit_sweep.cfg",
                    {"grid.sizes": [16, 16], "sweep.eps": [1.0, 0.5, 0.25],
                     "sweep.members": 8, "sweep.samples": 2, "run.T": 0.125},
                    {"ledger", "verify"}),
}

RUN_AND_LIST_MODULES = """
import json, sys
from torusgas import cli, config, driver
command, path, overrides, out, entry = sys.argv[1:]
cfg = config.load(path, json.loads(overrides))
if entry == "cli":
    with open(out + ".cfg", "w") as fh:
        fh.write(config.dumps(cfg))
    assert cli.main([command, "--config", out + ".cfg", "--threads", "1", "--out", out]) == 0
else:
    getattr(driver, "run_" + command.replace("-", "_"))(cfg, out, threads=1)
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("command,entry", [("simulate", "driver"), ("weak-strong", "driver"),
                                           ("limit-sweep", "driver"), ("simulate", "cli")])
def test_command_loads_only_its_modules(tmp_path, command, entry):
    path, overrides, unused = COMMAND_RUNS[command]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", RUN_AND_LIST_MODULES, command,
                           os.path.join(ROOT, path), json.dumps(overrides),
                           str(tmp_path / "out"), entry],
                          env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert "torusgas.driver" in loaded
    # threads 1 builds no pool, no warning fires, and the Wiener rows are
    # computed without numpy's generators
    never = {"concurrent.futures", "logging", "numpy.random"}
    assert loaded & ({f"torusgas.{name}" for name in unused} | never) == set()
