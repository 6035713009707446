"""The public surface of the package, and its zero runtime dependencies."""

import importlib
import pathlib
import subprocess
import sys

import hjgen

SUBMODULES = ("cli", "config", "errors", "expr", "fields", "hj", "numerics", "pq", "verify")


def test_public_names_are_pinned():
    assert hjgen.__all__ == [
        "HjgenError",
        "ParseError",
        "EvalError",
        "DomainError",
        "ConvergenceError",
        "ConfigError",
        "EmptyReportError",
        "parse",
        "evaluate",
        "differentiate",
        "to_string",
        "SolverConfig",
        "integrate_adaptive",
        "Status",
        "SolutionField",
        "ActionField",
        "read_field_csv",
        "write_field_csv",
        "PQProblem",
        "HJProblem",
        "ResidualReport",
        "finite_diff_partials",
        "residual_report",
        "compare_oracle",
    ]


def test_every_exported_name_resolves():
    # hjgen.errors has no __all__: the package exports each of its classes
    modules = [importlib.import_module(f"hjgen.{name}") for name in SUBMODULES]
    assert [m.__name__ for m in modules if not hasattr(m, "__all__")] == ["hjgen.errors"]
    for module in [hjgen] + [m for m in modules if hasattr(m, "__all__")]:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_imports_only_the_standard_library():
    # a fresh interpreter, so no module another test imported hides a dependency
    root = str(pathlib.Path(hjgen.__file__).resolve().parent.parent)
    imports = "; ".join(["import hjgen"] + [f"import hjgen.{name}" for name in SUBMODULES])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {root!r})\n"
        "before = set(sys.modules)\n"
        f"{imports}\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "hjgen.cli" in added
    # start-up cost: dataclasses pulls in inspect, ast, dis and tokenize
    assert "dataclasses" not in added and "inspect" not in added
    foreign = [
        name for name in added
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "hjgen"
    ]
    assert foreign == []


def test_no_quadrature_weights_are_computed_at_import():
    # the tanh-sinh and Clenshaw-Curtis weights are cached on first use;
    # loading the package and a config computes none of them
    root = str(pathlib.Path(hjgen.__file__).resolve().parent.parent)
    config = pathlib.Path(root).parent / "configs" / "harmonic.cfg"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {root!r})\n"
        "from hjgen import config, numerics\n"
        f"config.load_config({str(config)!r})\n"
        "print(numerics._level_offsets.cache_info().currsize, "
        "numerics._clenshaw_curtis_offsets.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]
