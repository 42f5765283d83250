"""What each kzring module exports and imports, and the names bench/ relies on."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import kzring
import kzring.cli
import kzring.runner
from kzring.runner import ScenarioResult
from kzring.tables import DataTable

MODULES = ["kzring"] + sorted(
    f"kzring.{info.name}" for info in pkgutil.iter_modules(kzring.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, (name, missing)


def test_the_closed_forms_export_one_entry_point():
    for name in ("kzring.para", "kzring.dia"):
        exported = importlib.import_module(name).__all__
        assert "concurrences" in exported
        assert not {"concurrence", "branch_overlap"} & set(exported)


def test_the_frozen_window_and_the_parity_weights_have_one_home():
    import kzring.concurrence
    import kzring.dia
    import kzring.exact

    assert not hasattr(kzring.dia, "validate_trace_span")
    assert not hasattr(kzring.concurrence, "PARITY_WEIGHTS")
    assert kzring.concurrence.DEVICE_PARITY is kzring.exact.DEVICE_PARITY


# Modules and classes that start threads or processes.
THREAD_NAMES = {
    "threading", "_thread", "concurrent", "multiprocessing", "Thread", "ThreadPoolExecutor",
}


def source_names(path: Path) -> set[str]:
    """Every module, imported name, attribute and bare name a source file uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def test_the_cut_and_the_worker_thread_have_one_home():
    from kzring import _workers

    for path in Path(kzring.__file__).parent.glob("*.py"):
        if path.stem == "_workers":
            continue
        assert not source_names(path) & (THREAD_NAMES | {"BLOCK_POINTS"}), path.name
    assert [name for name in _workers.__all__ if callable(getattr(_workers, name))] == [
        "ordered_map"
    ]
    assert not hasattr(_workers, "in_halves")


def test_the_ring_eigensolver_has_one_home():
    import kzring.exact

    package = Path(kzring.__file__).parent
    naming_eigsh = [path.name for path in package.glob("*.py") if "eigsh" in source_names(path)]
    assert naming_eigsh == ["exact.py"]
    assert not source_names(package / "sampler.py") & {"eigsh", "eigh"}
    assert not hasattr(kzring.exact, "ring_hamiltonian_dense")


def kzring_imports(module: str) -> set[str]:
    """The kzring modules (or package names) a source file imports, read statically."""
    path = Path(kzring.__file__).parent / f"{module}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kzring"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("kzring"))
    return found


def test_the_table_module_imports_only_the_worker_pool():
    assert kzring_imports("tables") == {"_workers"}


def test_the_worker_pool_imports_no_kzring_module():
    assert kzring_imports("_workers") == set()


def test_the_config_module_imports_only_errors_and_scaling():
    assert kzring_imports("config") == {"errors", "scaling"}


def test_exact_holds_the_ring_alone():
    import kzring.exact
    import kzring.para

    assert kzring_imports("exact") == {"errors", "scaling"}
    gone = {"CrossCheckReport", "scs_cross_check", "separable_state", "all_up_ring"}
    assert not gone & set(dir(kzring.exact))
    assert not hasattr(kzring.para, "_displacements")


def test_the_csv_text_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("kzring._csvtext")


def test_the_table_api_is_columns_only():
    assert not {"rows", "isclose", "from_columns"} & set(dir(DataTable))
    assert [name for name in MODULES if hasattr(importlib.import_module(name), "parse_csv")] == []


# What bench/ reads from kzring.runner, or wraps there and in kzring.cli to
# time each layer.  The tracer skips a missing name without a word, so a
# layer that moves away would silently read as 0 calls.
RUNNER_HOOKS = (
    "ScenarioConfig", "run_scenario", "write_outputs", "emit_csv", "oracle_report",
    "domain_partition", "equilibrium_magnetization", "sample_initial_directions",
    "closed_form_check", "scs_cross_check", "overlap_exact",
)


def test_the_benchmark_hooks_still_resolve():
    missing = [name for name in RUNNER_HOOKS if not hasattr(kzring.runner, name)]
    assert missing == []
    assert kzring.cli.run_scenario is kzring.runner.run_scenario
    assert kzring.cli.write_outputs is kzring.runner.write_outputs


def test_write_outputs_writes_each_table_through_the_runner_emit_csv(monkeypatch, tmp_path):
    written = []
    emit = kzring.runner.emit_csv
    monkeypatch.setattr(
        kzring.runner, "emit_csv", lambda table, path: written.append(path) or emit(table, path)
    )
    tables = {
        "a": DataTable(("x",), (np.arange(3.0),)),
        "b": DataTable(("x", "name"), ([0.5], ("b",))),
    }
    kzring.runner.write_outputs(ScenarioResult(tables), "t", "para", str(tmp_path))
    assert sorted(written) == [str(tmp_path / "t_a.csv"), str(tmp_path / "t_b.csv")]
