"""Importing kzring loads numpy alone; scipy loads at the first call that needs it.

Each check runs in a fresh interpreter, because this test process has
imported scipy already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import kzring

KZRING_ROOT = str(Path(kzring.__file__).resolve().parent.parent)

IMPORTS = "import kzring, kzring.cli, kzring.exact, kzring.scs, kzring.sampler\n"


def scipy_modules_after(code, cwd):
    """Run code after importing kzring in a fresh interpreter; list the scipy modules loaded."""
    script = IMPORTS + textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
    """)
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = KZRING_ROOT + (os.pathsep + rest if rest else "")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_kzring_loads_no_scipy(tmp_path):
    assert scipy_modules_after("", tmp_path) == []


def test_para_command_loads_no_scipy(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"t_points": 11}))
    code = """
        import contextlib, io
        with contextlib.redirect_stdout(io.StringIO()):
            assert kzring.cli.main(["para", "--config", "c.json", "--out", "out"]) == 0
    """
    assert scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "out" / "para_para.csv").exists()


def test_config_error_loads_no_scipy(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"n_ref": 14.5}))
    code = """
        import contextlib, io
        with contextlib.redirect_stderr(io.StringIO()):
            assert kzring.cli.main(["dia", "--config", "c.json", "--out", "out"]) == 2
    """
    assert scipy_modules_after(code, tmp_path) == []


@pytest.mark.parametrize("n_ref", [8, 14])
def test_sparse_magnetization_lookup_loads_scipy_sparse_linalg(tmp_path, n_ref):
    code = f"kzring.sampler.equilibrium_magnetization(1.0, n_ref={n_ref})"
    assert "scipy.sparse.linalg" in scipy_modules_after(code, tmp_path)


def test_traced_attributes_still_resolve():
    import kzring.runner
    import kzring.sampler

    assert kzring.sampler.ring_hamiltonian is kzring.exact.ring_hamiltonian
    assert kzring.runner.scs_cross_check is kzring.scs.scs_cross_check
