"""Every demo script runs to completion, and README's library example runs as written."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    for stated in ("= 1.0", "= -1.0", "all 7 Venn cells", "True, 1312 identities checked"):
        assert stated in block
    namespace, values = {}, []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):  # a line whose comment states its value
            values.append(eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    conditional, triple, cells, passed = values
    assert (conditional, triple, len(cells), passed) == (1.0, -1.0, 7, True)
    report = namespace["verify_hu"](namespace["inst"], q_max=3, tol=1e-9)
    assert (report.passed, len(report.residuals)) == (True, 1312)
