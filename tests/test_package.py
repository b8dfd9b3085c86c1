"""Package metadata."""
import importlib.util
import re
from pathlib import Path

import conepersist


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE).group(1)
    assert conepersist.__version__ == declared


def test_traced_names_resolve():
    # bench/tracing.py wraps these names on `--trace 1` and looks each one
    # up with vars(holder)[attr]; a missing name raises KeyError there
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for _, owner, attr in tracing.LAYERS:
        mod_name, _, cls_name = owner.partition(".")
        holder = getattr(conepersist, mod_name)
        if cls_name:
            holder = getattr(holder, cls_name)
        assert callable(vars(holder)[attr]), (owner, attr)
