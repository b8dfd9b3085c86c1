"""Package metadata."""
import importlib.util
import inspect
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
    # up with vars(holder)[attr]; a missing name raises KeyError there.
    # Its result counters read the call's arguments by parameter name.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    read_args = {
        "affine_solution_space": {"p", "unknowns"},
        "load_document": {"path"},
        "save_document": {"path"},
    }
    assert set(tracing._ON_RESULT) == set(read_args)
    for _, owner, attr in tracing.LAYERS:
        mod_name, _, cls_name = owner.partition(".")
        holder = importlib.import_module(f"conepersist.{mod_name}")
        if cls_name:
            holder = getattr(holder, cls_name)
        fn = vars(holder)[attr]
        assert callable(fn), (owner, attr)
        if attr in read_args:
            assert read_args[attr] <= set(inspect.signature(fn).parameters), (owner, attr)


def test_exported_names_resolve():
    # every name the package or a submodule lists in __all__ must exist,
    # so that `from conepersist import *` and each listed import work
    src = Path(conepersist.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        name = "conepersist" if path.stem == "__init__" else f"conepersist.{path.stem}"
        mod = importlib.import_module(name)
        for attr in getattr(mod, "__all__", ()):
            assert hasattr(mod, attr), (name, attr)
