"""Module boundaries of the package: no module imports another's private name
or keeps a module-level name it never uses, every error class of ``errors.py``
is raised somewhere, and scipy loads only under the modules that evaluate Gamma."""
import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "scatjet"


def test_no_module_imports_a_private_name_of_another():
    """A ``_``-prefixed name stays inside its module: each caller uses a public one."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").partition(".")[0] != "scatjet":
                continue
            source = "." * node.level + (node.module or "")
            found += [
                f"{path.name}:{node.lineno} imports {alias.name} from {source}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert SRC.is_dir() and not found, found


def _bound_at_module_level(node) -> list[str]:
    """The names a module-level statement binds: its imports, or its ``_``-prefixed
    functions, classes and assigned names (dunders aside)."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            return []
        return [(a.asname or a.name).partition(".")[0] for a in node.names]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        return []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_no_module_keeps_an_unused_import_or_private_name():
    """Every module-level import and ``_``-prefixed name is read somewhere in its
    module, so a deletion leaves no import or helper behind."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            f"{path.name}:{node.lineno} {name}"
            for node in tree.body
            for name in _bound_at_module_level(node)
            if name not in read
        ]
    assert SRC.is_dir() and not found, found


def _raised_names(tree) -> set[str]:
    """Names raised in ``tree``, and the error classes of its ``raise_first`` checks.

    A check is a ``(failed, error_class, message)`` tuple or a
    ``Residual(name, values, bound, error, message)`` record, handed to
    :func:`scatjet.errors.raise_first` directly or returned for a caller to hand it.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
        elif isinstance(node, ast.Tuple) and len(node.elts) == 3:
            if isinstance(node.elts[1], ast.Name):
                names.add(node.elts[1].id)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Residual":
            error = [k.value for k in node.keywords if k.arg == "error"] + node.args[3:4]
            names |= {e.id for e in error if isinstance(e, ast.Name)}
    return names


def test_every_error_class_is_raised():
    """Each ``ScatjetError`` subclass in ``errors.py`` is raised somewhere in the package,
    or names the error class of a ``raise_first`` check: no class outlives its last use."""
    errors = ast.parse((SRC / "errors.py").read_text())
    family = {"ScatjetError"}
    for node in errors.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in family for base in node.bases
        ):
            family.add(node.name)
    raised = set()
    for path in SRC.glob("*.py"):
        raised |= _raised_names(ast.parse(path.read_text(), filename=str(path)))
    unraised = sorted(family - {"ScatjetError"} - raised)
    assert len(family) > 10 and not unraised, unraised


def test_only_the_gamma_modules_import_scipy():
    """``forward_scattering`` and ``model_quadrature`` evaluate Gamma; no other module imports scipy."""
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [(node.module or "").partition(".")[0]]
            else:
                continue
            if "scipy" in roots:
                importers.add(path.name)
    assert importers == {"forward_scattering.py", "model_quadrature.py"}, importers


def test_a_fresh_interpreter_loads_only_what_runs(tmp_path):
    """In one fresh interpreter: ``import scatjet`` loads no submodule; the parser
    and ``sets`` leave ``scipy.special`` unloaded; and, imported afresh,
    ``model_quadrature`` loads no scatjet module but ``errors``."""
    patch = tmp_path / "patch.json"
    patch.write_text(
        json.dumps({"n": 1, "axes": [4], "alpha": "1", "v_jet": ["0.2"], "h_jet": [[["1"]]]})
    )
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(SRC.parent)!r})

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("scatjet."))

        import scatjet
        assert loaded() == [], loaded()

        from scatjet import cli
        cli.build_parser()
        assert cli.main(["sets", "--patch", {str(patch)!r}, "--out", {str(tmp_path / "sets.json")!r}]) == 0
        assert "scipy.special" not in sys.modules, loaded()

        for name in ["scatjet", *loaded()]:
            del sys.modules[name]
        import scatjet.model_quadrature
        assert loaded() == ["scatjet.errors", "scatjet.model_quadrature"], loaded()
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
