"""The documented API exists: every ``de.<name>`` in the demos and the README
resolves on the package, and so does every function the benchmark's tracer
wraps, so removing a name they use fails here rather than only when a demo or
the benchmark is run.  Each demo also runs to the end with nothing on
stderr.  Conversely, every name the package exports has a caller outside the
tests."""

import ast
import importlib.util
import inspect
import os
import pathlib
import re
import subprocess
import sys
import tokenize

import pytest

import disc_ergodics as de

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/*.py"))
DOCUMENTED = DEMOS + [ROOT / "README.md"]


@pytest.mark.parametrize("path", DOCUMENTED, ids=lambda p: p.name)
def test_documented_names_resolve(path):
    names = set(re.findall(r"\bde\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert names, f"{path.name} uses no de.<name>"
    missing = sorted(name for name in names if not hasattr(de, name))
    assert not missing, f"{path.name} uses names missing from disc_ergodics: {missing}"


def _words(path):
    # the words a file uses: of a module, its tokens other than comments and
    # the names its def and class statements define; of Markdown, its text
    if path.suffix != ".py":
        return set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    return {word for before, token in zip([None] + tokens, tokens)
            if token.type != tokenize.COMMENT
            and not (before is not None and before.string in ("def", "class"))
            for word in re.findall(r"\w+", token.string)}


def test_exported_names_have_a_caller():
    # A name imported into disc_ergodics/__init__.py is used in the code of
    # another module of the package, a demo or the benchmark, or in the
    # README; tests alone do not keep it public, and comments do not count.
    package = ROOT / "src" / "disc_ergodics"
    init = package / "__init__.py"
    names = [alias.name for node in ast.parse(init.read_text(encoding="utf-8")).body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    users = [p for p in sorted(package.rglob("*.py")) if p != init] + DOCUMENTED
    users += sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("perfbench/*.md"))
    words = set().union(*map(_words, users))
    unused = [name for name in names if name not in words]
    assert not unused, f"exported names with no caller outside the tests: {unused}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demos_run_cleanly(path, tmp_path):
    # each demo runs on its own, from the source tree, with nothing on stderr
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout

def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # The benchmark's tracer wraps these functions by name; a name removed
    # from the package fails here rather than in a traced benchmark run.
    tracing = _tracing()
    assert tracing.TARGETS
    missing = [f"{module.__name__}.{name}" for module, name, *_ in tracing.TARGETS
               if not callable(getattr(module, name, None))]
    assert not missing, f"perfbench/tracing.py wraps names missing from the package: {missing}"


def test_traced_symbol_classes_define_their_own_call():
    # The tracer counts evaluations by replacing cls.__dict__["__call__"] of
    # each symbol class; a __call__ inherited from a shared base would not
    # be found there.
    tracing = _tracing()
    assert tracing.SYMBOL_CLASSES
    missing = [cls.__name__ for cls in tracing.SYMBOL_CLASSES if "__call__" not in vars(cls)]
    assert not missing, f"symbol classes without their own __call__: {missing}"


# The benchmark's recorders read these arguments by name from the bound call:
# the symbol ``s``, the step count ``n`` and the seed ``z`` or ``seeds``.
TRACED_PARAMETERS = {
    "cesaro_apply": ("s", "z", "n"),
    "cesaro_final_means": ("s", "seeds", "n"),
    "orbit_density": ("s", "z", "n"),
    "density_sweep": ("s", "seeds", "n"),
    "boundary_gap_witness": ("s", "n"),
}


@pytest.mark.parametrize("name", sorted(TRACED_PARAMETERS))
def test_traced_functions_keep_their_parameter_names(name):
    fn = getattr(de.ergodicity, name)
    assert any(target[:2] == (de.ergodicity, name) for target in _tracing().TARGETS), name
    missing = set(TRACED_PARAMETERS[name]) - set(inspect.signature(fn).parameters)
    assert not missing, f"{name} lost the parameters its recorder reads: {sorted(missing)}"
