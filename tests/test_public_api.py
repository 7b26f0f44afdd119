"""The documented API exists: every ``de.<name>`` in the demos and the README
resolves on the package, so removing a name they use fails here rather than
only when a demo is run."""

import pathlib
import re

import pytest

import disc_ergodics as de

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTED = sorted(ROOT.glob("demos/*.py")) + [ROOT / "README.md"]


@pytest.mark.parametrize("path", DOCUMENTED, ids=lambda p: p.name)
def test_documented_names_resolve(path):
    names = set(re.findall(r"\bde\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert names, f"{path.name} uses no de.<name>"
    missing = sorted(name for name in names if not hasattr(de, name))
    assert not missing, f"{path.name} uses names missing from disc_ergodics: {missing}"
