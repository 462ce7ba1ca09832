"""The README cites only names that exist: every backticked `module.name` whose
module is a ratinterp module must resolve in that module."""

import importlib
import pkgutil
import re
from pathlib import Path

import ratinterp

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(ratinterp.__path__)} - {"__main__"}


def cited_names(text: str) -> list[tuple[str, str]]:
    """(module, name) of each backticked span that opens with module.name."""
    return sorted({(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)", text) if mod in MODULES})


def test_readme_names_resolve():
    cited = cited_names(README.read_text())
    assert len(cited) >= 10
    missing = [f"{mod}.{name}" for mod, name in cited
               if not hasattr(importlib.import_module(f"ratinterp.{mod}"), name)]
    assert not missing, f"README.md cites names that src/ratinterp does not define: {missing}"
