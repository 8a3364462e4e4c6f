"""src/ holds only what a run uses.

Every function, class and method defined under src/sdma_fss/ must be named
somewhere other than its own definition: elsewhere in src/ (re-exports in
`__init__.py` do not count), in perfbench/, in scripts/ or as the
pyproject.toml entry point. Code that only tests read belongs in tests/.
A name counts where it is a Python identifier token, not a word in a string
or comment. Dunder methods are exempt: Python calls them itself.
"""

import ast
import tokenize
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sdma_fss"


def identifiers(path: Path) -> Counter:
    with tokenize.open(path) as f:
        return Counter(t.string for t in tokenize.generate_tokens(f.readline)
                       if t.type == tokenize.NAME)


def test_every_src_definition_has_a_reader_outside_tests():
    defined = Counter()
    named = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update(node.name for node in ast.walk(tree) if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        if path.name != "__init__.py":
            named.update(identifiers(path))
    named.subtract(defined)  # each definition names itself once
    for folder in ("perfbench", "scripts"):
        for path in sorted((ROOT / folder).glob("*.py")):
            named.update(identifiers(path))
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    named.update(target.rpartition(":")[2] for target in scripts.values())

    unread = sorted(name for name in defined
                    if named[name] <= 0 and not (name.startswith("__") and name.endswith("__")))
    assert not unread, f"defined under src/ but read only by tests: {unread}"
