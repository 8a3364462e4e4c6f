"""src/ holds only what a run uses.

Every function, class and method defined under src/sdma_fss/ must be named
somewhere other than its own definition: elsewhere in src/ (re-exports in
`__init__.py` do not count), in perfbench/, in scripts/ or as the
pyproject.toml entry point. Code that only tests read belongs in tests/.
A name counts where it is a Python identifier token, not a word in a string
or comment. Dunder methods are exempt: Python calls them itself.

Every field of a dataclass or NamedTuple under src/sdma_fss/ must be read
the same way: as an attribute (`x.field`, not only assigned) or by
`getattr(x, "field")` somewhere in src/, perfbench/ or scripts/. The check
goes by name alone, so a field name that is read on another record (for
example `cfg.los`) hides a dead field of the same name.
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


# records that src/ writes out whole, so a field is read without its name
WHOLE_RECORDS = {
    "RunMetrics": "asdict in _run_cell",
    "SweepSpec": "asdict in run_sweep's manifest",
    "ScenarioConfig": "fields in __post_init__, asdict in to_dict",
    "CellSummary": "fields and asdict in report",
}


def record_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, field) of every dataclass and NamedTuple in tree."""
    def is_record(node: ast.ClassDef) -> bool:
        marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        marks += node.bases
        return any(getattr(m, "id", getattr(m, "attr", None)) in ("dataclass", "NamedTuple")
                   for m in marks)

    return [(node.name, stmt.target.id)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and is_record(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def attribute_reads(tree: ast.Module) -> set[str]:
    """Names read as `x.name` or `getattr(x, "name")` in tree."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
    return reads


def test_every_record_field_is_read_outside_tests():
    declared, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        declared += record_fields(ast.parse(path.read_text()))
    for folder in (SRC, ROOT / "perfbench", ROOT / "scripts"):
        for path in sorted(folder.glob("*.py")):
            reads |= attribute_reads(ast.parse(path.read_text()))
    assert set(WHOLE_RECORDS) <= {cls for cls, _ in declared}
    unread = [f"{cls}.{name}" for cls, name in declared
              if cls not in WHOLE_RECORDS and name not in reads]
    assert not unread, f"record fields that no code outside tests reads: {unread}"


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
