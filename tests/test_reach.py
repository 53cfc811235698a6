"""Every function, class and method in `src/toeplitz` is used by `src/`,
unless it is public or a paper-formula entry point, and every record field
is read there; test-only code belongs in `tests/oracles.py`."""

import ast
from collections import Counter
from pathlib import Path

import toeplitz

ENTRY_POINTS = {  # name -> why it stays although no other code in src/ uses it
    "__getattr__": "PEP 562 hook that resolves the public names",
    "spec_string": "renders a coding back to a --coding spec",
    "complexity_formula": "the paper's p(L) at one length",
    "growth_formula": "the paper's p(L+1) - p(L) at one length",
    "palindrome_formula": "the paper's palindrome count at one length",
    "repetitivity_formula": "the paper's repetitivity function at one length",
    "formula_valid_from": "first length the repetitivity formula covers",
    "repetitivity_oracle": "the repetitivity oracle at one length",
    "contracted_arcs": "the de Bruijn arcs read off a graph",
    "predicted_arcs": "the paper's de Bruijn arc description",
    "transfer_cocycle": "the exact transfer-matrix cocycle",
}

UNREAD_FIELDS = {  # Class.field -> why it stays although src/ never reads it
    "LyapunovEstimate.samples": "tests hold the n/4 and n/2 checkpoints to "
                                "the exact cocycle",
    "Row.growth": "the CSV writer reads the cells by position, up to the "
                  "width its command asks for",
}

TREES = {path.name: ast.parse(path.read_text())
         for path in Path(toeplitz.__file__).parent.glob("*.py")}


def names_read(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods not named __x__."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("__"))


def test_every_definition_is_used_by_the_package():
    used = sum(map(names_read, TREES.values()), Counter())
    found = [(module, node) for module, tree in sorted(TREES.items())
             for node in definitions(tree)]
    assert set(ENTRY_POINTS) <= {node.name for _, node in found}
    unused = [f"{module}:{node.lineno} {node.name}" for module, node in found
              if node.name not in ENTRY_POINTS
              and node.name not in toeplitz.__all__
              # a use inside its own body does not count
              and used[node.name] == names_read(node)[node.name]]
    assert unused == []


def record_fields(node: ast.ClassDef) -> list[str]:
    """The fields of a `NamedTuple` or `@dataclass` class, read from its
    annotations, or of a `checked_record(name, fields)` subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in node.decorator_list]
    if any(isinstance(n, ast.Name) and n.id in ("dataclass", "NamedTuple")
           for n in decorators + node.bases):
        return [f.target.id for f in node.body if isinstance(f, ast.AnnAssign)]
    return [name for base in node.bases if isinstance(base, ast.Call)
            and getattr(base.func, "id", None) == "checked_record"
            for name in base.args[1].value.split()]


def test_every_record_field_is_read_by_the_package():
    read = {n.attr for tree in TREES.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    fields = [f"{node.name}.{field}"
              for tree in TREES.values() for node in tree.body
              if isinstance(node, ast.ClassDef)
              for field in record_fields(node)]
    assert set(UNREAD_FIELDS) <= set(fields)
    # an allowlisted field that src/ starts reading leaves the list
    assert {f.split(".")[1] for f in UNREAD_FIELDS} & read == set()
    assert [f for f in fields if f not in UNREAD_FIELDS
            and f.split(".")[1] not in read] == []
