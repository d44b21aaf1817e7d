"""Ceiling on the package's settable values.

A settable value is a defaulted parameter of a public function or method,
or a constructor field of a public dataclass (a field without
``init=False``), in ``src/floquetdd``.  Every one is a knob a caller can
turn and a test has to cover, so the count may only fall: a change that
adds one raises ``CEILING`` and says why in CHANGES.md.

    PYTHONPATH=src python tests/test_settable_values.py

prints the count and the settable values of each definition.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "floquetdd"
CEILING = 51


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _is_init_field(stmt) -> bool:
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
        return False
    call = stmt.value
    return not (
        isinstance(call, ast.Call)
        and any(k.arg == "init" and getattr(k.value, "value", True) is False for k in call.keywords)
    )


def _settable(body, prefix: str):
    """(qualified name, count) of every public definition in ``body`` that has settable values."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        name = f"{prefix}{node.name}"
        if isinstance(node, functions):
            args = node.args
            count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            if count:
                yield name, count
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                yield name, sum(_is_init_field(stmt) for stmt in node.body)
            yield from _settable(node.body, f"{name}.")


def settable_values() -> dict:
    """module.definition -> number of settable values, over the whole package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, count in _settable(ast.parse(path.read_text()).body, f"{path.stem}."):
            out[name] = count
    return out


def test_counts_defaults_and_dataclass_fields():
    source = '''
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Public:
    a: int
    b: float = 1.0
    c: list = field(init=False)
    def method(self, x, y=2, *, z=3): ...

@dataclass
class _Private:
    a: int

def public(x, y=1): ...
def _private(x, y=1): ...
'''
    assert dict(_settable(ast.parse(source).body, "")) == {"Public": 2, "Public.method": 2, "public": 1}


def test_settable_values_stay_under_the_ceiling():
    total = sum(settable_values().values())
    assert total <= CEILING, (
        f"{total} settable values in src/floquetdd, ceiling {CEILING}: remove the new ones, "
        "or raise CEILING and say why in CHANGES.md"
    )


if __name__ == "__main__":
    counts = settable_values()
    for name, count in counts.items():
        print(f"{count:3d}  {name}")
    print(f"{sum(counts.values()):3d}  total (ceiling {CEILING})")
