"""Every public top-level function and class of the package is reached: by a
command, by another package function, by the benchmark, or, for the few kept
for library users, by the README."""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "stressgraph")
BENCH = os.path.join(ROOT, "bench")

# Names no package or benchmark code reaches, each kept for library users.
KEEP = {
    "HTTPChatClient": "the only completion client that sends real requests",
    "load_checkpoint": "reads a train-gcn checkpoint back into GCN parameters and head",
    "params_from_blocks": "turns a train-conv checkpoint's blocks back into conv-head parameters",
    "paired_ttest": "compares two models' per-seed scores, with bonferroni",
}


def sources(directory) -> dict:
    return {
        name: os.path.join(directory, name)
        for name in sorted(os.listdir(directory)) if name.endswith(".py")
    }


def parse(path) -> ast.Module:
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def public_definitions() -> dict:
    """Public top-level def and class names of the package, each with its module."""
    found = {}
    for name, path in sources(PACKAGE).items():
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found[node.name] = name[:-3]
    return found


def referenced_names() -> set:
    """Every name the package and bench/*.py read, the attribute names they
    look up and the names they import; a definition alone is no reference."""
    names = set()
    for path in [*sources(PACKAGE).values(), *sources(BENCH).values()]:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_is_reached_or_kept():
    referenced = referenced_names()
    unreached = sorted(
        f"{module}.{name}" for name, module in public_definitions().items()
        if name not in referenced and name not in KEEP
    )
    assert unreached == [], "delete these, or keep them in KEEP with a reason"


def test_every_kept_name_is_unreached_and_documented():
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as fh:
        readme = fh.read()
    defined, referenced = public_definitions(), referenced_names()
    for name, reason in KEEP.items():
        assert reason
        assert name in defined, f"{name} is no longer defined"
        assert name not in referenced, f"{name} is reached by code; drop it from KEEP"
        assert name in readme, f"the README does not name {name}"
