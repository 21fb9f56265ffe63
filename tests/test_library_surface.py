"""Every public top-level function and class of the package is reached: by a
command, by another package function, by the benchmark, or, for the few kept
for library users, by the README.

A reference counts only where it resolves to the definition: a bare name in
the defining module or in a module that imports it, and not bound by a
parameter or an assignment of an enclosing function; or an attribute looked
up on the defining module."""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "stressgraph")
BENCH = os.path.join(ROOT, "bench")

# Names no package or benchmark code reaches, each kept for library users.
KEEP = {
    "prompting.HTTPChatClient": "the only completion client that sends real requests",
    "gcn.load_checkpoint": "reads a train-gcn checkpoint back into shape-checked blocks",
    "convnet.params_from_blocks": "turns a train-conv checkpoint's blocks back into conv-head parameters",
    "evaluation.paired_ttest": "compares two models' per-seed scores, with bonferroni",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = (*FUNCTIONS, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def sources(directory) -> dict:
    return {
        name: os.path.join(directory, name)
        for name in sorted(os.listdir(directory)) if name.endswith(".py")
    }


def parse(path) -> ast.Module:
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def public_definitions(package=PACKAGE) -> set:
    """"module.name" of each public top-level def and class of the package."""
    return {
        f"{name[:-3]}.{node.name}"
        for name, path in sources(package).items()
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def own_nodes(scope):
    """The nodes of a scope that run in it: nested scopes and class bodies are left out."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def local_names(scope) -> set:
    """The names a function, lambda or comprehension binds: its parameters, assignment
    and loop targets, nested defs and caught exceptions; imports resolve file-wide."""
    names, declared = set(), set()
    if isinstance(scope, FUNCTIONS):
        args = scope.args
        names |= {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg] if a is not None}
    for node in own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared |= set(node.names)
    return names - declared


def imports(tree) -> tuple:
    """(local name -> package module, local name -> "module.name") of tree's imports."""
    modules, definitions = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        # "from . import m" inside the package, "from stressgraph import m" in bench/.
        source = node.module if node.level == 0 else f"stressgraph.{node.module or ''}".rstrip(".")
        if source == "stressgraph":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif source.startswith("stressgraph."):
            module = source.split(".", 1)[1]
            definitions.update((a.asname or a.name, f"{module}.{a.name}") for a in node.names)
    return modules, definitions


def reached_definitions(package=PACKAGE, bench=BENCH) -> set:
    """"module.name" of each package definition that package or bench/*.py code reaches."""
    defined = public_definitions(package)
    reached = set()
    files = [(path, name[:-3]) for name, path in sources(package).items()]
    files += [(path, None) for path in sources(bench).values()]
    for path, own_module in files:
        tree = parse(path)
        modules, definitions = imports(tree)

        def resolve(name: str, bound: list):
            if any(name in names for names in bound):
                return None
            if own_module and f"{own_module}.{name}" in defined:
                return f"{own_module}.{name}"
            return definitions.get(name)

        def visit(node, bound: list) -> None:
            if isinstance(node, SCOPES):
                bound = [*bound, local_names(node)]
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add(resolve(node.id, bound))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules and not any(node.value.id in names for names in bound):
                    reached.add(f"{modules[node.value.id]}.{node.attr}")
            for child in ast.iter_child_nodes(node):
                visit(child, bound)

        visit(tree, [])
    return reached & defined


def test_every_public_name_is_reached_or_kept():
    unreached = sorted(public_definitions() - reached_definitions() - set(KEEP))
    assert unreached == [], "delete these, or keep them in KEEP with a reason"


def test_every_kept_name_is_unreached_and_documented():
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as fh:
        readme = fh.read()
    defined, reached = public_definitions(), reached_definitions()
    for name, reason in KEEP.items():
        assert reason
        assert name in defined, f"{name} is no longer defined"
        assert name not in reached, f"{name} is reached by code; drop it from KEEP"
        assert f"`{name}`" in readme, f"the README does not name {name}"


def test_a_local_or_an_attribute_of_another_object_is_no_reference(tmp_path):
    # A parameter or a local of the same name, or a same-named attribute of
    # another object, hides nothing; a call through the module or an import does.
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "lib.py").write_text(
        "def used_here(): pass\n"
        "def shadowed(): pass\n"
        "def imported(): pass\n"
        "def via_module(): pass\n"
        "def unused(): pass\n"
        "def caller(shadowed):\n"
        "    unused = 1\n"
        "    return used_here(), shadowed, unused, [imported for imported in ()]\n",
        encoding="utf-8",
    )
    (package / "user.py").write_text(
        "from . import lib\n"
        "from .lib import imported\n"
        "def run(obj):\n"
        "    return lib.via_module(), imported(), obj.unused, obj.shadowed()\n",
        encoding="utf-8",
    )
    unreached = public_definitions(package) - reached_definitions(package, bench)
    assert sorted(unreached) == ["lib.caller", "lib.shadowed", "lib.unused", "user.run"]
