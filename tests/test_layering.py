import ast
from pathlib import Path

import cgmagnus

PACKAGE = Path(cgmagnus.__file__).parent


def _intra_package_imports() -> dict[str, set[str]]:
    # Every relative import anywhere in a module, TYPE_CHECKING blocks and
    # function bodies included: a cycle hidden from the interpreter is still one.
    graph = {}
    for path in PACKAGE.glob("*.py"):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def test_intra_package_imports_form_no_cycle():
    graph = _intra_package_imports()
    state = {}  # module -> "open" while on the DFS path, "done" after

    def visit(module, path):
        state[module] = "open"
        for dep in sorted(graph.get(module, ())):
            if state.get(dep) == "open":
                raise AssertionError("import cycle: " + " -> ".join(path + [module, dep]))
            if dep not in state:
                visit(dep, path + [module])
        state[module] = "done"

    for module in sorted(graph):
        if module not in state:
            visit(module, [])



def test_cli_imports_no_private_library_name():
    # The CLI states no library rule of its own: what it uses is public.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
