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


def _callers(path: Path, is_target) -> list[str]:
    """The enclosing top-level function of each call ``is_target`` accepts, in order."""
    callers = []
    for node in ast.parse(path.read_text()).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        callers += [owner for call in ast.walk(node) if isinstance(call, ast.Call) and is_target(call.func)]
    return callers


def test_cli_boundary_has_one_reader_one_writer_one_emitter():
    # Files are opened only by the line reader and the CSV writer, and JSON is
    # serialized only by the strict emitter: a new input or output reuses them.
    cli = PACKAGE / "cli.py"
    opens = _callers(cli, lambda f: (isinstance(f, ast.Name) and f.id == "open") or (
        isinstance(f, ast.Attribute) and f.attr in {"open", "read_text", "read_bytes", "write_text", "write_bytes"}))
    assert opens == ["_read_lines", "_write_csv"]
    dumps = _callers(cli, lambda f: isinstance(f, ast.Attribute) and f.attr in {"dump", "dumps"})
    assert dumps == ["_print_json"]


def test_simulate_steps_every_model_in_one_trajectory_call():
    # exact and every model share one step lattice: a second call would step
    # the grid again.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    run = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_run_simulation")
    calls = [node for node in ast.walk(run) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "trajectory"]
    assert len(calls) == 1


def test_propagation_scans_reprojects_and_assembles_in_one_row_pipeline():
    # Every callable generator is a row of one lattice: a new propagation
    # method adds rows to that pipeline rather than a second scan of its own.
    path = PACKAGE / "propagation.py"
    for name in ("_scan", "_reproject", "_pair_matrix"):
        callers = _callers(path, lambda f: isinstance(f, ast.Name) and f.id == name)
        assert [owner for owner in callers if owner != name] == ["_lattice_product"], name
