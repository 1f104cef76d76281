"""The package's module layout, read from the source with `ast`.

README's Layout section lists the package modules each module imports;
only `cli` and `__init__` import `harness`; `_`-prefixed names cross
modules only where listed below: the Monte Carlo kernel that `harness`
takes from `ncp`; and `harness` reads no common-neighbour row (`nuv_*`) but the pair keys.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sparsecolour"

# (importer, defining module) -> the private names it imports.
PRIVATE_IMPORTS = {
    ("harness", "ncp"): {
        "_compile",
        "_derived_seeds",
        "_nuv_moments",
        "_pack_words",
        "_round_arrays",
        "_slice_width",
        "_stats_arrays",
    },
}

MODULES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _package_imports(name: str):
    """(imported module, names taken from it) for each package import of a
    module, and whether every one of them sits at module top."""
    tree = MODULES[name]
    found, at_top = [], True
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        at_top &= node in tree.body
        if node.module:
            found.append((node.module, {alias.name for alias in node.names}))
        else:
            found += [(alias.name, set()) for alias in node.names if alias.name in MODULES]
    return found, at_top


def _graph() -> dict[str, set[str]]:
    return {
        name: {module for module, _ in _package_imports(name)[0]}
        for name in MODULES
        if name != "__init__"
    }


def _readme_graph() -> dict[str, set[str]]:
    """The `- `a`, `b`: `c`, `d`` lines of README's Layout section."""
    readme = (ROOT / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    graph = {}
    for line in layout.splitlines():
        if match := re.fullmatch(r"- ((?:`\w+`(?:, )?)+): (none|(?:`\w+`(?:, )?)+)", line):
            imported = set(re.findall(r"`(\w+)`", match[2]))
            for name in re.findall(r"`(\w+)`", match[1]):
                graph[name] = imported
    return graph


def test_package_imports_sit_at_module_top():
    assert [name for name in MODULES if not _package_imports(name)[1]] == []


def test_import_graph_matches_readme():
    assert _graph() == _readme_graph()


def test_import_graph_is_acyclic():
    graph, done = _graph(), set()
    while len(done) < len(graph):
        ready = {name for name, deps in graph.items() if name not in done and deps <= done}
        assert ready, f"import cycle among {sorted(set(graph) - done)}"
        done |= ready


def test_only_cli_and_init_import_harness():
    importers = {
        name
        for name in MODULES
        if any(module == "harness" for module, _ in _package_imports(name)[0])
    }
    assert importers == {"cli", "__init__"}


def test_private_names_cross_modules_only_where_listed():
    crossing = {}
    for name in MODULES:
        for module, names in _package_imports(name)[0]:
            private = {n for n in names if n.startswith("_") and not n.startswith("__")}
            if private:
                crossing.setdefault((name, module), set()).update(private)
    assert crossing == PRIVATE_IMPORTS


def test_harness_reads_no_common_neighbour_rows_but_the_pair_keys():
    """`ncp` alone knows how the common neighbourhoods are laid out; Monte
    Carlo takes its sums from `ncp._nuv_moments` and keys its report by
    `nuv_pairs`."""
    read = {
        node.attr
        for node in ast.walk(MODULES["harness"])
        if isinstance(node, ast.Attribute) and node.attr.startswith("nuv_")
    }
    assert read == {"nuv_pairs"}
