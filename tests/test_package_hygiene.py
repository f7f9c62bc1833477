"""Static checks that keep the package's imports and exports honest."""

import ast
import types
from pathlib import Path

import opineq

PACKAGE = Path(opineq.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"
# The package, its tests and its demos.
SOURCES = sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *DEMOS.glob("*.py")])


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds by import, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names a module reads, plus the strings it lists in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused.extend(f"{path.parent.name}/{path.name}:{line} {name}"
                      for name, line in _imported_names(tree).items() if name not in used)
    assert not unused, unused


def test_all_is_sorted_and_lists_every_public_name():
    assert opineq.__all__ == sorted(opineq.__all__)
    public = {name for name, value in vars(opineq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(opineq.__all__) == public


def test_no_line_is_over_100_characters():
    long_lines = [f"{path.parent.name}/{path.name}:{number}"
                  for path in SOURCES
                  for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                  if len(line) > 100]
    assert not long_lines, long_lines


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, by relative or absolute name."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.update([node.module] if node.module else
                            (alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("opineq."):
            imported.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[1] for alias in node.names
                            if alias.name.startswith("opineq."))
    return imported


def test_no_module_imports_a_module_that_imports_it_back():
    graph = {path.stem: _package_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    cycles = []
    for module in graph:
        reached, frontier = set(), set(graph[module])
        while frontier:
            reached |= frontier
            frontier = {n for m in frontier for n in graph.get(m, ())} - reached
        if module in reached:
            cycles.append(module)
    assert not cycles, cycles


def test_stacked_imports_no_package_module_but_errors():
    # stacked is the base of the matrix algebra: spd, means_maps and samplers build on it.
    tree = ast.parse((PACKAGE / "stacked.py").read_text(encoding="utf-8"))
    assert _package_imports(tree) <= {"errors"}



def test_only_spd_and_stacked_read_private_attributes_of_an_spd_matrix():
    # SpdMatrix is a StackedSpd; the other modules use its public face, and
    # hand the matrix itself to stacked.
    private = {name for cls in opineq.SpdMatrix.__mro__ for name in vars(cls)
               if name.startswith("_") and not name.endswith("__")}
    assert {"_keep", "_frame_checked", "_derived"} <= private
    readers = [f"{path.name}:{node.lineno} {node.attr}"
               for path in sorted(PACKAGE.glob("*.py")) if path.stem not in ("spd", "stacked")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr in private]
    assert not readers, readers


# The map's owner in stacked: the map types and the functions that apply a map.
MAP_OWNER = {"MapPart", "StackedMap", "_apply_kind", "map_spd"}


def test_only_the_map_owner_reads_a_map_by_its_kind():
    # A kind's data layout is decided once: no other code compares a kind to a map
    # kind's name, and no other definition reads a part's data beside its kind.
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if path.stem == "stacked" and getattr(node, "name", None) in MAP_OWNER:
                continue
            inner = list(ast.walk(node))
            readers += [f"{path.name}:{n.lineno} compares a map kind" for n in inner
                        if isinstance(n, ast.Compare)
                        and any(isinstance(side, ast.Constant) and side.value in opineq.MAP_KINDS
                                for side in (n.left, *n.comparators))]
            if {"kind", "data"} <= {n.attr for n in inner if isinstance(n, ast.Attribute)}:
                readers.append(f"{path.name}:{node.lineno} reads a part's kind and data")
    assert not readers, readers


def _linalg_names(node) -> set[str]:
    """The numpy.linalg functions a node names: ``np.linalg.f``, or an import from numpy.linalg."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"):
        return {node.attr}
    if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
        return {alias.name for alias in node.names}
    return set()


# The numpy.linalg decompositions; the package makes each of them in stacked only.
STACKED_LINALG = {"qr", "eigh", "eigvalsh", "svd", "cholesky", "inv", "solve"}


def test_each_draw_rule_is_written_once():
    # A QR and its sign fix are stacked.haar's, and every other decomposition
    # is made by a stacked function too; a norm is the unit vector rule's
    # sqrt of stacked.dot; the probe floors belong to the module of the draw rules.
    misplaced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            linalg = _linalg_names(node)
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
            if (linalg & STACKED_LINALG and path.name != "stacked.py") or "norm" in linalg:
                misplaced.append(f"{path.name}:{node.lineno} {sorted(linalg)}")
            if names & {"_UNIT_FLOOR", "_PAIR_FLOOR"} and path.name != "samplers.py":
                misplaced.append(f"{path.name}:{node.lineno} {sorted(names - {None})}")
    assert not misplaced, misplaced


def _bases(node: ast.ClassDef) -> set[str]:
    """The names a class's bases end in: ``StackedView`` for ``stacked.StackedView`` too."""
    return {base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
            for base in node.bases}


def test_no_class_subclasses_stacked_view():
    # Probes and maps are a view's data, so no view overrides how it hands them out.
    subclasses = [f"{path.parent.name}/{path.name}:{node.lineno} {node.name}"
                  for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.ClassDef) and "StackedView" in _bases(node)]
    assert not subclasses, subclasses
