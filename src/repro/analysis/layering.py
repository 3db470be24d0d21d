"""The declared layer DAG of ``repro`` packages.

Each top-level package lists the packages it may import at runtime.  The
graph is acyclic: the observability substrate (``repro.obs``) sits at
the very bottom and imports nothing, the sim kernel directly above it
may import only ``obs`` (a kernel that imports domain code can never be
reasoned about in isolation, and an accidental ``repro.sim`` →
``repro.core`` edge is how determinism bugs smuggle themselves into the
clock).  ``repro.core`` is the composition root at the top;
``repro.workloads`` sits above it because workloads script whole agoras.

``import`` statements inside ``if TYPE_CHECKING:`` blocks are exempt —
they cannot affect runtime behaviour and are the sanctioned way to
annotate against a higher layer.

A few *interface modules* are pinned beneath their home package:
``repro.query.model`` defines the plain query/subquery dataclasses that
sources consume, so ``repro.sources`` may import it even though the rest
of ``repro.query`` (executor, adaptive re-planning) sits above sources.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

#: The single source of truth for the layer DAG.  One line per package
#: (``package -> deps``); indented lines continue the previous entry.
#: The fenced ``layers`` block in DESIGN.md §3 must stay byte-identical
#: to this table — ``tests/analysis/test_layering.py`` enforces parity,
#: so the docs cannot drift from the checker again.
LAYER_TABLE = """\
obs             ->
sim             -> obs
analysis        ->
trust           ->
experiments     -> obs
data            -> sim
net             -> obs sim
qos             -> obs sim
uncertainty     -> data obs sim
resilience      -> net obs qos sim
sources         -> data net obs qos sim trust uncertainty
query           -> data obs qos resilience sim sources uncertainty
negotiation     -> qos sim
personalization -> data negotiation qos uncertainty
context         -> personalization qos
social          -> data personalization trust uncertainty
multimodal      -> data personalization query sim sources uncertainty
collaboration   -> data personalization query uncertainty
optimizer       -> negotiation qos query sim sources trust uncertainty
core            -> context data multimodal negotiation net obs optimizer
                   personalization qos query resilience sim
                   social sources trust uncertainty
workloads       -> core data multimodal obs personalization qos query
                   sim social sources uncertainty
"""


def parse_layer_table(table: str) -> Dict[str, FrozenSet[str]]:
    """Parse the declared table into package -> allowed-import sets.

    Validates the result: every dependency must itself be declared, and
    the graph must be acyclic — a bad edit fails at import time rather
    than silently weakening the checker.
    """
    deps: Dict[str, List[str]] = {}
    current: Optional[str] = None
    for raw in table.splitlines():
        if not raw.strip():
            continue
        if raw[0].isspace():
            if current is None:
                raise ValueError(f"continuation line with no entry: {raw!r}")
            deps[current].extend(raw.split())
            continue
        head, sep, tail = raw.partition("->")
        if not sep:
            raise ValueError(f"layer table line missing '->': {raw!r}")
        current = head.strip()
        if current in deps:
            raise ValueError(f"duplicate layer entry: {current}")
        deps[current] = tail.split()
    parsed = {pkg: frozenset(pkg_deps) for pkg, pkg_deps in deps.items()}
    for pkg, pkg_deps in parsed.items():
        unknown = pkg_deps - parsed.keys()
        if unknown:
            raise ValueError(
                f"{pkg} depends on undeclared packages: {sorted(unknown)}"
            )
    _check_acyclic(parsed)
    return parsed


def _check_acyclic(deps: Dict[str, FrozenSet[str]]) -> None:
    state: Dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(pkg: str, stack: Tuple[str, ...]) -> None:
        mark = state.get(pkg)
        if mark == 2:
            return
        if mark == 1:
            cycle = stack[stack.index(pkg):] + (pkg,)
            raise ValueError(f"layer DAG has a cycle: {' -> '.join(cycle)}")
        state[pkg] = 1
        for dep in sorted(deps[pkg]):
            visit(dep, stack + (pkg,))
        state[pkg] = 2

    for pkg in sorted(deps):
        visit(pkg, ())


#: package -> packages it may import at runtime (besides itself/stdlib).
LAYER_DEPS: Dict[str, FrozenSet[str]] = parse_layer_table(LAYER_TABLE)

#: Modules pinned beneath their home package: importer package -> modules
#: it may import from otherwise-forbidden packages.
INTERFACE_MODULES: Dict[str, FrozenSet[str]] = {
    "sources": frozenset({"repro.query.model"}),
}


def package_of(module: str) -> Optional[str]:
    """Top-level ``repro`` subpackage of a dotted module name, if any."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def check_import(
    importer_module: str, imported_module: str
) -> Tuple[bool, Optional[str]]:
    """Validate one runtime import edge against the layer DAG.

    Returns ``(allowed, importer_package)``.  Imports of non-``repro``
    modules, intra-package imports, and imports from undeclared packages
    (treated as unrestricted, e.g. the ``repro`` facade itself) are
    allowed.
    """
    importer_pkg = package_of(importer_module)
    imported_pkg = package_of(imported_module)
    if imported_pkg is None:
        return True, importer_pkg
    if importer_pkg is None or importer_pkg == imported_pkg:
        return True, importer_pkg
    if importer_pkg not in LAYER_DEPS:
        return True, importer_pkg
    if imported_pkg in LAYER_DEPS.get(importer_pkg, frozenset()):
        return True, importer_pkg
    allowed_modules = INTERFACE_MODULES.get(importer_pkg, frozenset())
    if imported_module in allowed_modules:
        return True, importer_pkg
    if any(imported_module.startswith(mod + ".") for mod in allowed_modules):
        return True, importer_pkg
    return False, importer_pkg
