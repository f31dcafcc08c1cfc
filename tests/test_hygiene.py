"""Source hygiene: every name a module imports is used in that module,
solvers treat instances as black boxes, the package builds no state, and
no private helper is left for its tests alone.

An AST scan stands in for a linter's unused-import check.  `__init__.py`
is exempt (it re-exports), as are `__future__` imports.  A second scan
checks that only the instance layer and the law engine read an
integer-domain instance's `period_labels`, so no solver reads f's period off
the instance.  A third checks that no module builds, transforms or measures
a dense state: the dense circuit the exact laws are tested against lives in
`tests/dense_reference.py`.  A fourth checks that no module constructs the
two state types `amplitudes` keeps for the benchmark tracer.  A fifth
checks that every private top-level function is referenced somewhere in the
package outside its own body; a helper only tests call belongs in the tests.
A sixth checks that the one-register sampler draws with no n-point law, a
seventh that the coset sampler draws with no table over the group, an
eighth that no solver names a law array, and a ninth that no function
takes a `route`: the query circuit and the shift ladder prepare one state,
so no law or solver chooses between them.  A tenth checks that the CLI
imports no thread machinery.  The law scans also keep the |G|-point laws,
which are test references now, from coming back into the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hsplab

MODULES = sorted(p for p in Path(hsplab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import statement in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations, e.g. -> "GroupSpec", name things the AST keeps as strings
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            notes = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            for sub in ast.walk(note) if note is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    parsed = ast.parse(sub.value, mode="eval")
                    names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _names_period_labels(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "period_labels":
            return True
        if isinstance(node, ast.keyword) and node.arg == "period_labels":
            return True
        if isinstance(node, ast.Name) and node.id == "period_labels":
            return True
        if isinstance(node, ast.arg) and node.arg == "period_labels":
            return True
    return False


def test_only_instances_and_laws_read_period_labels():
    naming = {
        path.name
        for path in Path(hsplab.__file__).parent.glob("*.py")
        if _names_period_labels(ast.parse(path.read_text(), filename=str(path)))
    }
    assert naming == {"oracles.py", "estimation.py"}


DENSE_OPERATIONS = frozenset({
    "basis_state", "from_amplitudes", "measure_register", "apply_on_register",
    "apply_fourier", "apply_oracle", "apply_shift",
})
DENSE_ALLOWED = frozenset()


def _dense_callers(path: Path) -> set[tuple[str, str]]:
    """(module, top-level definition) for every call of a dense-state
    operation in the module; calls outside any definition count as '<module>'."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in DENSE_OPERATIONS:
                    found.add((path.name, owner))
    return found


def test_dense_states_stay_reference_only():
    callers = set()
    for path in MODULES:
        callers |= _dense_callers(path)
    assert callers <= DENSE_ALLOWED, f"dense-state calls outside the reference: {callers - DENSE_ALLOWED}"


# The two state types `amplitudes` keeps only for the benchmark tracer's hook.
TRACER_TYPES = frozenset({"QuantumState", "RegisterLayout"})


def test_no_module_constructs_the_tracer_types():
    """No module calls `QuantumState(...)` or `RegisterLayout...(...)`, so
    the types kept for the tracer stay unused in the package."""
    calling = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                while isinstance(func, ast.Attribute):
                    func = func.value
                if isinstance(func, ast.Name) and func.id in TRACER_TYPES:
                    calling.add((path.name, func.id))
    assert not calling, f"the package constructs state types: {calling}"


# Private helpers that only tests call; a helper with no caller in the
# package belongs in the tests.
TEST_REFERENCES = frozenset()


def _references(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_private_helpers_have_callers_in_the_package():
    tops = [
        (path.name, top)
        for path in Path(hsplab.__file__).parent.glob("*.py")
        for top in ast.parse(path.read_text(), filename=str(path)).body
    ]
    references = [(top, _references(top)) for _, top in tops]
    unreferenced = {
        (module, top.name)
        for module, top in tops
        if isinstance(top, ast.FunctionDef) and top.name.startswith("_")
        and not any(top.name in names for other, names in references if other is not top)
    }
    assert unreferenced == TEST_REFERENCES


def _named_on_the_way(start: str, forbidden: frozenset) -> dict[str, list[str]]:
    """The forbidden names each estimation function reached from `start`
    names, following calls between top-level estimation functions."""
    path = Path(hsplab.__file__).parent / "estimation.py"
    tops = {top.name: top for top in ast.parse(path.read_text()).body if isinstance(top, ast.FunctionDef)}
    reached, pending = set(), [start]
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += sorted(_references(tops[name]) & tops.keys())
    return {name: sorted(_references(tops[name]) & forbidden) for name in sorted(reached)}


# The n-point register law and the sampling over an array of it.
N_POINT_LAW = frozenset({"control_distribution", "_periodic_law", "choice"})


def test_sampler_draws_without_the_n_point_law():
    """`sample_control`, and every estimation function it reaches, names
    neither the n-point law nor `.choice`: that law stays with `dump` and
    the tests, and a draw costs O(1), or O(L) for merged labels."""
    named = _named_on_the_way("sample_control", N_POINT_LAW)
    assert not any(named.values()), f"the sampler reaches the n-point law: {named}"


# The |G|-point coset law, the table it is read from, and sampling over it.
COSET_TABLE_LAW = frozenset({
    "hsp_control_distribution", "level_set_law", "_stabiliser_law", "_table_stabiliser",
    "label_table", "choice",
})


def test_coset_sampler_draws_without_a_table_law():
    """`hsp_sample_batch`, and every estimation function it reaches, names
    neither the coset law, nor f's table over G, nor `.choice`: a draw reads
    the dual lattice of the instance's subgroup and, for a merged box, that
    box's labels alone."""
    named = _named_on_the_way("hsp_sample_batch", COSET_TABLE_LAW)
    assert not any(named.values()), f"the coset sampler reaches a table law: {named}"


# The |G|-point coset law, the laws of an array, and sampling over one.
ARRAY_LAWS = frozenset({
    "hsp_control_distribution", "level_set_law", "_stabiliser_law", "control_distribution", "choice",
})


def test_solvers_draw_without_an_array_law():
    """`algorithms.py` names no law array and no `.choice`: a discrete log
    reads its two chained estimations off one coset-sampler draw and the
    law at that draw (`_coset_law_at`), which reaches no table law either."""
    path = Path(hsplab.__file__).parent / "algorithms.py"
    named = sorted(_references(ast.parse(path.read_text())) & ARRAY_LAWS)
    assert not named, f"algorithms.py names array laws: {named}"
    reached = _named_on_the_way("_coset_law_at", COSET_TABLE_LAW)
    assert not any(reached.values()), f"the law at a draw reaches a table law: {reached}"


def test_only_the_dense_reference_takes_a_route():
    """The two circuits are built side by side only in the tests' dense
    reference; no function in the package has a parameter named `route`."""
    taking = set()
    for path in Path(hsplab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
                if "route" in names:
                    taking.add((path.name, getattr(node, "name", "<lambda>")))
    assert not taking, f"functions that take a route: {taking}"


def test_cli_imports_no_thread_machinery():
    """The CLI runs a run's trials in order in the calling thread: they are
    GIL-bound Python, so a pool of threads would only contend for the GIL."""
    path = Path(hsplab.__file__).parent / "cli.py"
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    threaded = {m for m in modules if m.split(".")[0] in ("concurrent", "threading")}
    assert not threaded, f"cli.py imports thread machinery: {threaded}"
