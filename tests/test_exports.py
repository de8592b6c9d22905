"""Every exported name resolves, so a deletion cannot leave a stale entry."""

import ast
import importlib
from pathlib import Path

import pytest

import qdeficit

# The submodules that declare ``__all__`` (cli declares none).
MODULES = ("linalg", "concurrence", "entropy", "states", "structure", "audit")
SOURCES = sorted(Path(qdeficit.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"qdeficit.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _package_imports():
    tree = ast.parse(Path(qdeficit.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_imports_resolve_to_public_names():
    imports = _package_imports()
    assert imports
    for module_name, attr in imports:
        module = importlib.import_module(f"qdeficit.{module_name}")
        assert attr in module.__all__, f"{module_name}.{attr}"
        assert getattr(qdeficit, attr) is getattr(module, attr)


def _relative_imports(path):
    """(module, name) per relative import in ``path``, anywhere in it; module is None for ``from . import``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]


def _package_modules_imported_by(name):
    """The qdeficit modules that ``qdeficit/<name>.py`` imports relatively, anywhere in the file."""
    path = Path(qdeficit.__file__).with_name(f"{name}.py")
    return {module or alias for module, alias in _relative_imports(path)}


@pytest.mark.parametrize(
    ("name", "allowed"),
    [("linalg", set()), ("states", {"linalg"}), ("concurrence", {"linalg"}), ("entropy", {"linalg"})],
)
def test_constructor_layers_import_only_below(name, allowed):
    assert _package_modules_imported_by(name) <= allowed


@pytest.mark.parametrize("name", ["concurrence", "entropy", "states"])
def test_stack_kernels_never_read_the_one_state_type(name):
    """The concurrence and entropy kernels read arrays and the state constructors build them, so no
    one-state form can return unnoticed."""
    tree = ast.parse(Path(qdeficit.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "DensityMatrix" not in read | imported


def _density_matrix_sites(path):
    """(module, site) per ``DensityMatrix(...)`` call in ``path``: the site is the top-level function or
    ``Class.method`` that makes it, None for a module-level statement."""
    sites = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        prefix, items = (f"{node.name}.", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
        for item in items:
            name = getattr(item, "name", None)
            for call in ast.walk(item):
                func = getattr(call, "func", None)
                callee = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(call, ast.Call) and callee == "DensityMatrix":
                    sites.add((path.stem, prefix + name if name else None))
    return sites


def test_only_the_commands_and_the_json_reader_build_a_density_matrix():
    """A state is validated once, where it is used: ``classify``'s resolver, for a state file or a
    registry spec, is the one ``DensityMatrix`` site.  Readers, constructors and kernels build and read
    arrays, and the reference commands validate their states as one stack."""
    sites = set().union(*(_density_matrix_sites(path) for path in SOURCES))
    assert sites == {("cli", "_resolve_state")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_module_imports_a_private_name(path):
    private = [(module, name) for module, name in _relative_imports(path) if name.startswith("_")]
    assert private == []


def test_only_cli_imports_the_audit():
    importers = [path.stem for path in SOURCES if "audit" in _package_modules_imported_by(path.stem)]
    assert importers == ["cli"]


def _unused_imports(path):
    """Names that ``path`` imports and never reads, except ``__future__`` features and ``__all__`` entries."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return sorted(imported - read - exported)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "__init__"], ids=lambda path: path.stem)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


# numpy's eigen- and singular-value solvers, called only in linalg's three validated entries, and its QR
# factorization, which no module calls: the audit's 2x2 Haar unitaries come from Gram-Schmidt.
SOLVERS = {"eigh", "eig", "eigvals", "eigvalsh", "svd", "qr"}


def _solver_references():
    """(module, top-level definition, name) per reference to a ``SOLVERS`` name, imported or read."""
    found = []
    for path in SOURCES:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                found += [(path.stem, owner, name) for name in names if name in SOLVERS]
    return found


def _imported_roots(path):
    """The top-level package of every module that ``path`` imports absolutely."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def test_one_eigensolver_call_in_eigh_stack():
    """Every solve in the package goes through linalg's three validated entries: ``eigh_stack`` where
    eigenvectors are read, ``eigvalsh_stack`` where only the spectrum is, and ``svdvals_stack`` for the
    singular values of a complex symmetric tau, ``eigvalsh`` if it is real and ``svd`` if not."""
    assert _solver_references() == [
        ("linalg", "eigh_stack", "eigh"),
        ("linalg", "eigvalsh_stack", "eigvalsh"),
        ("linalg", "svdvals_stack", "svd"),
        ("linalg", "svdvals_stack", "eigvalsh"),
    ]
    assert [path.stem for path in SOURCES if "scipy" in _imported_roots(path)] == []


# Public names that no module reads, each kept because the named test pins a paper number with it:
# the Werner threshold p*(2) = 1/sqrt(3) and the q = 50/100 cross-check.
PINNED_BY_TESTS = {
    "conditional_tsallis": "test_entropy.py::TestConditionalTsallis::test_werner_q2_threshold_below_conditional_one",
    "tsallis_infinity_criterion":
        "test_entropy.py::TestInfinityCriterion::test_agrees_with_q100_sign_away_from_boundary",
}


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {target.id for target in node.targets if isinstance(target, ast.Name)}
    return set()


def _names_read_in_the_package():
    """Names each top-level statement of a ``qdeficit`` module reads, except the names it defines."""
    read = set()
    for path in SOURCES:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            name_nodes = [node for node in ast.walk(statement) if isinstance(node, ast.Name)]
            read |= {node.id for node in name_nodes if isinstance(node.ctx, ast.Load)} - _defined_names(statement)
    return read


def test_every_public_name_is_read_in_the_package_or_pinned_by_a_test():
    """A public name earns its place on a package path; a pinned name that gains one leaves the pins."""
    read = _names_read_in_the_package()
    public = {attr for name in MODULES for attr in importlib.import_module(f"qdeficit.{name}").__all__}
    assert sorted(public - read) == sorted(PINNED_BY_TESTS)


@pytest.mark.parametrize("name", sorted(PINNED_BY_TESTS))
def test_pinning_test_exists_and_calls_the_name(name):
    file, cls, test = PINNED_BY_TESTS[name].split("::")
    tree = ast.parse(Path(__file__).with_name(file).read_text(encoding="utf-8"))
    body = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls)
    func = next(node for node in body.body if isinstance(node, ast.FunctionDef) and node.name == test)
    assert name in {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}


# Below this a float literal is a bound or a round-off level, never a figure of the paper.
SMALL_LITERAL = 1e-3


def _small_literals_without_a_name():
    """(module, line, value) per float literal 0 < |x| < ``SMALL_LITERAL`` that is neither inside
    ``linalg.Tolerances`` nor the whole right-hand side of a module-level ``NAME = literal``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = set()
        for statement in tree.body:
            if isinstance(statement, ast.ClassDef) and (path.stem, statement.name) == ("linalg", "Tolerances"):
                named |= {id(node) for node in ast.walk(statement)}
            elif (
                isinstance(statement, ast.Assign)
                and [type(target) for target in statement.targets] == [ast.Name]
                and isinstance(statement.value, ast.Constant)
            ):
                named.add(id(statement.value))
        found += [
            (path.stem, node.lineno, node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) in (float, complex)
            and 0 < abs(node.value) < SMALL_LITERAL
            and id(node) not in named
        ]
    return found


def test_small_float_literals_are_named_once():
    """Tolerances are defined in one place: ``Tolerances``, or a named module constant that says why it is not one."""
    assert _small_literals_without_a_name() == []


# The casts to complex that stay: the Pauli constants, the realness rule itself, the complex branches of
# ``fano_stack`` and ``pauli_sum``, the audit's Gaussians, parsed JSON and the closed forms on pure-state
# amplitudes.  A real state stays float64 everywhere else, so no cast may come back to feed the realness scan.
COMPLEX_CASTS = sorted([
    ("audit", "_draw"),
    ("concurrence", "pure_concurrence"),
    ("linalg", "I2"),
    ("linalg", "SIGMA_X"),
    ("linalg", "SIGMA_Y"),
    ("linalg", "SIGMA_Z"),
    ("linalg", "_hermitian_stack"),
    ("linalg", "fano_stack"),
    ("linalg", "matrix_from_json"),
    ("linalg", "pauli_sum"),
    ("states", "_pair_terms"),
])


def _is_complex(node):
    """``complex`` or a numpy complex type such as ``np.complex128``."""
    return (isinstance(node, ast.Name) and node.id == "complex") or (
        isinstance(node, ast.Attribute) and node.attr.startswith("complex")
    )


def _complex_casts():
    """(module, top-level definition) per ``dtype=complex`` keyword and ``.astype(complex...)`` or
    ``.view(complex...)`` call, one entry each; a module-level assignment is named by its target."""
    found = []
    for path in SOURCES:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = min(_defined_names(statement), default=None)
            for node in ast.walk(statement):
                if isinstance(node, ast.keyword) and node.arg == "dtype" and _is_complex(node.value):
                    found.append((path.stem, owner))
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("astype", "view")
                    and node.args
                    and _is_complex(node.args[0])
                ):
                    found.append((path.stem, owner))
    return sorted(found)


def test_complex_casts_only_at_the_listed_sites():
    assert _complex_casts() == COMPLEX_CASTS


def _dtype_comparisons():
    """(module, line) per comparison that reads a ``.dtype``."""
    return [
        (path.stem, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        and any(isinstance(x, ast.Attribute) and x.attr == "dtype" for x in (node.left, *node.comparators))
    ]


def test_only_linalg_tests_a_dtype():
    """Real or complex is decided once, by linalg's realness rule: no other module branches on a dtype."""
    assert [(module, line) for module, line in _dtype_comparisons() if module != "linalg"] == []
