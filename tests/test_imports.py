"""Every module of the package uses each name it imports, every
module-level private name is read somewhere in the package, every
function reads each parameter it takes, no module imports anything
outside the standard library and its runtime dependencies, none reads
the environment, only the CLI and `maximal._weak_pp` build a
`CheckerStacks`, inside `maximal.py` only `CheckerStacks.stacks`
runs the recurrence, and the spectral gap's Arnoldi reads no dense
superoperator while the recurrence steps with it, no module but
`ncnorms` compares a value with a norm-kind string and the CLI schema
lists the norm kinds from `NORM_KINDS`, only `algebra.hermitian` halves
a matrix plus its conjugate transpose, and only `defect_norm` and the
uniform norm take a 2-norm (parsed with `ast`, so no linter is needed).  The names that the benchmark's tracer binds
exist."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ncergodic.ncnorms import NORM_KINDS, SymmetricNorm

PACKAGE = Path(__file__).parents[1] / "src" / "ncergodic"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")
# The `dependencies` of pyproject.toml; scipy and jsonschema are test
# extras only.
RUNTIME_DEPENDENCIES = {"numpy"}


def _annotation_names(node):
    """Names in an annotation, including quoted forward references."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            used |= _annotation_names(node.returns)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finds_unused_import():
    source = ("import numpy as np\nimport os.path\n"
              "from .algebra import Operator, Projection\n"
              "def f(x: 'Operator') -> None:\n    return os.path.sep\n")
    assert unused_imports(source) == [(1, "np"), (3, "Projection")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unused_private_names(sources):
    """(module, line, name) of each module-level private name that no
    module of `sources` (a module -> source mapping) reads or imports."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    return sorted(entry for entry in defined if entry[2] not in used)


def test_finds_unused_private_name():
    sources = {"a.py": ("_USED = 1\n_UNUSED, _TOO = 2, 3\n"
                        "def _helper():\n    return _USED\n"
                        "class _Gone:\n    pass\n__all__ = []\n"),
               "b.py": "from .a import _helper\n_x: int = 3\n"}
    assert unused_private_names(sources) == [
        ("a.py", 2, "_TOO"), ("a.py", 2, "_UNUSED"), ("a.py", 5, "_Gone"),
        ("b.py", 2, "_x")]


def test_no_unused_private_names():
    sources = {module: (PACKAGE / module).read_text()
               for module in MODULES + ["__init__.py"]}
    assert unused_private_names(sources) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_locals(source):
    """(line, function, name) of each local name that a function assigns
    and never reads.  A nested function is read as part of the function
    that holds it, `_`-names are left out, and so are the targets of an
    augmented assignment, which reads the name it assigns."""
    functions = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, FUNCTIONS)]
    nested = {id(inner) for outer in functions for inner in ast.walk(outer)
              if inner is not outer and isinstance(inner, FUNCTIONS)}
    found = []
    for function in functions:
        if id(function) in nested:
            continue
        stored, read = {}, set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
            elif isinstance(node, ast.AugAssign) \
                    and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        found += [(line, function.name, name)
                  for name, line in stored.items()
                  if name not in read and not name.startswith("_")]
    return sorted(found)


def test_finds_unused_local():
    source = ("def f(blocks):\n"
              "    out, _ = [], 0\n"
              "    y = 1\n"
              "    for i, d in enumerate(blocks):\n"
              "        out.append(i)\n"
              "    for row in out:\n"
              "        row += 1\n"
              "    def g():\n"
              "        z = 2\n"
              "        return out\n"
              "    return g\n"
              "class A:\n"
              "    def m(self):\n"
              "        w = [k for k in self]\n")
    assert unused_locals(source) == [(3, "f", "y"), (4, "f", "d"),
                                     (9, "f", "z"), (14, "m", "w")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_locals(module):
    assert unused_locals((PACKAGE / module).read_text()) == []


def unused_parameters(source):
    """(line, function, name) of each parameter that a function never
    reads; a read in a nested function or lambda counts.  `self`, `cls`
    and `_`-names are left out, and so are the parameters of lambdas."""
    found = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, FUNCTIONS):
            continue
        args = function.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            arg for arg in (args.vararg, args.kwarg) if arg is not None]
        read = {node.id for statement in function.body
                for node in ast.walk(statement)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found += [(arg.lineno, function.name, arg.arg) for arg in params
                  if arg.arg not in read and arg.arg not in ("self", "cls")
                  and not arg.arg.startswith("_")]
    return sorted(found)


def test_finds_unused_parameter():
    source = ("def f(a, b, *args, c, _d, e=None, **kw):\n"
              "    def g(h, i):\n"
              "        return b, i\n"
              "    return g, kw, [e for _ in ()]\n"
              "class A:\n"
              "    def m(self, x, cls=None):\n"
              "        return lambda y: x\n"
              "    @classmethod\n"
              "    def n(cls, z=1):\n"
              "        z = 2\n")
    assert unused_parameters(source) == [(1, "f", "a"), (1, "f", "args"),
                                         (1, "f", "c"), (2, "g", "h"),
                                         (9, "n", "z")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_parameters(module):
    assert unused_parameters((PACKAGE / module).read_text()) == []


def node_scopes(source, match):
    """The scope of each node that `match` accepts: the dotted names of
    the classes and functions that hold it, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS + (ast.ClassDef,)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if match(child):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def call_scopes(source, name, args=None):
    """The scope of each call of `name(`, bare or as an attribute, with
    `args` positional arguments where `args` is set."""
    return node_scopes(source, lambda node: isinstance(node, ast.Call)
                       and name in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))
                       and args in (None, len(node.args)))


def test_finds_checker_constructions():
    source = ("from . import maximal\n"
              "from .maximal import CheckerStacks\n"
              "C = CheckerStacks(1, 2, 3)\n"
              "def f(x):\n"
              "    return maximal.CheckerStacks(x, x, f(CheckerStacks))\n"
              "class A:\n"
              "    def m(self):\n"
              "        def g():\n"
              "            return [CheckerStacks(self, 0, 1)]\n"
              "        return g\n")
    assert call_scopes(source, "CheckerStacks") == ["", "f", "A.m.g"]


def test_finds_stepped_ranges():
    source = ("def f(n):\n"
              "    return range(0, n, 4), range(n), range(1, n)\n"
              "class A:\n"
              "    def m(self, n):\n"
              "        return [range(1, n, 2)]\n")
    assert call_scopes(source, "range", 3) == ["f", "A.m"]


# Where the package may build a CheckerStacks besides the CLI, which
# builds one per element and weight and hands it to the builders:
# `_weak_pp` checks the powers of a part on stacks of their own.
CHECKER_SCOPES = {"maximal.py": {"_weak_pp"}}


@pytest.mark.parametrize("module", MODULES)
def test_checker_stacks_built_only_by_cli_and_weak_pp(module):
    scopes = set(call_scopes((PACKAGE / module).read_text(),
                             "CheckerStacks"))
    if module != "cli.py":
        assert scopes <= CHECKER_SCOPES.get(module, set())


def test_finds_recurrence_calls():
    source = ("from .dynamics import ergodic_averages\n"
              "class CheckerStacks:\n"
              "    @property\n"
              "    def stacks(self):\n"
              "        return list(ergodic_averages(self, 0, 1))\n"
              "def _search(checker):\n"
              "    return [v for _, v in ergodic_averages(checker, 1, 2)]\n"
              "def _reads(stacks=ergodic_averages):\n"
              "    return stacks\n")
    assert call_scopes(source, "ergodic_averages") == [
        "CheckerStacks.stacks", "_search"]


def test_recurrence_pass_only_in_checker_stacks():
    # the witness search reads its checker's stacks; no builder runs a
    # recurrence pass of its own
    source = (PACKAGE / "maximal.py").read_text()
    assert call_scopes(source, "ergodic_averages") == ["CheckerStacks.stacks"]


def test_compressed_sup_only_in_checker_stacks():
    # the strategies measure through the checker, so each (projection,
    # mode) of its stacks is measured once, by one path
    source = (PACKAGE / "maximal.py").read_text()
    assert call_scopes(source, "compressed_sup") == ["CheckerStacks.sup"]


def test_one_compression_measure():
    # a sup and a peeling step are the one measure of the package: the
    # top singular value of a compression, each through one SVD helper
    pinned = {"compress": {"algebra.compressed_sup", "maximal.peel"},
              "_svd_top": {"algebra.compressed_sup"},
              "_svd_top_vector": {"maximal.peel"}}
    for name, expected in pinned.items():
        scopes = {f"{module[:-3]}.{scope}" for module in MODULES
                  for scope in call_scopes((PACKAGE / module).read_text(),
                                           name)}
        assert scopes == expected, name


def test_one_slicing_rule():
    # the size of a sliced pass's temporaries is one decision: the only
    # stepped range of the package is that of `util.row_slices`, and its
    # callers are the seven passes that slice a superoperator or a stack
    def scopes(name, args=None):
        return {f"{module[:-3]}.{scope}" for module in MODULES
                for scope in call_scopes((PACKAGE / module).read_text(),
                                         name, args)}

    assert scopes("range", 3) == {"util.row_slices"}
    assert scopes("row_slices") == {
        "dynamics._kraus_superop", "dynamics._hermitian_superop",
        "dynamics._choi_min_eigenvalue", "dynamics.convex_combine",
        "dynamics.Channel._numerical_range_excludes",
        "maximal.CheckerStacks.floors", "algebra.sup_screen"}


def function_node(source, name):
    return next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def names_read(node):
    """Every name and attribute that appears inside `node`."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def matmul_left_operands(node):
    return {ast.unparse(n.left) for n in ast.walk(node)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)}


def test_finds_superop_reads_and_products():
    source = ("def f(channel, v):\n"
              "    superop = channel.superop\n"
              "    return superop @ v, v @ v\n"
              "def g(matvec, v):\n"
              "    return matvec(v)\n")
    assert "superop" in names_read(function_node(source, "f"))
    assert "superop" not in names_read(function_node(source, "g"))
    assert matmul_left_operands(function_node(source, "f")) == {
        "superop", "v"}


def test_gap_arnoldi_reads_no_superop_and_recurrence_does():
    # the Arnoldi takes its product as a function, so a Kraus map's gap
    # runs in Kraus form; the recurrence, whose every step the reference
    # CSVs record, keeps the dense product until they are re-recorded
    source = (PACKAGE / "dynamics.py").read_text()
    assert "superop" not in names_read(
        function_node(source, "_krylov_spectral_radius"))
    assert "superop" in matmul_left_operands(
        function_node(source, "ergodic_averages"))


def third_party_imports(source):
    """Top-level packages of the absolute imports that are not in the
    standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names))


def test_finds_third_party_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nimport scipy.linalg\n"
              "from scipy import sparse\nfrom .algebra import Operator\n")
    assert third_party_imports(source) == ["numpy", "scipy"]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_imports_only_runtime_dependencies(module):
    imported = third_party_imports((PACKAGE / module).read_text())
    assert set(imported) <= RUNTIME_DEPENDENCIES


def environment_reads(source):
    """Lines that read os.environ or os.getenv, or import either."""
    names = {"environ", "environb", "getenv", "getenvb"}
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and names & {alias.name for alias in node.names}:
            lines.add(node.lineno)
    return sorted(lines)


def test_finds_environment_reads():
    source = ("import os\nfrom os import getenv\n"
              "a = os.environ.get('X')\nb = os.getenv('Y')\n"
              "c = os.path.sep\n")
    assert environment_reads(source) == [2, 3, 4]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_environment_reads(module):
    # results depend only on the config and the command line
    assert environment_reads((PACKAGE / module).read_text()) == []


def norm_kind_comparisons(source):
    """Lines that compare a value with a norm-kind string: a comparison
    that has one as an operand or in a tuple, list or set operand, or a
    `case` on one."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            items = []
            for operand in [node.left, *node.comparators]:
                items += operand.elts if isinstance(
                    operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
        elif isinstance(node, ast.MatchValue):
            items = [node.value]
        else:
            continue
        if any(isinstance(item, ast.Constant) and item.value in NORM_KINDS
               for item in items):
            lines.add(node.lineno)
    return sorted(lines)


def test_finds_norm_kind_comparisons():
    source = ("def f(spec, kind):\n"
              "    if spec.kind == 'lp':\n"
              "        return 1\n"
              "    if kind not in ('uniform', 'measure'):\n"
              "        return 2\n"
              "    match kind:\n"
              "        case 'lorentz':\n"
              "            return 3\n"
              "    return {'lp': 4}.get(kind, kind != 'warp')\n")
    assert norm_kind_comparisons(source) == [2, 4, 7]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "ncnorms.py"])
def test_no_norm_kind_comparisons_outside_ncnorms(module):
    # which gauge a kind is, and what it reads, is decided by its type
    assert norm_kind_comparisons((PACKAGE / module).read_text()) == []


def literal_enum_values(source):
    """The constants that an `"enum": [...]` written out as a literal
    lists."""
    values = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "enum" \
                        and isinstance(value, (ast.List, ast.Tuple)):
                    values |= {item.value for item in value.elts
                               if isinstance(item, ast.Constant)}
    return values


def test_finds_literal_enum_values():
    source = ("A = {'enum': ['lp', 2, *B]}\n"
              "C = {'kind': {'enum': list(D)}, 'x': ['uniform']}\n")
    assert literal_enum_values(source) == {"lp", 2}


def test_norm_schema_enums_built_from_norm_kinds():
    # the norms' and the boyd targets' kind enums follow the registry,
    # and neither is written out in cli.py
    cli = importlib.import_module("ncergodic.cli")
    boyd = cli.CONFIG_SCHEMA["properties"]["boyd"]["properties"]["targets"]
    assert cli._NORM_SCHEMA["properties"]["kind"]["enum"] == list(NORM_KINDS)
    assert boyd["items"]["properties"]["kind"]["enum"] == [
        kind for kind, norm in NORM_KINDS.items()
        if issubclass(norm, SymmetricNorm)]
    assert not literal_enum_values((PACKAGE / "cli.py").read_text()) \
        & set(NORM_KINDS)


def package_scopes(match):
    """{module.scope} of each node of the package that `match` accepts."""
    return {f"{module[:-3]}.{scope}" for module in MODULES
            for scope in node_scopes((PACKAGE / module).read_text(), match)}


def conjugate_transpose_of(node):
    """The source of a where `node` is a conjugate transpose of it
    (a.conj().T, a.T.conj(), np.conj(a).T, a.conj().swapaxes(-1, -2),
    ...), else None."""
    conjugated = transposed = False
    while True:
        func = getattr(node, "func", None)
        if isinstance(node, ast.Attribute) and node.attr == "T":
            transposed, node = True, node.value
        elif isinstance(func, ast.Attribute) and func.attr == "swapaxes":
            transposed, node = True, func.value
        elif isinstance(func, ast.Attribute) \
                and func.attr in ("conj", "conjugate"):
            conjugated = True
            node = node.args[0] if node.args else func.value
        else:
            break
    return ast.unparse(node) if conjugated and transposed else None


def is_hermitian_sum(node):
    """a + a* or a* + a, a* a conjugate transpose of a."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and (
        conjugate_transpose_of(node.right) == ast.unparse(node.left)
        or conjugate_transpose_of(node.left) == ast.unparse(node.right))


def is_halved_hermitian_sum(node):
    """(a + a*) / 2, or a + a* times 0.5 on either side."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Div):
        pairs = [(node.left, node.right, 2)]
    elif isinstance(node.op, ast.Mult):
        pairs = [(node.left, node.right, 0.5), (node.right, node.left, 0.5)]
    else:
        return False
    return any(is_hermitian_sum(total) and isinstance(half, ast.Constant)
               and half.value == value for total, half, value in pairs)


def test_finds_halved_hermitian_sums():
    source = ("def f(b, s, x):\n"
              "    h = (b + b.conj().T) / 2.0\n"
              "    k = 0.5 * (s.conj().swapaxes(-1, -2) + s)\n"
              "    m = (b + np.conj(b).T) / 2\n"
              "    n = (b + b.T.conj()) * 0.5\n"
              "class A:\n"
              "    def g(self, b, c):\n"
              "        keep = [(b + c.conj().T) / 2, (b + b.T) / 2,\n"
              "                (b + b.conj()) / 2, (b + b.conj().T) / 3,\n"
              "                (b - b.conj().T) / 2, (x + x.adjoint()) / 2]\n"
              "        return (b + b.conj().T) / 2.0\n")
    assert node_scopes(source, is_halved_hermitian_sum) == [
        "f", "f", "f", "f", "A.g"]


def test_one_hermitian_part():
    # `algebra.hermitian` is the one place a matrix or a stack is added to
    # its conjugate transpose and halved; an Operator's `hermitian_part`
    # and `verify_ds` halve x + x.adjoint() by a complex 0.5, whose
    # arithmetic the recorded outputs hold
    assert package_scopes(is_halved_hermitian_sum) == {"algebra.hermitian"}


def is_two_norm_call(node):
    """A call of `norm` (np.linalg.norm) with ord 2, by position or by
    keyword: one SVD."""
    if not isinstance(node, ast.Call) or "norm" not in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        return False
    orders = node.args[1:2] + [k.value for k in node.keywords
                               if k.arg == "ord"]
    return any(isinstance(o, ast.Constant) and o.value == 2 for o in orders)


def test_finds_two_norm_calls():
    source = ("def f(a):\n"
              "    return np.linalg.norm(a, 2), norm(a, ord=2)\n"
              "class A:\n"
              "    def g(self, a):\n"
              "        return [np.linalg.norm(a), np.linalg.norm(a, 'fro'),\n"
              "                np.linalg.norm(a, axis=(-2, -1)), lp_norm(a, 2),\n"
              "                np.linalg.norm(a, 1), np.linalg.norm(a, 2)]\n")
    assert node_scopes(source, is_two_norm_call) == ["f", "f", "A.g"]


def test_two_norms_only_in_the_defect_test_and_the_uniform_norm():
    # every other defect is tested through `defect_norm`, whose Frobenius
    # screen spares the SVD of a defect far below DEFAULT_TOL
    assert package_scopes(is_two_norm_call) == {
        "algebra.defect_norm", "algebra.Operator.uniform_norm"}


def test_benchmark_tracer_bindings_exist():
    # perfbench/tracer.py wraps every function of its LAYERS modules and
    # the METHODS on their classes; a rename would break a traced run
    path = PACKAGE.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer in tracer.LAYERS:
        importlib.import_module(f"{tracer.PACKAGE}.{layer}")
    for layer, cls_name, attr in tracer.METHODS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        assert attr in vars(getattr(module, cls_name)), (cls_name, attr)
    cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
    assert set(cli._RUNNERS) == set(cli.SUBCOMMANDS)
    assert len(cli.SUBCOMMANDS) == 6
