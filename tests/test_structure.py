"""The shape of the package source itself, read with ``ast``.

Every module-level private function of ``src/glancelab`` must have a caller
in the package other than its own body: a helper whose callers moved to
another code path fails here instead of lingering.  Likewise every name a
module imports must be read in it.  ``specfun`` holds no matrix product,
whose rounding would make an element depend on its batch, and names no
extended-precision type, whose width depends on the platform.  The two Airy
methods are reached through the one Airy dispatch alone, the three Bessel
methods and their region test through the one Bessel dispatch alone, and the
one Newton iteration by the two roots it solves alone.  No two functions
share a body.  Every flag of a CLI subcommand is a row of its option table,
and is read by the body that runs it.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glancelab"


def _references(tree: ast.Module):
    """(name, enclosing module-level definition or None) of every name and
    attribute the module reads."""
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def test_every_private_function_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    private = {(module, node.name) for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")}
    assert private
    readers = {}    # name -> {(module, definition) that reads it}
    for module, tree in trees.items():
        for name, owner in _references(tree):
            readers.setdefault(name, set()).add((module, owner))
    uncalled = sorted(f"{module}.{name}" for module, name in private
                      if not readers.get(name, set()) - {(module, name)})
    assert not uncalled, f"private functions without a caller: {uncalled}"


# private functions that exactly one definition of the package may call
_ONE_CALLER = {"_airy_asymps": ("specfun", "_airy_pair"),
               "_airy_transports": ("specfun", "_airy_pair"),
               "_regions": ("specfun", "_bessel_j"),
               "_bessel_uniforms": ("specfun", "_bessel_j"),
               "_bessel_recurrences": ("specfun", "_bessel_j"),
               "_bessel_millers": ("specfun", "_bessel_j")}
# the private functions whose callers are held, each with the definitions
# that may call it
_CALLERS = {name: {caller} for name, caller in _ONE_CALLER.items()} | {
    "_newton": {("specfun", "z_of_zeta"), ("specfun", "bessel_zero")}}


def test_each_method_has_one_dispatch():
    callers = {name: set() for name in _CALLERS}
    for path in sorted(SRC.glob("*.py")):
        for name, owner in _references(ast.parse(path.read_text())):
            if name in callers and owner != name:
                callers[name].add((path.stem, owner))
    assert callers == _CALLERS


def _imports(tree: ast.Module):
    """(name, line) of every name an import binds, at any depth; a
    ``from __future__`` import is a compiler directive and binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    """The names of the module's ``__all__``, which re-exports them."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_read():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)} | _exported(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imports(tree) if name not in read]
    assert not unused, f"imported but never read: {unused}"


# numpy's matrix products, and np.linalg: BLAS blocks and orders their sums
# by the shapes of the operands, so an element's bits would depend on what
# else is in its batch
_PRODUCTS = {"dot", "matmul", "einsum", "vecdot", "tensordot", "inner"}


def test_specfun_has_no_matrix_product():
    tree = ast.parse((SRC / "specfun.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.MatMult):
            found.append("@")
        elif isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) in _PRODUCTS
                or getattr(node.func, "id", None) in _PRODUCTS):
            found.append(ast.unparse(node.func))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(ast.unparse(node))
    assert not found, f"matrix products in specfun: {found}"


# numpy's extended-precision types: where C's long double is float64, as with
# MSVC and on arm64 macOS, longdouble is float64 too, and an accuracy that
# rests on its 80 bits is lost
_EXTENDED = re.compile(r"longdouble|float96|float128")


def test_specfun_is_float64_throughout():
    found = _EXTENDED.findall((SRC / "specfun.py").read_text())
    assert not found, f"extended precision in specfun: {found}"


def _string_keys(function: ast.FunctionDef):
    """The string keys a function reads: ``d["key"]`` and ``d.get("key")``."""
    for node in ast.walk(function):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif (isinstance(node, ast.Call) and node.args
              and getattr(node.func, "attr", None) == "get"):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield key.value


def test_every_flag_reaches_its_runner():
    # a flag that its runner never reads would be parsed, recorded in the
    # manifest and silently ignored
    from glancelab import cli
    bodies = {node.name: node
              for node in ast.parse((SRC / "cli.py").read_text()).body
              if isinstance(node, ast.FunctionDef)}
    unread = [f"{name} {flag}" for name, options in cli._OPTIONS.items()
              for dest, flag, *_ in options if dest not in set(
                  _string_keys(bodies[cli._RUNNERS[name].__name__]))]
    assert not unread, f"flags that no runner reads: {unread}"


def _body(function) -> str:
    """The AST dump of a function's body, its docstring dropped."""
    body = function.body
    if ast.get_docstring(function) is not None:
        body = body[1:]
    return ast.dump(ast.Module(body=body, type_ignores=[]))


def test_no_two_functions_share_a_body():
    # a rule written twice drifts apart: each body has one home
    homes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes.setdefault(_body(node), []).append(
                    f"{path.stem}.{node.name}")
    shared = [names for names in homes.values() if len(names) > 1]
    assert not shared, f"functions with one body: {shared}"


def test_every_flag_is_a_row_of_its_table():
    # a flag added to the parser beside the option table escapes the
    # table's defaults, config keys and checks
    from glancelab import cli
    subparsers = next(action for action in cli._build_parser()._actions
                      if action.dest == "subcommand")
    for name, parser in subparsers.choices.items():
        flags = {flag for action in parser._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        rows = {flag for _dest, flag, *_ in cli._OPTIONS[name]}
        assert flags == rows | {"--config"}, name
