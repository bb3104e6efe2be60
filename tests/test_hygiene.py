"""Static checks on the library source."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import rosepen

SRC = Path(rosepen.__file__).resolve().parent


def _unread_parameters(tree):
    """(function name, parameter) for every parameter that its function,
    nested scopes included, never reads; dunder methods are exempt, since
    their signatures are fixed by the protocol they implement."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [(name, p.arg) for p in params if p.arg not in read]
    return found


def test_every_parameter_is_read():
    unread = {
        path.name: _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {k: v for k, v in unread.items() if v} == {}


def test_the_scan_finds_an_unread_parameter():
    source = """
def f(a, b):
    return lambda c: a

class K:
    def __exit__(self, *exc):
        pass
"""
    tree = ast.parse(source)
    assert _unread_parameters(tree) == [("f", "b"), ("<lambda>", "c")]


def _tuples_from_generators(tree):
    """Lines that build a tuple from a generator: tuple(<genexpr>) or a call
    with a *<genexpr> argument (see the `_linalg` docstring for the cost)."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        direct = (
            isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and node.args
            and isinstance(node.args[0], ast.GeneratorExp)
        )
        starred = any(
            isinstance(a, ast.Starred) and isinstance(a.value, ast.GeneratorExp)
            for a in node.args
        )
        if direct or starred:
            found.add(node.lineno)
    return sorted(found)


def test_no_tuple_is_built_from_a_generator():
    found = {
        path.name: _tuples_from_generators(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {k: v for k, v in found.items() if v} == {}


def test_the_scan_finds_tuples_built_from_generators():
    source = """
a = tuple(x for x in y)
b = tuple([x for x in y])
c = lcm(*(x for x in y))
d = lcm(*[x for x in y])
"""
    assert _tuples_from_generators(ast.parse(source)) == [2, 4]


def _private_imports(tree):
    """(module, name) for every private name imported from a public module
    of the package (`from .module import _name`); names from the private
    modules, such as `_linalg` and `_roots`, do not count."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        module = node.module.removeprefix("rosepen.") if node.level == 0 else node.module
        if (node.level == 1 or node.module.startswith("rosepen.")) and not module.startswith("_"):
            found |= {(module, a.name) for a in node.names if a.name.startswith("_")}
    return found


def test_private_names_cross_modules_only_where_pinned():
    found = {
        (path.stem, module, name)
        for path in sorted(SRC.glob("*.py"))
        for module, name in _private_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {
        ("equivalence", "fiedler", "_spliced_product"),
        ("equivalence", "system", "_system_layout"),
    }


def test_the_scan_finds_private_imports():
    source = """
from . import _linalg
from ._roots import _divisors
from .polymat import Poly, _lowest_terms
from rosepen.system import _system_layout
from rosepen._linalg import _x

def f():
    from .eigen import _on_a_pole
"""
    assert _private_imports(ast.parse(source)) == {
        ("polymat", "_lowest_terms"),
        ("system", "_system_layout"),
        ("eigen", "_on_a_pole"),
    }


def _readers(tree, name):
    """The innermost enclosing function (None at module level) of every read
    of `name`, bare or as an attribute; imports do not count."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_the_dense_product_has_one_production_caller():
    # every pencil is spliced (Algorithm 1) but the default pencil of numeric
    # classify_zeros on a system; the product is otherwise a test oracle
    found = {
        (path.stem, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope in _readers(ast.parse(path.read_text(encoding="utf-8")), "pencil_direct")
    }
    assert found == {("eigen", "classify_zeros")}


def test_the_scan_finds_readers():
    source = """
from .fiedler import pencil_direct

def f(sys):
    return fiedler.pencil_direct(sys)

def g():
    def h():
        return pencil_direct
    return h

alias = pencil_direct
"""
    assert _readers(ast.parse(source), "pencil_direct") == {"f", "h", None}


def _benchmark_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_layer_map_names_existing_functions():
    # the benchmark's traced run wraps every function that perfbench/spans.py
    # lists in LAYERS; renaming or deleting one must fail here first
    spans = _benchmark_spans()
    named = [(module, fn) for module, fns in spans.LAYERS.values() for fn in fns]
    missing = [
        f"{module}.{fn}"
        for module, fn in named
        if not callable(getattr(importlib.import_module(module), fn, None))
    ]
    assert len(named) > 20 and missing == []


def test_benchmark_counters_take_the_wrapped_parameters():
    # the traced run calls each COUNTERS hook as counter(tracer, *args,
    # **kwargs) with the arguments of the wrapped call, so a changed library
    # signature must fail here rather than in the traced run
    spans = _benchmark_spans()

    def params(fn):
        return [(p.name, p.kind) for p in inspect.signature(fn).parameters.values()]

    mismatched = {}
    for name, counter in spans.COUNTERS.items():
        layer, fn = name.split(".")
        wrapped = getattr(importlib.import_module(spans.LAYERS[layer][0]), fn)
        if params(counter)[1:] != params(wrapped):
            mismatched[name] = (params(counter)[1:], params(wrapped))
    assert len(spans.COUNTERS) >= 5 and mismatched == {}
