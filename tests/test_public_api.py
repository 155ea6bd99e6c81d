"""Every public name in the package is used by the package.

A public function, class, constant or method that only the tests call is
API kept alive for its own tests.  A module-level name counts as used when
some module of the package imports it with ``from .mod import name``, reads
it as ``mod.name``, or its defining module reads it as a bare global name (a
parameter or local variable of the same name does not count, nor does a
function's call to itself).  A public
method of a module-level class counts as used when some module of the
package reads an attribute of that name, on any object; dunders and other
underscore names are exempt.  A field of a record, a module-level class
built on ``namedtuple(name, fields)`` or one naming its ``__slots__``,
counts as used by the same rule as a method.

The scan matches by name only, since it cannot tell the type of the object
an attribute is read from, so a method or field that only the tests use
passes when another class of the package has a member of that name that
the package reads.  ``NormalOrdering.word`` is such a field: the package
reads only ``Algebra.word``, and the word is kept as the tests' independent
check that the search's roots are those of a reduced word.

A parameter with a default is an option.  One that no call in the package
sets, by position or by keyword, is an option only the tests take, so the
package has a second way of calling the function that it never uses.  The
scan matches a call to a function or method by name, as above; a call of a
class counts toward its ``__init__`` and ``__new__``, and a call with
``*args`` or ``**kwargs`` sets every parameter it could reach.  A call
through a variable, such as a loop over a table of functions, is not seen.

The static scans cannot see a dunder nothing calls, such as an ``__radd__``
no int ever reaches.  A runtime scan can: it runs the README's CLI examples
in a fresh interpreter under ``sys.setprofile`` and lists every function,
method, nested function and lambda of the package that none of them
enters.  ``__hash__`` and ``__repr__`` are exempt by name, since dicts,
sets and failure messages call them.

No function of the package is memoised with ``functools.cache`` or
``lru_cache``: a memo outlives the call that filled it, so a process that
makes many calls, as the benchmark's in-process workloads do, would read it
as a gain that a user's single call never gets.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import _readme_examples

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qwhit"


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return {n for n in names if not n.startswith("_")}


def _public_methods(tree):
    """(class, method) for every public method of a module-level class."""
    return {(node.name, item.name) for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")}


def _record_fields(tree):
    """(class, field) for every field of a module-level namedtuple record,
    its fields given as a literal tuple, list or string of names, and for
    every name in the literal ``__slots__`` of a module-level class."""
    out = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (isinstance(item, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in item.targets)
                    and isinstance(item.value, (ast.Tuple, ast.List))):
                out.update((node.name, elt.value) for elt in item.value.elts
                           if not elt.value.startswith("_"))
        for base in node.bases:
            if not (isinstance(base, ast.Call) and len(base.args) == 2
                    and isinstance(base.func, ast.Name)
                    and base.func.id == "namedtuple"):
                continue
            spec = base.args[1]
            if isinstance(spec, ast.Constant):
                fields = spec.value.replace(",", " ").split()
            else:
                fields = [elt.value for elt in spec.elts]
            out.update((node.name, field) for field in fields)
    return out


def _attribute_reads(trees):
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _local_names(func):
    """Names bound inside a function or lambda: its parameters and every
    name it assigns, outside nested functions and classes."""
    args = func.args
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    out.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add((node.asname or node.name).split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return out


def _global_loads(node, shadowed=frozenset()):
    """Bare names read at module scope, ignoring those a function binds and
    a function's reads of its own name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        shadowed = shadowed | {node.name}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        shadowed = shadowed | _local_names(node)
    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id not in shadowed):
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _global_loads(child, shadowed)


def _references(trees):
    """(module, name) pairs that some module of the package uses."""
    refs = set()
    for module, tree in trees.items():
        refs.update((module, name) for name in _global_loads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                refs.update((node.module, a.name) for a in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in trees):
                refs.add((node.value.id, node.attr))
    return refs


def unreferenced_public_names(trees):
    refs = _references(trees)
    reads = _attribute_reads(trees)
    names = [f"{module}.{name}" for module, tree in trees.items()
             for name in _public_definitions(tree)
             if (module, name) not in refs]
    names += [f"{module}.{cls}.{member}" for module, tree in trees.items()
              for cls, member in _public_methods(tree) | _record_fields(tree)
              if member not in reads]
    return sorted(names)


def _options(func, bound):
    """{parameter: position or None} for the parameters of func that have a
    default, the position counted after the ``bound`` self or cls argument,
    None for a keyword-only parameter."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {arg.arg: k - bound
           for k, arg in enumerate(positional[first:], first)}
    out.update((arg.arg, None) for arg, default
               in zip(args.kwonlyargs, args.kw_defaults) if default is not None)
    return out


def _option_definitions(trees):
    """(qualified name, called name, options) for every module-level
    function and every method of a module-level class; a class is called by
    its own name for ``__init__`` and ``__new__``."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, funcs):
                yield f"{module}.{node.name}", node.name, _options(node, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, funcs):
                        continue
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    called = (node.name if item.name in ("__init__", "__new__")
                              else item.name)
                    yield (f"{module}.{node.name}.{item.name}", called,
                           _options(item, 0 if static else 1))


def _calls(trees):
    """{called name: [(positional count, has *args, keyword names)]}, a
    ``**kwargs`` keyword given as None."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            out.setdefault(name, []).append((
                len(node.args),
                any(isinstance(a, ast.Starred) for a in node.args),
                {k.arg for k in node.keywords}))
    return out


def unset_options(trees):
    calls = _calls(trees)
    return [f"{qualname}({param})"
            for qualname, called, options in _option_definitions(trees)
            for param, position in options.items()
            if not any(None in keywords or param in keywords
                       or (position is not None
                           and (starred or position < count))
                       for count, starred, keywords in calls.get(called, ()))]


# The console script calls main() with no argument; perfbench and the tests
# pass argv.
UNSET_OPTIONS_ALLOWED = {"cli.main(argv)"}


def test_every_option_is_set_by_some_package_call():
    unset = [name for name in unset_options(_trees())
             if name not in UNSET_OPTIONS_ALLOWED]
    assert not unset, ("defaults no call of the package overrides: "
                       + ", ".join(unset))


def test_the_option_scan_flags_a_default_no_call_sets():
    trees = {
        "a": ast.parse("def grid(n, m=None, *, fill=0):\n    return n\n\n"
                       "def scaled(x, k=1, shift=0):\n    return x\n\n"
                       "class Box:\n"
                       "    def __init__(self, size, label=''):\n"
                       "        self.size = size\n\n"
                       "    def grow(self, by=1):\n        return self\n\n"
                       "    @staticmethod\n"
                       "    def make(size=1):\n        return Box(size)\n"),
        "b": ast.parse("from .a import Box, grid, scaled\n\n"
                       "def run(args, opts):\n"
                       "    grid(2, fill=1)\n    scaled(*args)\n"
                       "    Box(1, 'x').grow()\n    return Box.make(**opts)\n"),
    }
    # m is never passed; *args reaches k and shift, **opts reaches size, a
    # class call sets __init__'s label, and grow's self is not its by
    assert unset_options(trees) == ["a.grid(m)", "a.Box.grow(by)"]


def test_every_public_name_is_used_by_the_package():
    unused = unreferenced_public_names(_trees())
    assert not unused, ("public names no module of the package uses: "
                        + ", ".join(unused))


def test_the_scan_flags_a_name_only_a_parameter_shadows():
    trees = {
        "a": ast.parse("def vec(xs):\n    return xs\n\n"
                       "def used(vec):\n    return vec\n\n"
                       "LIMIT = 3\n\n"
                       "def top():\n    return used(LIMIT)\n"),
        "b": ast.parse("from . import a\nfrom .a import top\n\n"
                       "def run(vec):\n    return a.top() + top(vec)\n"),
    }
    assert unreferenced_public_names(trees) == ["a.vec", "b.run"]


def test_the_scan_flags_a_function_only_it_calls():
    trees = {
        "a": ast.parse("def fact(n):\n    return n * fact(n - 1) if n else 1\n\n"
                       "def half(n):\n    return n // 2\n\n"
                       "def halve(n):\n    return n if n < 2 else halve(half(n))\n"),
        "b": ast.parse("from .a import halve\n\nprint(halve(4))\n"),
    }
    # fact and halve call themselves; half is used by halve, halve by b
    assert unreferenced_public_names(trees) == ["a.fact"]


def test_the_scan_flags_a_method_only_tests_call():
    trees = {
        "a": ast.parse("class Op:\n"
                       "    def __add__(self, other):\n        return self\n\n"
                       "    def apply(self, f):\n        return f\n\n"
                       "    def scale(self, c):\n        return self\n\n"
                       "    @property\n    def size(self):\n        return 0\n\n"
                       "    def _cached(self):\n        return None\n\n"
                       "def use(op):\n    return op.scale(2).size\n"),
        "b": ast.parse("from .a import Op, use\n\n"
                       "def run(apply):\n    op = Op()\n    op.apply = apply\n"
                       "    return use(op)\n"),
    }
    # dunders and underscore methods are exempt; an attribute store is no use
    assert unreferenced_public_names(trees) == ["a.Op.apply", "b.run"]


def test_the_scan_flags_a_record_field_nothing_reads():
    trees = {
        "a": ast.parse("from collections import namedtuple\n\n"
                       "class Pair(namedtuple('Pair', ('lo', 'hi', 'tag'))):\n"
                       "    __slots__ = ()\n\n"
                       "    def width(self):\n        return self.hi - self.lo\n\n"
                       "Point = namedtuple('Point', 'x y')\n\n"
                       "class Span(namedtuple('Span', 'start, stop')):\n"
                       "    pass\n"),
        "b": ast.parse("from .a import Pair, Point, Span\n\n"
                       "def run(p):\n    p.tag = Span(1, 2).start\n"
                       "    return Pair(1, 2, 3).width() + Point(0, 1).y\n"),
    }
    # a field counts once some module reads an attribute of its name; a
    # store is no read, and a bare namedtuple assignment is no record class
    assert unreferenced_public_names(trees) == [
        "a.Pair.tag", "a.Span.stop", "b.run"]


def test_the_scan_flags_a_slot_nothing_reads():
    trees = {
        "a": ast.parse("class Cell:\n"
                       "    __slots__ = ('value', 'spare', '_cache')\n\n"
                       "    def __init__(self, value):\n"
                       "        self.value = value\n"),
        "b": ast.parse("from .a import Cell\n\n"
                       "def run():\n    cell = Cell(1)\n    cell.spare = 2\n"
                       "    return cell.value\n"),
    }
    # a slot is a field like a record's; a store is no read, and an
    # underscore slot is exempt
    assert unreferenced_public_names(trees) == ["a.Cell.spare", "b.run"]


def function_definitions(trees):
    """{(module, first line): qualified name} for every function, method,
    nested function and lambda; the first line of a decorated function is
    its first decorator's, as in its code object."""
    out = {}

    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                out[module, line] = f"{module}.{prefix}{child.name}"
                walk(module, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(module, child, f"{prefix}{child.name}.")
            else:
                if isinstance(child, ast.Lambda):
                    out[module, child.lineno] = (
                        f"{module}.{prefix}<lambda> (line {child.lineno})")
                walk(module, child, prefix)

    for module, tree in trees.items():
        walk(module, tree, "")
    return out


# Run in a fresh interpreter, so that no cache an earlier test filled
# (algebras, lru_cache tables) keeps a function from being entered.
_TRACE = """
import contextlib, io, json, sys
from qwhit import cli

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


with contextlib.redirect_stdout(io.StringIO()):
    with contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(record)
        codes = [cli.main(argv) for argv in json.load(sys.stdin)]
        sys.setprofile(None)
json.dump({"codes": codes, "entered": sorted(entered)}, sys.stdout)
"""

# Functions the README examples do not enter, each kept for its reason.
UNENTERED_ALLOWED = {
    # commutes hands a coefficient with a non-unit denominator to it, which
    # no example has; perfbench wraps it as its toda.commutator_s span
    "toda.commutator",
    # d1 * d2 - d2 * d1 is the tests' reference for commutator
    "toda.DifferenceOperator.__neg__",
    "toda.DifferenceOperator.__sub__",
}


def test_every_function_is_entered_by_the_readme_examples():
    examples = _readme_examples()
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _TRACE],
                          input=json.dumps(examples), capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout)
    assert trace["codes"] == [0] * len(examples)
    entered = {(Path(path).resolve().stem, line)
               for path, line in trace["entered"]
               if Path(path).resolve().parent == PACKAGE}
    missed = sorted(name for key, name in function_definitions(_trees()).items()
                    if key not in entered and name not in UNENTERED_ALLOWED
                    and name.rsplit(".", 1)[-1] not in ("__hash__", "__repr__"))
    assert not missed, ("functions no README example enters: "
                        + ", ".join(missed))


def test_the_entry_scan_lists_nested_functions_and_lambdas():
    trees = {"a": ast.parse("import functools\n\n"
                            "class Op:\n"
                            "    @functools.cache\n"
                            "    def size(self):\n"
                            "        def inner():\n"
                            "            return sorted([1], key=lambda x: -x)\n"
                            "        return inner()\n")}
    assert function_definitions(trees) == {
        ("a", 4): "a.Op.size",
        ("a", 6): "a.Op.size.<locals>.inner",
        ("a", 7): "a.Op.size.<locals>.inner.<locals>.<lambda> (line 7)",
    }


# Building all 13 subparsers costs every call the same; building only the
# one a call runs is an open item, and until then the parser is kept.
MEMOS_ALLOWED = {"cli.build_parser"}


def memoised_functions(trees):
    """Every function or method decorated with functools.cache or
    lru_cache, by either spelling."""
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = (target.attr if isinstance(target, ast.Attribute)
                        else getattr(target, "id", None))
                if name in ("cache", "lru_cache"):
                    out.append(f"{module}.{node.name}")
    return sorted(out)


def test_no_memo_outlives_a_call():
    memos = [name for name in memoised_functions(_trees())
             if name not in MEMOS_ALLOWED]
    assert not memos, "memoised functions: " + ", ".join(memos)


def test_the_memo_scan_flags_each_spelling():
    trees = {"a": ast.parse("import functools\n"
                            "from functools import lru_cache\n\n"
                            "@functools.cache\ndef f():\n    pass\n\n"
                            "@lru_cache(maxsize=None)\ndef g():\n    pass\n\n"
                            "class C:\n"
                            "    @functools.lru_cache\n"
                            "    def m(self):\n        pass\n\n"
                            "def h():\n    pass\n")}
    assert memoised_functions(trees) == ["a.f", "a.g", "a.m"]
