"""Every name a package module or test file imports is used by that file,
every private name the package defines is used somewhere in the package,
every defaulted parameter of the package is set by some call, every
attribute the package stores is read somewhere, no dataclass field is
filled from one module-level constant by every construction, every
exception that ``errors`` exports is raised, caught or warned somewhere in
the package, every entry point the benchmark's tracer (bench/tracer.py)
wraps exists, a traced scan counts each Newton start once, and the CLI
starts without mpmath.

Static scans: each module of the package and each test file (but the
frozen oracle_series.py) is parsed with ast.  An imported name counts as
used when it appears as a name anywhere in the file or is re-exported
through ``__all__``.  A module-level ``_name`` or a ``_method``
of a module-level class counts as used when some module of the package
reads it as a name or an attribute, or imports it.  A defaulted parameter
of a package function counts as set when some call of that name (as a name
or an attribute) in the package, the tests or the benchmark passes it by
keyword or by position.  An attribute that the package stores, as
``x.attr = ...``, counts as read when some file of the package, the tests
or the benchmark reads an attribute of that name.  A dataclass field is a
constant in disguise when every call of its class in the package passes
it, by keyword or by position, the same module-level name.  An exported
exception counts as used when a package module names it in a ``raise``, an
``except`` clause or as the category of a ``warn`` call.
"""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import todacensus

MODULES = sorted(pathlib.Path(todacensus.__file__).parent.glob("*.py"))
# the suite's own files, except the frozen series oracle
TEST_FILES = sorted(p for p in pathlib.Path(__file__).parent.glob("*.py")
                    if p.name != "oracle_series.py")
ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name
                if isinstance(node, ast.Import):
                    name = name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _dead_private_names(sources):
    """(module, line, name) of the private definitions in sources (a dict
    module name -> source text) that no module references."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names if _private(name)]
            if isinstance(node, ast.ClassDef):
                defined += [(module, item.lineno, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef) and _private(item.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    return sorted(d for d in defined if d[2] not in used)


def test_scan_finds_an_unused_import():
    src = "import math\nfrom os import path, sep\n__all__ = ['sep']\n"
    assert _unused_imports(src) == [(1, "math"), (2, "path")]


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=lambda p: p.name if p in MODULES else "tests/" + p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_finds_a_dead_private_name():
    a = ("_TABLE = 1\n_ORPHAN = 2\n"
         "def _helper():\n    return _TABLE\n"
         "class K:\n    def _used(self):\n        return _helper()\n"
         "    def _dead(self):\n        return self._used()\n"
         "    def __len__(self):\n        return 0\n")
    b = "from .a import _ORPHAN as orphan\n"
    assert _dead_private_names({"a": a}) == [("a", 2, "_ORPHAN"), ("a", 8, "_dead")]
    assert _dead_private_names({"a": a, "b": b}) == [("a", 8, "_dead")]


def test_no_dead_private_names():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert _dead_private_names(sources) == []


def _unset_defaults(package, callers):
    """(module, line, function, parameter) of the defaulted parameters of
    the functions in package (a dict module name -> source text) that no
    call in callers (source texts) passes.  A call passes a parameter when
    it names it, has a ** argument, or has more positional arguments than
    precede it (any, with a * argument); a method's first parameter is its
    receiver.  Dunder methods are skipped: a class call does not name
    __init__."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call, index, arg):
        return (any(k.arg in (arg, None) for k in call.keywords)
                or (index is not None and len(call.args) > index)
                or (index is not None and any(isinstance(a, ast.Starred) for a in call.args)))

    unset = []
    for module, source in package.items():
        tree = ast.parse(source)
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            receiver = id(node) in methods
            defaulted = [(i - receiver, p.arg) for i, p in enumerate(positional) if i >= first]
            defaulted += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            unset += [(module, node.lineno, node.name, arg) for index, arg in defaulted
                      if not any(passes(c, index, arg) for c in calls.get(node.name, ()))]
    return sorted(unset)


def test_scan_finds_an_unset_default():
    a = ("def f(x, y=1, z=2, *, w=3):\n    return g(x)\n"
         "def g(x, flag=False):\n    return x\n"
         "class K:\n    def m(self, n=0):\n        return n\n"
         "    def __init__(self, size=4):\n        self.size = size\n")
    b = "f(1, 2)\nK().m(5)\n"
    c = "f(0, w=1)\nf(*[0, 1, 2])\n"
    assert _unset_defaults({"a": a}, [a, b]) == [
        ("a", 1, "f", "w"), ("a", 1, "f", "z"), ("a", 3, "g", "flag")]
    assert _unset_defaults({"a": a}, [a, b, c]) == [("a", 3, "g", "flag")]
    assert ("a", 6, "m", "n") in _unset_defaults({"a": a}, [a, "K().m()\n"])


def test_no_unset_defaults():
    # a default that no caller sets is a constant in disguise
    package = {path.stem: path.read_text() for path in MODULES}
    callers = [path.read_text() for folder in ("src", "tests", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert _unset_defaults(package, callers) == []


def _is_dataclass(node):
    return isinstance(node, ast.ClassDef) and any(
        "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
        for d in (getattr(dec, "func", dec) for dec in node.decorator_list))


def _unread_attributes(package, readers, printed=()):
    """(module, line, attribute) of every store x.attr = ... in package (a
    dict module name -> source text), and of every field of a dataclass
    there, of an attribute that no source in readers reads as an attribute.
    An augmented assignment is a store.  The fields of the classes named in
    printed are read by the output that lists them."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out = []
    for module, source in package.items():
        tree = ast.parse(source)
        out += [(module, node.lineno, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
        out += [(module, item.lineno, item.target.id) for node in ast.walk(tree)
                if _is_dataclass(node) and node.name not in printed
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return sorted(entry for entry in out if entry[2] not in read)


def test_scan_finds_an_unread_attribute():
    a = ("class K:\n    def __init__(self):\n        self.kept = 1\n        self.lost = 2\n"
         "        self.total = 0\n    def add(self):\n        self.total += self.kept\n")
    b = "print(K().lost)\n"
    assert _unread_attributes({"a": a}, [a]) == [
        ("a", 4, "lost"), ("a", 5, "total"), ("a", 7, "total")]
    assert _unread_attributes({"a": a}, [a, b]) == [("a", 5, "total"), ("a", 7, "total")]
    c = ("@dataclass\nclass R:\n    kept: int\n    lost: int = 0\n"
         "@dataclasses.dataclass(frozen=True)\nclass Shown:\n    quiet: int\n"
         "class Plain:\n    note: int\n"
         "def f(r):\n    return r.kept\n")
    assert _unread_attributes({"c": c}, [c]) == [("c", 4, "lost"), ("c", 7, "quiet")]
    assert _unread_attributes({"c": c}, [c], printed=("Shown",)) == [("c", 4, "lost")]


# the dataclasses that the CLI prints field by field (jsonio.to_jsonable):
# polys, solve, even --tau and monodromy
PRINTED = ("M0System", "CensusReport", "RootCluster", "EvenReport", "EvenRoot",
           "MonodromyReport")


def test_no_unread_attributes():
    # a stored value that nothing reads is a payload kept for no one
    package = {path.stem: path.read_text() for path in MODULES}
    readers = [path.read_text() for folder in ("src", "tests", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert _unread_attributes(package, readers, PRINTED) == []


def _constant_fields(package):
    """(module, line, class, field) of the dataclass fields in package (a
    dict module name -> source text) that every construction of their class
    in the package fills from one and the same module-level name of the
    constructing module, by keyword or by position.  A call of the class's
    name, or of ``cls`` in its own body, is a construction; one with a * or
    ** argument fills no field from a constant."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    fields = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if _is_dataclass(node):
                fields[node.name] = (module, [(item.lineno, item.target.id) for item in node.body
                                              if isinstance(item, ast.AnnAssign)
                                              and isinstance(item.target, ast.Name)])
    values = {}  # (class, field) -> the (module, constant) of each construction
    counts = {}  # class -> its constructions
    for module, tree in trees.items():
        top = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if isinstance(t, ast.Name)}
        calls = [(node.func.id if isinstance(node.func, ast.Name) else node.func.attr, node)
                 for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) in fields]
        calls += [(cls.name, node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name in fields
                  for node in ast.walk(cls) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "cls"]
        for name, call in calls:
            counts[name] = counts.get(name, 0) + 1
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                continue
            given = dict(zip([f for _, f in fields[name][1]], call.args))
            given.update((k.arg, k.value) for k in call.keywords)
            for field, value in given.items():
                if isinstance(value, ast.Name) and value.id in top:
                    values.setdefault((name, field), []).append((module, value.id))
    return sorted((module, line, name, field)
                  for name, (module, entries) in fields.items() for line, field in entries
                  if 0 < counts.get(name, 0) == len(values.get((name, field), ()))
                  and len(set(values[(name, field)])) == 1)


def test_scan_finds_a_constant_field():
    a = ("_TOL = 1e-12\n_ORDER = 28\n_OTHER = 3\n"
         "@dataclass\nclass C:\n    x: complex\n    tol: float\n    order: int\n"
         "    def twin(self):\n        return C(self.x, _TOL, order=_ORDER)\n"
         "def make(x):\n    return C(x=x, tol=_TOL, order=_ORDER)\n"
         "def more(x):\n    return C(x, tol=_TOL, order=_OTHER)\n"
         "@dataclass\nclass D:\n    n: int\n"
         "    @classmethod\n    def of(cls, n):\n        return cls(n)\n"
         "def d():\n    return D(_ORDER)\n")
    assert _constant_fields({"a": a}) == [("a", 7, "C", "tol")]
    b = "from .a import C\nC(**{'x': 1, 'tol': 2, 'order': 3})\n"
    assert _constant_fields({"a": a, "b": b}) == []


def test_no_field_filled_from_one_constant():
    # a field that every construction fills from one constant holds that
    # constant, not a setting: read the constant where the field is read
    package = {path.stem: path.read_text() for path in MODULES}
    assert _constant_fields(package) == []


def _unused_exceptions(names, sources):
    """The names (exception classes) that no source raises, catches or
    passes as a warning category: ``raise X``, ``raise X(...)``, ``except X``
    or ``except (X, Y)``, and ``warn(message, X)`` or ``warn(...,
    category=X)``, the call by name or as an attribute."""
    used = set()

    def add(node):
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Tuple):
            for elt in node.elts:
                add(elt)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)

    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                add(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                add(node.type)
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "warn":
                for arg in node.args[1:2] + [k.value for k in node.keywords
                                             if k.arg == "category"]:
                    add(arg)
    return sorted(set(names) - used)


def test_scan_finds_an_unused_exception():
    a = ("try:\n    raise Refused('no')\nexcept (Refused, Lost):\n    raise\n"
         "except errors.Gone:\n    warnings.warn('late', Late)\n"
         "warn('again', category=Again)\nraise Bare\n")
    names = ["Refused", "Lost", "Gone", "Late", "Again", "Bare", "Idle"]
    assert _unused_exceptions(names, [a]) == ["Idle"]
    assert _unused_exceptions(names, ["Idle = 1\n"]) == sorted(names)


def test_every_exported_exception_is_used():
    # an exception class that nothing raises, catches or warns is an
    # exported promise that the package never keeps
    errors = importlib.import_module("todacensus.errors")
    sources = [path.read_text() for path in MODULES]
    assert _unused_exceptions(errors.__all__, sources) == []


def _load_tracer():
    path = ROOT / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these entry points by name; a rename must
    # fail here, not only in a traced benchmark run
    for modname, attr, *_ in _load_tracer().LAYERS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), "%s.%s" % (modname, attr)
            owner = getattr(owner, part)


def test_traced_scan_counts_every_newton_start(monkeypatch):
    # a scan solves the warm starts of a wave of cells in one Newton batch;
    # the tracer's start count must still be the cells' starts, each once
    tracing = _load_tracer()
    for modname in {m for m, *_ in tracing.LAYERS}:
        importlib.import_module(modname)  # the tracer wraps loaded modules only
    solver = importlib.import_module("todacensus.solver")

    used = []
    census = solver._census

    def recording(*args):
        rep = census(*args)
        used.append(rep.starts_used)
        return rep

    monkeypatch.setattr(solver, "_census", recording)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rows = solver.scan_tau(0, 4, {"re0": 0.1, "re1": 0.3, "nre": 3,
                                      "im0": 1.1, "im1": 1.3, "nim": 3})
    finally:
        tracer.uninstall()
    assert len(rows) == len(used) == 9
    metrics = tracer.layer_metrics(0.0, 0.0, 0.0, 0.0)
    assert metrics["solver.newton.starts"][0] == sum(used)
    # one batch for the first cell's census chunk, one per later wave
    assert metrics["solver.newton.calls"][0] == 1 + (3 + 3 - 2)


def test_cli_start_leaves_mpmath_unloaded():
    # mpmath serves only the high-precision form routines; every process
    # would otherwise pay its import
    code = ("import sys, todacensus.cli\n"
            "from todacensus.elliptic import compute_invariants\n"
            "compute_invariants(0.21 + 1.13j)\n"
            "print('mpmath' in sys.modules)\n")
    env = dict(os.environ)
    src = str(pathlib.Path(todacensus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False"]
