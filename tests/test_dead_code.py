"""No dead code: every module-level function and class of the package has
a caller in the program, every method is read, and every import and
default is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "divaria"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
# the program: the package and the benchmark harness, without tests
PROGRAM = sorted(PACKAGE.glob("*.py")) + [
    path for path in sorted((ROOT / "perfbench").glob("*.py")) if not path.name.startswith("test_")]


def _package_module(path: Path, node: ast.ImportFrom) -> str | None:
    """The package module that node imports from, "" for the package itself."""
    if node.level == 1 and path.parent == PACKAGE:
        return node.module or ""
    if not node.level and node.module and node.module.split(".")[0] == "divaria":
        return node.module.partition(".")[2]
    return None


def _uses(path: Path) -> set:
    """(module, name) of each package def that path reads: by its bare name
    in its own module outside its own body, as a name imported from its
    module, or as an attribute of an alias of its module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem if path.parent == PACKAGE else None
    imported, aliases = {}, {}  # local name -> (module, name); local name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(path, node)
            for alias in node.names:
                local = alias.asname or alias.name
                if module == "" and alias.name in MODULES:
                    aliases[local] = alias.name
                elif module in MODULES:
                    imported[local] = (module, alias.name)
    used = set()
    for stmt in tree.body:
        body_of = stmt.name if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if own and node.id != body_of:
                    used.add((own, node.id))
                if node.id in imported:
                    used.add(imported[node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                used.add((aliases[node.value.id], node.attr))
    return used


def test_every_module_level_def_is_referenced():
    """Calls from tests do not count, and a use must name the def's module:
    a same-named method or function elsewhere does not keep it alive."""
    defined = {(path.stem, stmt.name) for path in PACKAGE.glob("*.py")
               for stmt in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    used = set().union(*map(_uses, PROGRAM))
    assert defined
    assert sorted(f"{module}.{name}" for module, name in defined - used) == []


def _attribute_reads(tree, enclosing=()):
    """(attribute name, ids of the defs around the read) of every attribute
    that tree reads."""
    if isinstance(tree, ast.Attribute) and isinstance(tree.ctx, ast.Load):
        yield tree.attr, enclosing
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing += (id(tree),)
    for child in ast.iter_child_nodes(tree):
        yield from _attribute_reads(child, enclosing)


def _traced_attributes() -> set:
    """The method and function names of perfbench/tracer.py's TRACED: the
    tracer reads each by getattr on its class or module."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    traced = next(stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in stmt.targets))
    return {attr.rpartition(".")[2] for _name, _module, attr, *_flags in ast.literal_eval(traced)}


def test_every_method_is_read():
    """A method of a src class whose name the program never reads as an
    attribute, outside the method's own body, has no caller.  Calls from
    tests do not count; a read through any object counts, so a method that
    the program calls through a base class is used.  Special methods are
    called by the language, not read by name."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    methods = [(f"{path.stem}.{cls.name}.{fn.name}", fn)
               for path, tree in trees.items() if path.parent == PACKAGE
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    reads: dict = {}  # attribute name -> [ids of the defs around each read], in the same trees
    for tree in trees.values():
        for attr, enclosing in _attribute_reads(tree):
            reads.setdefault(attr, []).append(enclosing)
    traced = _traced_attributes()
    assert methods and traced
    unread = [qual for qual, fn in methods if fn.name not in traced
              and all(id(fn) in enclosing for enclosing in reads.get(fn.name, ()))]
    assert unread == []


def test_every_slot_is_read():
    """A __slots__ entry of a src class that the program never reads as an
    attribute is stored and never used: what read it is gone.  A read
    through any object counts, writes do not, and calls from tests do not."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    slots = [(f"{path.stem}.{cls.name}.{name}", name)
             for path, tree in trees.items() if path.parent == PACKAGE
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             for stmt in cls.body if isinstance(stmt, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
             for name in ast.literal_eval(stmt.value)]
    reads = {attr for tree in trees.values() for attr, _enclosing in _attribute_reads(tree)}
    assert slots
    assert [qual for qual, name in slots if name not in reads] == []


def test_every_import_is_used():
    """A name that a src module imports and never reads is dead.  Names
    listed in __all__ and imports marked # noqa: F401 (re-exports) are exempt."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        exported = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                exported |= set(ast.literal_eval(stmt.value))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported:
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_import_is_at_module_level():
    """An import inside a function hides a module's dependencies and runs on
    every call; the package has no import cycle that would need one."""
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []


def _defs(body, qual, out, classes, owner=None):
    """Every def under body as (qualified name, def, owning class or None);
    classes maps each class name to (base names, {method name: def})."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((f"{qual}{stmt.name}", stmt, owner))
            _defs(stmt.body, f"{qual}{stmt.name}.", out, classes)
        elif isinstance(stmt, ast.ClassDef):
            classes[stmt.name] = ([b.id for b in stmt.bases if isinstance(b, ast.Name)],
                                  {s.name: s for s in stmt.body if isinstance(s, ast.FunctionDef)})
            _defs(stmt.body, f"{qual}{stmt.name}.", out, classes, stmt.name)


def _decorated(fn, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in fn.decorator_list)


def test_every_default_is_set_by_a_caller():
    """A defaulted parameter that no call in the program passes is a
    constant, not an option.  Calls in src and perfbench count, tests do
    not.  A call matches every def of its name, a class call matches the
    __init__ the class has or inherits, and a call with *args or **kwargs
    passes everything."""
    found, classes = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        _defs(ast.parse(path.read_text(encoding="utf-8")).body, f"{path.stem}.", found, classes)
    by_name: dict = {}
    for _qual, fn, owner in found:
        by_name.setdefault(fn.name, []).append(
            (fn, int(owner is not None and not _decorated(fn, "staticmethod"))))

    def method(cls, name):
        bases, methods = classes[cls]
        if name in methods:
            return methods[name]
        return next(filter(None, (method(b, name) for b in bases if b in classes)), None)

    def callees(func):
        """(def, number of leading parameters the call does not fill)."""
        if isinstance(func, ast.Name):
            if func.id in classes:
                init = method(func.id, "__init__")
                return [(init, 1)] if init else []
            return [(fn, skip) for fn, skip in by_name.get(func.id, ()) if not skip]
        if not isinstance(func, ast.Attribute):
            return []
        if isinstance(func.value, ast.Name) and func.value.id in classes:
            fn = method(func.value.id, func.attr)
            return [(fn, int(_decorated(fn, "classmethod")))] if fn else []
        return by_name.get(func.attr, [])

    passed = set()  # (id of def, parameter name)
    for path in PROGRAM:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            everything = (any(isinstance(a, ast.Starred) for a in call.args)
                          or any(k.arg is None for k in call.keywords))
            for fn, skip in callees(call.func):
                params = fn.args.posonlyargs + fn.args.args
                filled = params[skip:skip + len(call.args)]
                if everything:
                    filled = params + fn.args.kwonlyargs
                passed |= {(id(fn), p.arg) for p in filled}
                passed |= {(id(fn), k.arg) for k in call.keywords}
    unset = []
    for qual, fn, _owner in found:
        params = fn.args.posonlyargs + fn.args.args
        defaulted = params[len(params) - len(fn.args.defaults):]
        defaulted += [p for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        unset += [f"{qual}({p.arg})" for p in defaulted if (id(fn), p.arg) not in passed]
    assert unset == []


def test_every_traced_name_resolves():
    """perfbench/tracer.py wraps functions by (module, attribute) after
    importing divaria.cli; a name that no longer resolves there (a deleted
    re-export, say) would stop the traced benchmark run, and nothing else
    in the suite reads that list."""
    import importlib
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location("_perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("divaria.cli")
    names = [(module, attr) for _name, module, attr, *_flags in tracer.TRACED]
    names += [(module, attr) for _name, module, attr in tracer.CACHES]
    assert names
    missing = []
    for module, attr in names:
        obj = sys.modules.get(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attr}")
    assert missing == []
