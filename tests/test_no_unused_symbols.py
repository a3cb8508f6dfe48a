"""A guard on dead code: every top-level function, class and assigned name
(a constant, type alias or table) in ``src/crashcheck``, except
``__version__``, and every method that is not a dunder, must be named by
code in ``src/`` outside its own definition, and every parameter of a
function must be read in its body.  A guard on side channels: no function
sets an attribute of a parameter other than a method's receiver, so what a
call gives back travels as its return value.  Names are read from the syntax tree,
so docstrings, comments and import lists do not count as uses; a symbol
that only tests or re-exports reach fails here.  The same guard keeps every
top-level function in ``tests/helpers.py`` named by a test module or by
another helper, so a deleted test leaves no orphan helper behind."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "crashcheck"


def _names_used(node: ast.AST) -> Counter:
    """Every identifier ``node`` names, keyed ``name`` for a variable and
    ``.name`` for an attribute."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used["." + sub.attr] += 1
    return used


def _definitions(tree: ast.Module):
    """(qualified name, the keys a use of it is counted under, node) of
    each top-level function, class and assigned name and of each non-dunder
    method.  A method is only ever reached as an attribute; a local variable
    of the same name does not use it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, (node.name, "." + node.name), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", ("." + item.name,), item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (sub for target in targets for sub in ast.walk(target)):
                if isinstance(name, ast.Name) and name.id != "__version__":
                    yield name.id, (name.id, "." + name.id), node


def test_every_symbol_in_src_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, keys, node in _definitions(tree):
            own = _names_used(node)
            if not any(used[key] > own[key] for key in keys):
                unused.append(f"{module}:{qualname}")
    assert unused == []


def test_every_test_helper_is_used_by_a_test_or_another_helper():
    helpers = ast.parse((TESTS / "helpers.py").read_text())
    used = sum((_names_used(ast.parse(path.read_text())) for path in sorted(TESTS.glob("*.py"))), Counter())
    orphans = [
        node.name
        for node in helpers.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and used[node.name] <= _names_used(node)[node.name]
    ]
    assert orphans == []


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, node, whether it is a method) of every function
    and lambda under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child, isinstance(node, ast.ClassDef)
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            if isinstance(child, ast.Lambda):
                yield prefix + "<lambda>", child, False
            yield from _functions(child, prefix)


def _parameters_and_bodies():
    """(path, qualified name, parameter names, every node of the body) of
    every function, method and lambda in ``src/``; a method's receiver is
    not among its parameters."""
    for path in sorted(SRC.glob("*.py")):
        for qualname, node, method in _functions(ast.parse(path.read_text())):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            yield path, qualname, [p.arg for p in params[method:]], [sub for stmt in body for sub in ast.walk(stmt)]


def test_every_parameter_in_src_is_read():
    """Every parameter of a function, method or lambda, except a method's
    receiver, is read in its body.  ``MemImage.digest`` takes ``fragments``
    only to share ``FsImage.digest``'s signature: ``test_groups`` calls
    ``digest`` on either image type."""
    unread = []
    for path, qualname, params, body in _parameters_and_bodies():
        read = {sub.id for sub in body if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unread += [f"{path.name}:{qualname}({p})" for p in params if p not in read]
    assert unread == ["simulate.py:MemImage.digest(fragments)"]


def test_no_function_in_src_sets_an_attribute_of_its_parameters():
    """A value one function hands another travels as an argument or a
    return value, never as an attribute that one sets on the other's
    object (counts kept on a stats object passed in, a read log left on
    the checker): such a side channel is right only when the calls come in
    one fixed order.  A method's receiver is excepted; a nested function's
    assignments count for its parents too."""
    sets = [
        f"{path.name}:{qualname}({sub.value.id}.{sub.attr})"
        for path, qualname, params, body in _parameters_and_bodies()
        for sub in body
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
        and isinstance(sub.value, ast.Name) and sub.value.id in params
    ]
    assert sets == []
