"""Shared AST plumbing for the invariant checkers.

Python's :mod:`ast` gives children, not parents; every checker here
reasons "upward" (is this write inside a ``with self._lock`` block?
what class owns this method?), so :func:`attach_parents` stamps a
parent pointer on every node once per module and the helpers below
walk it. Nothing in this module knows about any specific invariant.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple, Type

_PARENT = "_repro_parent"


def attach_parents(tree: ast.AST) -> ast.AST:
    """Stamp a parent pointer on every node (idempotent)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, _PARENT, node)
    return tree


def parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, _PARENT, None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """The chain of enclosing nodes, innermost first."""
    current = parent(node)
    while current is not None:
        yield current
        current = parent(current)


def enclosing(node: ast.AST,
              kinds: Tuple[Type[ast.AST], ...]) -> Optional[ast.AST]:
    """Nearest ancestor of one of ``kinds``, or ``None``."""
    for ancestor in ancestors(node):
        if isinstance(ancestor, kinds):
            return ancestor
    return None


FUNCTION_KINDS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPE_KINDS = FUNCTION_KINDS + (ast.ClassDef,)


def enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    return enclosing(node, FUNCTION_KINDS)


def enclosing_class(node: ast.AST) -> Optional[ast.ClassDef]:
    found = enclosing(node, (ast.ClassDef,))
    return found if isinstance(found, ast.ClassDef) else None


def scope_qualname(node: ast.AST) -> str:
    """Dotted qualname of the scopes enclosing ``node``.

    ``Daemon.start`` for a statement in a method, ``_fetch`` for one
    in a module function, ``""`` at module level. The node itself
    contributes when it *is* a scope.
    """
    parts: List[str] = []
    current: Optional[ast.AST] = node
    while current is not None:
        if isinstance(current, SCOPE_KINDS):
            parts.append(current.name)
        current = parent(current)
    return ".".join(reversed(parts))


def is_self_attribute(node: ast.AST,
                      self_name: str = "self") -> Optional[str]:
    """``attr`` when ``node`` is ``self.attr``, else ``None``."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == self_name:
        return node.attr
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``"a.b.c"`` for nested Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call target (``"threading.Lock"``)."""
    return dotted_name(node.func)


#: Method names that mutate their receiver in place — used to treat
#: ``self.pending.append(x)`` as a write to ``pending``.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "add", "discard", "setdefault", "move_to_end", "sort",
    "reverse", "appendleft", "extendleft", "popleft",
})


def statement_of(node: ast.AST) -> Optional[ast.stmt]:
    """The smallest enclosing statement (the node itself if one)."""
    current: Optional[ast.AST] = node
    while current is not None and not isinstance(current, ast.stmt):
        current = parent(current)
    return current


def withs_containing(node: ast.AST) -> Iterator[ast.With]:
    """Enclosing ``with`` statements whose *body* contains ``node``.

    A node inside a ``with`` statement's context expressions (the
    ``withitem`` side of the colon) is not "inside" the block, so the
    walk checks which side of each ancestor the path came through.
    """
    below: ast.AST = node
    for ancestor in ancestors(node):
        if isinstance(ancestor, ast.With) \
                and any(entry is below for entry in ancestor.body):
            yield ancestor
        below = ancestor
