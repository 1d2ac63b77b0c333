"""RPA001 — lock discipline for shared mutable state.

The daemon/transport/metrics layers all follow the same convention: a
class (or module) that owns a ``threading.Lock``/``Condition`` mutates
its shared attributes only while holding it. This checker infers which
attributes the code *treats* as lock-guarded — any attribute written at
least once inside ``with self._lock:`` — and then flags writes to those
same attributes that can run without the lock.

Two refinements keep this precise on real code:

* **Mutating calls are writes.** ``self._pending.append(req)`` mutates
  ``_pending`` just as surely as assignment, so method calls from
  :data:`~repro.analysis.astutil.MUTATING_METHODS` count.
* **Lock-held helpers.** ``serve()`` takes the lock and calls
  ``self._dispatch()``, which writes ``self.data`` lexically outside
  any ``with``. A private method whose in-class call sites *all* run
  under the lock is inferred lock-held (to a fixed point, so helpers
  calling helpers resolve), and its writes count as guarded.

``__init__`` (and other construction hooks) are exempt: no other
thread can hold a reference yet. The same analysis runs at module
level for ``_FOO_LOCK``-style globals, where only ``global``-declared
assignments and in-place mutations of module names count as writes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..astutil import (FUNCTION_KINDS, MUTATING_METHODS, call_name,
                       dotted_name, enclosing_class, enclosing_function,
                       is_self_attribute, parent, withs_containing)
from ..findings import Finding
from .base import Checker, Module, register_checker

#: Constructors whose result is a lock in the ``with`` sense.
_LOCK_FACTORIES = ("Lock", "RLock", "Condition", "Semaphore",
                   "BoundedSemaphore")

#: Methods where unguarded writes are fine: the object is not yet (or
#: no longer) shared with other threads.
_CONSTRUCTION_METHODS = {"__init__", "__new__", "__post_init__",
                         "__getstate__", "__setstate__",
                         "__init_subclass__"}


def _is_lock_factory(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    if name is None:
        return False
    leaf = name.rsplit(".", 1)[-1]
    return leaf in _LOCK_FACTORIES


class _Write:
    """One attribute write: target name, AST site, owning method."""

    __slots__ = ("attr", "node", "func")

    def __init__(self, attr: str, node: ast.AST,
                 func: Optional[ast.AST]):
        self.attr = attr
        self.node = node
        self.func = func


def _class_methods(cls: ast.ClassDef) -> List[ast.AST]:
    return [stmt for stmt in cls.body
            if isinstance(stmt, FUNCTION_KINDS)]


def _method_of(node: ast.AST, cls: ast.ClassDef) -> Optional[ast.AST]:
    """The *direct* method of ``cls`` containing ``node``, if any."""
    func = enclosing_function(node)
    while func is not None:
        if parent(func) is cls:
            return func
        func = enclosing_function(func)
    return None


def _written_attr(target: ast.AST) -> Optional[str]:
    """The ``self`` attribute a store target mutates, if any.

    ``self.entries[k] = v`` and ``self.grid[i][j] = v`` mutate
    ``entries``/``grid`` just as ``self.entries = {}`` does, so
    subscript chains unwrap to the underlying attribute.
    """
    while isinstance(target, ast.Subscript):
        target = target.value
    return is_self_attribute(target)


def _self_attr_writes(cls: ast.ClassDef) -> List[_Write]:
    writes: List[_Write] = []
    for node in ast.walk(cls):
        if enclosing_class(node) is not cls:
            continue
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets
                       if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                attr = _written_attr(target)
                if attr is not None:
                    writes.append(_Write(attr, node,
                                         _method_of(node, cls)))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATING_METHODS:
            attr = is_self_attribute(node.func.value)
            if attr is not None:
                writes.append(_Write(attr, node,
                                     _method_of(node, cls)))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _written_attr(target)
                if attr is not None:
                    writes.append(_Write(attr, node,
                                         _method_of(node, cls)))
    return writes


def _lexically_locked(node: ast.AST, lock_attrs: Set[str]) -> bool:
    for with_node in withs_containing(node):
        for item in with_node.items:
            attr = is_self_attribute(item.context_expr)
            if attr in lock_attrs:
                return True
    return False


def _self_method_calls(cls: ast.ClassDef) -> Dict[str, List[ast.Call]]:
    calls: Dict[str, List[ast.Call]] = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            attr = is_self_attribute(node.func)
            if attr is not None:
                calls.setdefault(attr, []).append(node)
    return calls


def _infer_lock_held_methods(cls: ast.ClassDef,
                             lock_attrs: Set[str]) -> Set[str]:
    """Private methods whose every in-class call site holds the lock.

    Fixed point: a call site counts as locked when it is lexically
    under ``with self._lock`` *or* sits inside a method already known
    to be lock-held, so chains like ``serve -> _dispatch ->
    _dispatch_testing`` resolve.
    """
    methods = {m.name: m for m in _class_methods(cls)}
    calls = _self_method_calls(cls)
    candidates = {name for name in methods
                  if name.startswith("_")
                  and not name.startswith("__")
                  and calls.get(name)}
    held: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name in sorted(candidates - held):
            sites = calls[name]
            if all(_site_locked(site, cls, lock_attrs, held)
                   for site in sites):
                held.add(name)
                changed = True
    return held


def _mixed_call_methods(cls: ast.ClassDef, lock_attrs: Set[str],
                        held: Set[str]) -> Set[str]:
    """Private methods called both with and without the lock held."""
    methods = {m.name for m in _class_methods(cls)}
    calls = _self_method_calls(cls)
    mixed: Set[str] = set()
    for name, sites in calls.items():
        if name not in methods or not name.startswith("_") \
                or name.startswith("__") or name in held:
            continue
        locked = sum(1 for site in sites
                     if _site_locked(site, cls, lock_attrs, held))
        if 0 < locked < len(sites):
            mixed.add(name)
    return mixed


def _site_locked(site: ast.AST, cls: ast.ClassDef,
                 lock_attrs: Set[str], held: Set[str]) -> bool:
    if _lexically_locked(site, lock_attrs):
        return True
    method = _method_of(site, cls)
    return method is not None and method.name in held


@register_checker
class LockDisciplineChecker(Checker):
    CODE = "RPA001"
    NAME = "lock-discipline"
    RATIONALE = ("attributes mutated under a lock anywhere must be "
                 "mutated under it everywhere (races are silent)")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)
        yield from self._check_module_level(module)

    # ----- class-level -------------------------------------------------

    def _check_class(self, module: Module,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        writes = _self_attr_writes(cls)
        lock_attrs = {w.attr for w in writes
                      if isinstance(w.node, ast.Assign)
                      and _is_lock_factory(w.node.value)}
        if not lock_attrs:
            return
        held = _infer_lock_held_methods(cls, lock_attrs)
        mixed = _mixed_call_methods(cls, lock_attrs, held)

        def guarded(write: _Write) -> bool:
            if _lexically_locked(write.node, lock_attrs):
                return True
            return write.func is not None and write.func.name in held

        def in_mixed(write: _Write) -> bool:
            return write.func is not None and write.func.name in mixed

        relevant = [w for w in writes
                    if w.attr not in lock_attrs
                    and not (w.func is not None and w.func.name
                             in _CONSTRUCTION_METHODS)]
        # A write inside a mixed-discipline helper is lock-guarded on
        # some call paths: evidence the attribute is meant to be
        # guarded, and a violation on the unlocked paths.
        guarded_attrs = {w.attr for w in relevant
                         if guarded(w) or in_mixed(w)}
        for write in relevant:
            if write.attr not in guarded_attrs or guarded(write):
                continue
            func_name = write.func.name if write.func else "?"
            lock = sorted(lock_attrs)[0]
            if in_mixed(write):
                message = (
                    f"attribute '{write.attr}' of class '{cls.name}' "
                    f"is written in '{func_name}', which is called "
                    f"both with and without 'self.{lock}' held")
            else:
                message = (
                    f"attribute '{write.attr}' of class "
                    f"'{cls.name}' is mutated under 'self.{lock}' "
                    f"elsewhere but written here without holding it")
            yield self.finding(
                module, write.node, message,
                scope=f"{cls.name}.{func_name}",
                detail=write.attr)

    # ----- module-level ------------------------------------------------

    def _check_module_level(self,
                            module: Module) -> Iterator[Finding]:
        tree = module.tree
        lock_names: Set[str] = set()
        module_names: Set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        module_names.add(target.id)
                        if _is_lock_factory(stmt.value):
                            lock_names.add(target.id)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) \
                    and isinstance(stmt.target, ast.Name):
                module_names.add(stmt.target.id)
        if not lock_names:
            return
        writes = self._module_writes(tree, module_names, lock_names)
        held = self._infer_lock_held_functions(tree, lock_names)

        def guarded(write: Tuple[str, ast.AST,
                                 Optional[ast.AST]]) -> bool:
            _, node, func = write
            if self._module_locked(node, lock_names):
                return True
            return func is not None and func.name in held

        guarded_names = {name for write in writes if guarded(write)
                         for name in [write[0]]}
        for write in writes:
            name, node, func = write
            if name in guarded_names and not guarded(write):
                lock = sorted(lock_names)[0]
                yield self.finding(
                    module, node,
                    f"module global '{name}' is mutated under "
                    f"'{lock}' elsewhere but written here without "
                    f"holding it",
                    scope=func.name if func else "",
                    detail=name)

    @staticmethod
    def _module_locked(node: ast.AST, lock_names: Set[str]) -> bool:
        for with_node in withs_containing(node):
            for item in with_node.items:
                name = dotted_name(item.context_expr)
                if name in lock_names:
                    return True
        return False

    @staticmethod
    def _module_writes(tree: ast.Module, module_names: Set[str],
                       lock_names: Set[str],
                       ) -> List[Tuple[str, ast.AST,
                                       Optional[ast.AST]]]:
        """Writes to module globals inside functions.

        Plain ``name = ...`` inside a function only rebinds the global
        when the function declares ``global name``; in-place mutations
        (``_CACHE.pop(...)``, ``_CACHE[k] = v``) always hit the module
        object. Module top-level assignments are initialisation and
        never count.
        """
        writes: List[Tuple[str, ast.AST, Optional[ast.AST]]] = []
        globals_by_func: Dict[ast.AST, Set[str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                func = enclosing_function(node)
                if func is not None:
                    globals_by_func.setdefault(func, set()).update(
                        node.names)
        for node in ast.walk(tree):
            func = enclosing_function(node)
            if func is None:
                continue
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) \
                            and target.id in module_names \
                            and target.id not in lock_names \
                            and target.id in globals_by_func.get(
                                func, set()):
                        writes.append((target.id, node, func))
                    elif isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in module_names \
                            and target.value.id not in lock_names:
                        writes.append((target.value.id, node, func))
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Name) \
                        and target.id in module_names \
                        and target.id not in lock_names \
                        and target.id in globals_by_func.get(
                            func, set()):
                    writes.append((target.id, node, func))
                elif isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in module_names:
                    writes.append((target.value.id, node, func))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATING_METHODS \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in module_names:
                writes.append((node.func.value.id, node, func))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in module_names:
                        writes.append((target.value.id, node, func))
        return writes

    def _infer_lock_held_functions(self, tree: ast.Module,
                                   lock_names: Set[str]) -> Set[str]:
        functions = {stmt.name: stmt for stmt in tree.body
                     if isinstance(stmt, FUNCTION_KINDS)}
        calls: Dict[str, List[ast.Call]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in functions:
                calls.setdefault(node.func.id, []).append(node)
        candidates = {name for name in functions
                      if name.startswith("_") and calls.get(name)}
        held: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name in sorted(candidates - held):
                ok = True
                for site in calls[name]:
                    if self._module_locked(site, lock_names):
                        continue
                    func = enclosing_function(site)
                    # Ascend to the module-level function owning the
                    # call site.
                    while func is not None \
                            and enclosing_function(func) is not None:
                        func = enclosing_function(func)
                    if func is None or func.name not in held:
                        ok = False
                        break
                if ok:
                    held.add(name)
                    changed = True
        return held
