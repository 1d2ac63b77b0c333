"""Checker contract and registry.

A checker is a class with a ``CODE`` (``RPA###``), a one-line
``RATIONALE`` and a ``check(module)`` generator yielding
:class:`~repro.analysis.findings.Finding` objects. The engine
instantiates every registered checker once per run, hands each parsed
module to every checker whose :meth:`Checker.applies_to` accepts its
path, and owns suppression (inline ignores, baseline) — checkers just
report what they see.

Third-party/in-repo extension is one call::

    from repro.analysis import Checker, register_checker

    @register_checker
    class NoPrintChecker(Checker):
        CODE = "RPA901"
        RATIONALE = "library code must log, not print"

        def check(self, module):
            for node in ast.walk(module.tree):
                ...
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple, Type

from ..astutil import attach_parents
from ..findings import Finding


@dataclass
class Module:
    """One parsed source module as the checkers see it."""

    path: str                  #: posix path relative to the scan root
    source: str
    tree: ast.Module = field(repr=False)

    @classmethod
    def parse(cls, path: str, source: str) -> "Module":
        tree = ast.parse(source)
        attach_parents(tree)
        return cls(path=path, source=source, tree=tree)


class Checker:
    """Base class: one invariant, one code."""

    #: Finding code, unique per checker (``RPA001``...).
    CODE: str = "RPA000"
    #: Short name shown in ``repro analyze --help`` style listings.
    NAME: str = "unnamed"
    #: One line: why the invariant matters in this repo.
    RATIONALE: str = ""
    #: Posix path fragments this checker is limited to; empty means
    #: every module. Overridable per instance for tests.
    PATH_PREFIXES: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not self.PATH_PREFIXES:
            return True
        return any(prefix in path for prefix in self.PATH_PREFIXES)

    def check(self, module: Module) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: Module, node: ast.AST, message: str,
                scope: str = "", detail: str = "") -> Finding:
        return Finding(path=module.path,
                       line=getattr(node, "lineno", 0),
                       col=getattr(node, "col_offset", 0),
                       code=self.CODE, message=message,
                       scope=scope, detail=detail)


_REGISTRY: Dict[str, Type[Checker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding ``cls`` to the global registry.

    Codes are unique: re-registering an existing code replaces the
    previous checker only when it is the same class (idempotent
    re-import), otherwise it raises.
    """
    existing = _REGISTRY.get(cls.CODE)
    if existing is not None and existing.__qualname__ != cls.__qualname__:
        raise ValueError(
            f"checker code {cls.CODE} already registered by "
            f"{existing.__name__}")
    _REGISTRY[cls.CODE] = cls
    return cls


def registered_checkers() -> List[Type[Checker]]:
    """Registered checker classes, sorted by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def checker_table() -> List[Tuple[str, str, str]]:
    """``(code, name, rationale)`` rows for docs and ``--help``."""
    return [(cls.CODE, cls.NAME, cls.RATIONALE)
            for cls in registered_checkers()]
