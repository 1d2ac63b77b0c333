"""The analysis driver: discover, parse, check, suppress, report.

One :func:`analyze_paths` call walks the requested files/trees, parses
each module once, runs every registered checker over it, then applies
the two suppression layers in order:

1. inline ``# repro: ignore[CODE]`` comments (tracked — stale ones
   are themselves reported);
2. the committed baseline of grandfathered findings.

The result is an :class:`AnalysisReport` that renders as text or JSON
and knows its own exit code: ``0`` clean, ``1`` findings, ``2`` a file
failed to parse.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .baseline import Baseline, BaselineResult
from .checkers import all_checkers
from .checkers.base import Checker, Module
from .findings import Finding, ModuleReport
from .ignores import IgnoreMap

#: Directory names never descended into during discovery.
_SKIP_DIRS = {".git", "__pycache__", ".ruff_cache", ".pytest_cache",
              "build", "dist", ".eggs", "node_modules"}


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Python files under ``paths`` (files kept as-is), sorted."""
    found: List[Path] = []
    for path in paths:
        if path.is_file():
            found.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS
                           for part in candidate.parts):
                    found.append(candidate)
    unique: List[Path] = []
    seen = set()
    for path in found:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


@dataclass
class AnalysisReport:
    """Aggregated outcome of one analysis run."""

    modules: Tuple[ModuleReport, ...] = ()
    baseline: Optional[BaselineResult] = field(default=None)

    @property
    def findings(self) -> Tuple[Finding, ...]:
        """Non-suppressed findings, before baseline subtraction."""
        return tuple(f for report in self.modules
                     for f in report.findings)

    @property
    def effective(self) -> Tuple[Finding, ...]:
        """Findings that should fail the build."""
        if self.baseline is not None:
            return self.baseline.new
        return self.findings

    @property
    def errors(self) -> Tuple[ModuleReport, ...]:
        return tuple(report for report in self.modules
                     if report.error is not None)

    @property
    def unused_ignores(self) -> Tuple[Tuple[str, int, str], ...]:
        return tuple((report.path, line, code)
                     for report in self.modules
                     for line, code in report.unused_ignores)

    def exit_code(self) -> int:
        if self.errors:
            return 2
        if self.effective or self.unused_ignores:
            return 1
        return 0

    def render_text(self) -> str:
        lines: List[str] = []
        for report in self.errors:
            lines.append(f"{report.path}: error: {report.error}")
        for finding in self.effective:
            lines.append(finding.render())
        for path, line, code in self.unused_ignores:
            lines.append(f"{path}:{line}:1: unused-ignore "
                         f"# repro: ignore[{code}] suppresses nothing")
        checked = len(self.modules)
        suppressed = sum(len(report.ignored)
                         for report in self.modules)
        summary = (f"{checked} module(s) checked, "
                   f"{len(self.effective)} finding(s)")
        if suppressed:
            summary += f", {suppressed} inline-ignored"
        if self.baseline is not None:
            summary += f", {len(self.baseline.matched)} baselined"
            if self.baseline.stale:
                summary += (f" ({len(self.baseline.stale)} stale "
                            "baseline entr(y/ies) — fixed findings, "
                            "remove them)")
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "modules_checked": len(self.modules),
            "findings": [f.to_dict() for f in self.effective],
            "inline_ignored": [f.to_dict() for report in self.modules
                               for f in report.ignored],
            "unused_ignores": [
                {"path": path, "line": line, "code": code}
                for path, line, code in self.unused_ignores],
            "errors": [{"path": report.path, "error": report.error}
                       for report in self.errors],
            "exit_code": self.exit_code(),
        }
        if self.baseline is not None:
            payload["baselined"] = [f.to_dict()
                                    for f in self.baseline.matched]
            payload["stale_baseline"] = [list(key) for key
                                         in self.baseline.stale]
        return json.dumps(payload, indent=2, sort_keys=True)


def _relative_path(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        with suppress(ValueError):
            return path.resolve().relative_to(
                root.resolve()).as_posix()
    return path.as_posix()


def check_module(module: Module,
                 checkers: Sequence[Checker]) -> ModuleReport:
    """Run ``checkers`` over one parsed module and apply its ignores."""
    ignores = IgnoreMap.from_source(module.source)
    kept: List[Finding] = []
    ignored: List[Finding] = []
    for checker in checkers:
        if not checker.applies_to(module.path):
            continue
        for finding in checker.check(module):
            if ignores.suppresses(finding.line, finding.code):
                ignored.append(finding)
            else:
                kept.append(finding)
    return ModuleReport(path=module.path,
                        findings=tuple(sorted(kept)),
                        ignored=tuple(sorted(ignored)),
                        unused_ignores=tuple(ignores.unused()))


def analyze_source(path: str, source: str,
                   checkers: Optional[Sequence[Checker]] = None,
                   ) -> ModuleReport:
    """Analyze one in-memory module (the test/doctest entry point)."""
    if checkers is None:
        checkers = all_checkers()
    try:
        module = Module.parse(path, source)
    except SyntaxError as exc:
        return ModuleReport(
            path=path,
            error=f"syntax error: {exc.msg} (line {exc.lineno})")
    return check_module(module, checkers)


def analyze_paths(paths: Sequence[Path],
                  root: Optional[Path] = None,
                  baseline: Optional[Baseline] = None,
                  checkers: Optional[Sequence[Checker]] = None,
                  ) -> AnalysisReport:
    """Analyze files/directories and fold in the baseline, if any."""
    if checkers is None:
        checkers = all_checkers()
    reports: List[ModuleReport] = []
    for file_path in discover_files(paths):
        rel = _relative_path(file_path, root)
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            reports.append(ModuleReport(path=rel, error=str(exc)))
            continue
        reports.append(analyze_source(rel, source, checkers))
    result: Optional[BaselineResult] = None
    if baseline is not None:
        live = [f for report in reports for f in report.findings]
        result = baseline.apply(live)
    return AnalysisReport(modules=tuple(reports), baseline=result)
