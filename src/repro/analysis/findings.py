"""Findings, rule codes, and inline suppressions for :mod:`repro.analysis`.

Every check in the analyzer — the import-layering pass, the AST lint rules,
the engine-protocol introspection, and the runtime sanitizers — reports
through one shape: a :class:`Finding` with an ``RPR###`` code and
``file:line`` provenance.  That uniformity is what lets one CLI verb render,
JSON-encode, count, and gate all of them identically.

Suppressions are inline and *must* carry a reason::

    frontier = everything.astype(np.float64)  # repro: ignore[RPR201] output ABI

    # repro: ignore[RPR202] the registry itself spells its own names
    DEFAULT = "serpens-a16"

A marker on a code line suppresses findings on that line; a comment-only
marker line suppresses findings on the next code line (so long lines can
keep the 100-column limit).  A marker without a reason suppresses nothing
and is itself reported as :data:`RPR100`.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CODE_DESCRIPTIONS",
    "Finding",
    "SuppressionTable",
    "render_findings",
]

#: One-line rationale per rule code (also rendered by ``analyze --rules``).
CODE_DESCRIPTIONS: Dict[str, str] = {
    "RPR100": "suppression marker without a reason (reasons are mandatory)",
    "RPR101": "module-level import violates the declared layer DAG",
    "RPR102": "lazy (function-scoped) import of a fully forbidden layer",
    "RPR201": "float64 creep in a hot path (np.sum/np.dot/astype without fp32)",
    "RPR202": "hard-coded engine-name literal outside repro.backends",
    "RPR203": "mutable default argument",
    "RPR204": "registered engine does not conform to the SpMVEngine protocol",
    "RPR301": "unbalanced shared-memory segment lifecycle",
    "RPR302": "bounded-wait / lock-order violation",
}


@dataclass(frozen=True)
class Finding:
    """One analyzer finding with file:line provenance."""

    code: str
    path: str
    line: int
    message: str
    #: "static" for source-tree rules, "runtime" for sanitizer findings.
    source: str = "static"

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


_MARKER = re.compile(
    r"#\s*repro:\s*ignore\[(?P<codes>RPR\d{3}(?:\s*,\s*RPR\d{3})*)\]\s*(?P<reason>.*)"
)


@dataclass
class _Suppression:
    codes: Tuple[str, ...]
    reason: str
    marker_line: int
    used: bool = field(default=False)


class SuppressionTable:
    """Inline ``# repro: ignore[RPR###] reason`` markers of one file.

    Built once per file from its raw source lines; :meth:`suppresses` answers
    whether a given (code, line) finding is silenced.  Markers without a
    reason never silence anything and surface as ``RPR100`` findings via
    :meth:`violations`.
    """

    def __init__(self, path: str, lines: Sequence[str]) -> None:
        self.path = path
        self._by_line: Dict[int, _Suppression] = {}
        self._reasonless: List[int] = []
        pending: List[_Suppression] = []
        for lineno, text in enumerate(lines, start=1):
            stripped = text.strip()
            match = _MARKER.search(text)
            if match is not None:
                reason = match.group("reason").strip()
                if not reason:
                    self._reasonless.append(lineno)
                    continue
                codes = tuple(
                    c.strip() for c in match.group("codes").split(",") if c.strip()
                )
                suppression = _Suppression(codes, reason, marker_line=lineno)
                if stripped.startswith("#"):
                    # Comment-only marker: applies to the next code line.
                    pending.append(suppression)
                else:
                    self._by_line[lineno] = suppression
                continue
            if not stripped or stripped.startswith("#"):
                continue  # blank/comment lines keep pending markers alive
            for suppression in pending:
                self._by_line.setdefault(lineno, suppression)
            pending.clear()

    def suppresses(self, code: str, line: int) -> bool:
        suppression = self._by_line.get(line)
        if suppression is None or code not in suppression.codes:
            return False
        suppression.used = True
        return True

    def violations(self) -> List[Finding]:
        """RPR100 findings for reason-less markers in this file."""
        return [
            Finding(
                code="RPR100",
                path=self.path,
                line=lineno,
                message=(
                    "suppression without a reason; write "
                    "'# repro: ignore[RPR###] <why this is safe>'"
                ),
            )
            for lineno in self._reasonless
        ]


def render_findings(findings: Iterable[Finding], limit: Optional[int] = None) -> str:
    """Sorted, human-readable listing (path, then line, then code)."""
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.code))
    if limit is not None:
        ordered = ordered[:limit]
    return "\n".join(f.render() for f in ordered)
