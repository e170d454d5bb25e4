"""Suppression pragmas: ``# repro: allow[RULE] -- reason``.

A pragma grants one source line an exemption from named rules, and the
reason is mandatory — an allowlist entry without a rationale is itself a
finding.  Pragmas are read from real COMMENT tokens (via ``tokenize``),
so pragma-shaped text inside string literals is inert.

Placement:

* trailing — ``started = time.time()  # repro: allow[DET001] -- elapsed``
  suppresses findings anchored on that physical line;
* standalone — a pragma alone on its line covers the next line that
  holds code (useful when the annotated statement is already long).

Malformed pragmas (bad syntax, missing ``-- reason``) are reported as
``PRAGMA001`` and cannot be suppressed; the engine adds PRAGMA001 for
unknown rule ids and, on full-rule runs, for pragmas that suppressed
nothing — so stale allowlist entries rot loudly, not silently.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .report import Finding

PRAGMA_RULE = "PRAGMA001"

_PRAGMA_HEAD = re.compile(r"#\s*repro:\s*(?P<body>.*)$")
_PRAGMA_BODY = re.compile(
    r"^allow\[(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)\]"
    r"\s*--\s*(?P<reason>\S.*)$"
)


@dataclass
class Pragma:
    """One parsed ``allow`` pragma and the line it shields."""

    line: int  # physical line of the comment token
    target: int  # line whose findings it suppresses
    rules: Tuple[str, ...]
    reason: str
    used: bool = field(default=False, compare=False)

    def covers(self, rule: str) -> bool:
        return rule in self.rules


def _comment_tokens(source: str) -> List[tokenize.TokenInfo]:
    try:
        return [
            token
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The engine only tokenizes sources that already parsed with
        # ast.parse, so this is unreachable in practice; stay defensive.
        return []


def extract_pragmas(source: str, path: str) -> Tuple[List[Pragma], List[Finding]]:
    """Parse all pragmas in ``source``.

    Returns ``(pragmas, malformed)`` where ``malformed`` are PRAGMA001
    findings for comments that invoke the pragma namespace but do not
    parse (wrong shape, missing reason).
    """

    pragmas: List[Pragma] = []
    malformed: List[Finding] = []
    lines = source.splitlines()
    for token in _comment_tokens(source):
        head = _PRAGMA_HEAD.match(token.string.strip())
        if head is None:
            continue
        line, col = token.start
        body = _PRAGMA_BODY.match(head.group("body").strip())
        if body is None:
            malformed.append(
                Finding(
                    rule=PRAGMA_RULE,
                    path=path,
                    line=line,
                    col=col,
                    message=(
                        "malformed pragma: expected "
                        "'# repro: allow[RULE,...] -- reason' "
                        "(the reason is mandatory)"
                    ),
                )
            )
            continue
        rules = tuple(part.strip() for part in body.group("rules").split(","))
        before = lines[line - 1][: token.start[1]] if line <= len(lines) else ""
        standalone = not before.strip()
        target = _next_code_line(lines, line) if standalone else line
        pragmas.append(
            Pragma(
                line=line,
                target=target,
                rules=rules,
                reason=body.group("reason").strip(),
            )
        )
    return pragmas, malformed


def _next_code_line(lines: List[str], comment_line: int) -> int:
    """First line after ``comment_line`` that holds code (1-based).

    Skips blanks and further comment-only lines so standalone pragmas
    can be stacked above the statement they shield.  Falls back to the
    comment's own line at EOF (the pragma then shields nothing and the
    unused-pragma check flags it).
    """

    for offset, text in enumerate(lines[comment_line:], start=comment_line + 1):
        stripped = text.strip()
        if stripped and not stripped.startswith("#"):
            return offset
    return comment_line


class PragmaSheet:
    """All pragmas of one module, indexed by the line they shield."""

    def __init__(self, pragmas: List[Pragma], malformed: List[Finding]):
        self.pragmas = pragmas
        self.malformed = malformed
        self._by_target: Dict[int, List[Pragma]] = {}
        for pragma in pragmas:
            self._by_target.setdefault(pragma.target, []).append(pragma)

    @classmethod
    def from_source(cls, source: str, path: str) -> "PragmaSheet":
        return cls(*extract_pragmas(source, path))

    def suppressing(self, line: int, rule: str) -> Optional[Pragma]:
        for pragma in self._by_target.get(line, ()):
            if pragma.covers(rule):
                return pragma
        return None

    def unused(self) -> List[Pragma]:
        return [pragma for pragma in self.pragmas if not pragma.used]
