"""Finding and report structures shared by the three analysis passes.

Every pass (CDG certification, topology invariants, code lint) produces a
list of :class:`Finding` values collected into a :class:`CheckReport`.
Only ``ERROR`` findings make the CI gate fail; ``WARNING`` and ``INFO``
are advisory (e.g. an unbalanced-but-legal dragonfly configuration).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: How one pass words its verdicts: the (code, message) of an unexpected
#: cycle, of a negative control's expected counterexample and of a
#: negative control certified clean.  The two cycle messages are
#: prefixes the counterexample text is appended to.
Wording = Tuple[Tuple[str, str], Tuple[str, str], Tuple[str, str]]


class Severity(enum.IntEnum):
    """Ordered severity of a finding (higher is worse)."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by an analysis pass.

    ``code`` is a stable machine-readable identifier (``CDG001``,
    ``TOP003``, ``REP002``, ...); ``location`` names what the finding is
    about -- a configuration name, a topology description, or a
    ``path:line`` pair for lint findings.
    """

    code: str
    severity: Severity
    location: str
    message: str

    def format(self) -> str:
        return f"{self.location}: {self.severity.label()} {self.code}: {self.message}"


@dataclass
class CheckReport:
    """All findings of one pass, plus bookkeeping for the CLI."""

    pass_name: str
    findings: List[Finding] = field(default_factory=list)
    #: One-line notes about what was analysed (verbose output).
    notes: List[str] = field(default_factory=list)

    def add(
        self,
        code: str,
        severity: Severity,
        location: str,
        message: str,
    ) -> None:
        self.findings.append(Finding(code, severity, location, message))

    def note(self, message: str) -> None:
        self.notes.append(message)

    def extend(self, findings: List[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True when the pass gates green (no ERROR findings)."""
        return not self.errors

    def format(self, verbose: bool = False) -> str:
        lines = []
        status = "ok" if self.ok else "FAILED"
        counts = _severity_counts(self.findings)
        lines.append(f"[{self.pass_name}] {status} ({counts})")
        if verbose:
            lines.extend(f"  {note}" for note in self.notes)
        shown = self.findings if verbose else [
            f for f in self.findings if f.severity >= Severity.WARNING
        ]
        lines.extend(f"  {finding.format()}" for finding in shown)
        return "\n".join(lines)


def _severity_counts(findings: List[Finding]) -> str:
    counts = {severity: 0 for severity in Severity}
    for finding in findings:
        counts[finding.severity] += 1
    return ", ".join(
        f"{count} {severity.label()}{'s' if count != 1 else ''}"
        for severity, count in sorted(counts.items(), reverse=True)
    )


def verdict(
    subject: str,
    expected: bool,
    certified: bool,
    counterexample: Optional[str],
    wording: Wording,
) -> List[Finding]:
    """The findings of one certificate, by the rule every pass shares.

    ``expected`` says whether ``subject`` is documented as deadlock-free
    and ``certified`` whether it was proved so.  A clean certificate
    that was expected gives nothing; a negative control that is refuted,
    as documented, gives its counterexample as INFO evidence; a control
    certified clean has rotted and an unexpected cycle is a deadlock,
    both errors.
    """
    cyclic, evidence, (rotted_code, rotted) = wording
    if certified:
        return [] if expected else [Finding(rotted_code, Severity.ERROR, subject, rotted)]
    code, prefix = cyclic if expected else evidence
    severity = Severity.ERROR if expected else Severity.INFO
    return [Finding(code, severity, subject, prefix + (counterexample or ""))]


def combined_exit_code(reports: List[CheckReport]) -> int:
    """0 when every pass gates green, 1 otherwise."""
    return 0 if all(report.ok for report in reports) else 1
