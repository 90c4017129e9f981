"""Structured pass/fail reporting for the verification pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    first_failure_order: int | None = None

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        extra = ""
        if not self.passed and self.first_failure_order is not None:
            extra = f" (first failure at order {self.first_failure_order})"
        return f"{self.name}: {status}{extra}"


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, first_failure_order=None):
        self.checks.append(CheckResult(name, passed, first_failure_order))

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def __str__(self):
        return "\n".join(self.lines())
