"""Report values returned by the verification routines."""

from __future__ import annotations


class Check:
    def __init__(self, name: str, passed: bool, details: str):
        self.name, self.passed, self.details = name, passed, details


class Report:
    """A named bundle of individual checks.  Truthy iff every check passed."""

    def __init__(self, name: str):
        self.name = name
        self.checks: list[Check] = []

    def add(self, name: str, passed: bool, details: str = "") -> None:
        self.checks.append(Check(name, bool(passed), details))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __bool__(self) -> bool:
        return self.passed

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    def summary(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"]
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            line = f"  {status:4} {c.name}"
            if c.details:
                line += f": {c.details}"
            lines.append(line)
        return "\n".join(lines)
