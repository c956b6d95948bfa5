"""Verification reports: one clause per checked claim, JSON-serialisable."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Clause:
    id: str
    claim: str
    expected: str
    computed: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "claim": self.claim,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
        }


@dataclass
class Report:
    name: str
    clauses: list[Clause]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "pass": self.passed,
            "clauses": [c.to_dict() for c in self.clauses],
        }

    def text_lines(self) -> list[str]:
        lines = []
        for c in self.clauses:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {self.name}.{c.id}: {c.claim} (expected {c.expected}, got {c.computed})")
        tag = "PASS" if self.passed else "FAIL"
        lines.append(f"[{tag}] suite {self.name}")
        return lines


def check(cid: str, claim: str, expected, computed) -> Clause:
    """Clause comparing expected and computed by equality."""
    return Clause(cid, claim, str(expected), str(computed), expected == computed)
