"""Verification reports: one clause per checked claim, JSON-serialisable."""

from __future__ import annotations

from collections import namedtuple


class Clause(namedtuple("Clause", "id claim expected computed passed")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "claim": self.claim,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
        }


class Report:
    __slots__ = ("name", "clauses")

    def __init__(self, name: str, clauses: list[Clause]):
        self.name = name
        self.clauses = clauses

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
