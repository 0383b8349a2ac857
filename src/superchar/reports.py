"""Small structured pass/fail reports used by validation routines."""

from __future__ import annotations


class Check:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name, self.ok, self.detail = name, ok, detail

    def to_json(self):
        out = {"name": self.name, "ok": self.ok}
        if self.detail:
            out["detail"] = self.detail
        return out


class CheckReport:
    """An ordered list of named checks; carries failures instead of raising."""

    __slots__ = ("subject", "checks", "notes")

    def __init__(self, subject: str):
        self.subject = subject
        self.checks: list[Check] = []
        self.notes: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), detail))
        return bool(ok)

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def to_json(self):
        out = {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def __str__(self) -> str:
        lines = [f"[{'ok' if self.ok else 'FAIL'}] {self.subject}"]
        for c in self.checks:
            mark = "pass" if c.ok else "FAIL"
            suffix = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  {mark:4s}  {c.name}{suffix}")
        for n in self.notes:
            lines.append(f"  note  {n}")
        return "\n".join(lines)
