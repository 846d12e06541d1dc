"""The one report type every verifier returns, and the content digest of the
CLI's reports.

A report is a verdict scoped by the bounds it was checked under: its kind,
the verdict, the bounds, a witness (the collision, violation or dependency
that decided it, or None) and details (counts and descriptive data). The
verdicts map to the CLI's exit codes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

VERIFIED = "verified-up-to-bound"
COUNTEREXAMPLE = "counterexample"
INCONCLUSIVE = "inconclusive-at-D"

_EXIT_CODES = {VERIFIED: 0, COUNTEREXAMPLE: 2, INCONCLUSIVE: 3}


@dataclass
class Report:
    kind: str
    verdict: str
    bounds: dict
    witness: object = None
    details: dict = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return self.verdict == VERIFIED

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.verdict]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "bounds": self.bounds,
            "witness": self.witness,
            "details": self.details,
        }


def outcome(kind: str, bounds: dict, witness, details: dict) -> Report:
    """The report of an exhaustive check: verified when it found no witness,
    otherwise a counterexample carrying it."""
    return Report(kind, VERIFIED if witness is None else COUNTEREXAMPLE, bounds, witness, details)


def digest(payload: dict) -> str:
    """Content digest of a report payload: everything but elapsed_ms and the
    digest itself, as compact sorted JSON, sha256, first 16 hex digits."""
    scrubbed = {k: v for k, v in payload.items() if k not in ("elapsed_ms", "digest")}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
