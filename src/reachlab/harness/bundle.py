"""Result bundles: the canonical on-disk record of one experiment run."""

import datetime
import json
import os
from dataclasses import asdict, dataclass, field

from .io import canonical_json, write_atomic


@dataclass(frozen=True)
class ResultBundle:
    """Everything a run produced, minus the large per-cell artifacts.

    All fields except ``timing`` are pure functions of (kind, config),
    which is what the determinism tests compare.  ``flags`` maps the key
    of every failed cell, whatever its sweep, to the domain error
    (``errors.DOMAIN_ERRORS``) that kept it from producing its result.
    """

    kind: str
    config: dict
    tool_version: str
    records: list
    summary: dict
    flags: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    def result_fields(self):
        d = self.to_dict()
        d.pop("timing")
        return d

    def save(self, out_dir):
        """Write bundle.json through a temp file, so it is never seen half written."""
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "bundle.json")
        write_atomic(path, canonical_json(self.to_dict()))
        return path

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            d = json.load(fh)
        return cls(
            d["kind"],
            d["config"],
            d["tool_version"],
            d["records"],
            d["summary"],
            d.get("flags", {}),
            d.get("timing", {}),
        )


def timing_stamp(t_start, t_end, workers, **extra):
    started = datetime.datetime.fromtimestamp(t_start, datetime.timezone.utc)
    return {
        "started_utc": started.isoformat(),
        "wall_seconds": float(t_end - t_start),
        "workers": int(workers),
        **extra,
    }
