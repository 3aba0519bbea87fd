"""Persistence of diagnostics, scenario verdicts, run manifests and field
snapshots, in stable bit-exact formats."""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .observables import DiagnosticsRecord

FIELD_MAGIC = b"OUNLSFIELDSNAP01"  # 16 bytes

COMPARATORS = ("<", "<=", ">=", "==", "in", "finite", "increasing", "decreasing")


class OutputError(OSError):
    """Unwritable or unreadable output target (exit-code-3 semantics)."""


@dataclass
class Check:
    """One verdict and the gate it was decided by, so that a reader can
    recompute it: ``value <comparator> limit`` for "<", "<=", ">=", "==";
    "in" takes ``limit`` as the closed interval (lo, hi); "finite" needs no
    limit; "increasing" and "decreasing" mean the report's rows must be
    strictly monotone, with ``value`` and ``limit`` summarising them."""

    name: str
    passed: bool
    value: float
    limit: float | tuple[float, float]
    note: str = ""
    comparator: str = "<="

    @property
    def gate(self) -> str:
        if self.comparator == "in":
            lo, hi = self.limit
            return f"in [{lo:.6g}, {hi:.6g}]"
        if self.comparator == "finite":
            return "finite"
        if self.comparator in ("increasing", "decreasing"):
            return f"rows strictly {self.comparator}"
        return f"{self.comparator} {self.limit:.6g}"


@dataclass
class Report:
    scenario: str
    checks: list[Check] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)  # arrays for optional persistence

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, value, limit, note="", comparator="<=") -> Check:
        if comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator {comparator!r}; expected one of {COMPARATORS}")
        limit = tuple(map(float, limit)) if comparator == "in" else float(limit)
        check = Check(name, bool(passed), float(value), limit, note, comparator)
        self.checks.append(check)
        return check


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: str, payload: bytes):
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def diagnostics_csv_bytes(records: list[DiagnosticsRecord]) -> bytes:
    """One row per record, the columns in ``CSV_FIELDS`` order."""
    return rows_csv_bytes([asdict(rec) for rec in records])


def emit_diagnostics(records: list[DiagnosticsRecord], path: str) -> str:
    """Write the diagnostics table: pinned header, one row per sample, full
    double precision, nonfinite values serialized as literal nan/inf."""
    if not records:
        raise ValueError("no diagnostics records to emit")
    _atomic_write(path, diagnostics_csv_bytes(records))
    return path


def verdict_lines(report: Report) -> bytes:
    lines = []
    for c in report.checks:
        lines.append(
            json.dumps(
                {
                    "scenario": report.scenario,
                    "check": c.name,
                    "passed": c.passed,
                    "value": c.value,
                    "limit": c.limit,
                    "comparator": c.comparator,
                    "note": c.note,
                },
                sort_keys=True,
            )
        )
    return ("\n".join(lines) + "\n").encode()


def emit_report(report: Report, path: str) -> str:
    _atomic_write(path, verdict_lines(report))
    return path


def rows_csv_bytes(rows: list[dict]) -> bytes:
    """Delimiter-separated rows (deterministic ordering; heterogeneous rows
    leave missing cells empty)."""
    keys = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    lines = [",".join(keys)]
    for row in rows:
        cells = []
        for key in keys:
            value = row.get(key)
            if value is None:
                cells.append("")
            elif isinstance(value, (int, float)):
                cells.append(_fmt(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def emit_rows(rows: list[dict], path: str) -> str:
    if not rows:
        raise ValueError("no rows to emit")
    _atomic_write(path, rows_csv_bytes(rows))
    return path


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_dir: str,
    resolved_config: dict,
    seed: int,
    started: float,
    output_files: list[str],
    version: str,
) -> str:
    """Atomic once-per-run manifest with content hashes of all outputs."""
    manifest = {
        "tool_version": version,
        "config": resolved_config,
        "seed": seed,
        "started_unix": started,
        "ended_unix": time.time(),
        "outputs": {os.path.basename(p): file_sha256(p) for p in output_files},
    }
    path = os.path.join(out_dir, "manifest.json")
    _atomic_write(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return path


def save_field(path: str, data: np.ndarray):
    """Flat binary snapshot: 16-byte magic, int64-LE rank and sizes, then
    row-major complex doubles."""
    arr = np.ascontiguousarray(data, dtype=np.complex128)
    header = FIELD_MAGIC + struct.pack("<q", arr.ndim)
    header += struct.pack(f"<{arr.ndim}q", *arr.shape)
    _atomic_write(path, header + arr.tobytes())


def load_field(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    if blob[:16] != FIELD_MAGIC:
        raise OutputError(f"{path} is not a field snapshot (bad magic)")
    (ndim,) = struct.unpack_from("<q", blob, 16)
    shape = struct.unpack_from(f"<{ndim}q", blob, 24)
    offset = 24 + 8 * ndim
    data = np.frombuffer(blob, dtype=np.complex128, offset=offset)
    return data.reshape(shape).copy()
