"""Committed expected outputs, generated once under the pure backend.

``perfbench/oracle/<workload>.json`` holds, for every trace seed in
:data:`perfbench.workloads.TRACE_SEEDS`, the expected simulated
records of each sweep cell (``ResultSet.records``, compared one cell
at a time as canonical JSON) and, for ``fig8_cold``, a digest of the
Section-2 analyses of each trace.  ``ResultSet.to_json()`` is not
compared whole: it embeds trace-cache hit/miss counts, which differ
between a cold and a warm run of identical results.

Regenerate with ``python3 perfbench/run.py --regenerate-oracle``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Sequence

ORACLE_DIR = pathlib.Path(__file__).resolve().parent / "oracle"
ORACLE_BACKEND = "pure"
FORMAT = 1


def path(workload: str) -> pathlib.Path:
    return ORACLE_DIR / f"{workload}.json"


def load(workload: str, seed: int) -> dict:
    data = json.loads(path(workload).read_text(encoding="ascii"))
    if data.get("format") != FORMAT or data.get("backend") != ORACLE_BACKEND:
        raise ValueError(f"{path(workload)}: unexpected oracle header")
    try:
        return data["seeds"][str(seed)]
    except KeyError:
        raise ValueError(f"no oracle entry for {workload} seed {seed}")


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def mismatched_cells(expected: Sequence[dict], actual: Sequence[dict]) -> int:
    """Cells whose records differ, plus cells missing on either side."""
    differing = sum(
        canonical(want) != canonical(got)
        for want, got in zip(expected, actual)
    )
    return differing + abs(len(expected) - len(actual))


def write(workload: str, entries: Dict[int, dict]) -> None:
    """Write one workload's oracle, one record per line."""
    lines: List[str] = [
        "{", f'"backend": "{ORACLE_BACKEND}",', f'"format": {FORMAT},',
        '"seeds": {',
    ]
    for n, (seed, entry) in enumerate(sorted(entries.items())):
        lines.append(f'"{seed}": {{')
        if "analyses" in entry:
            lines.append(
                f'"analyses": {json.dumps(entry["analyses"], sort_keys=True)},'
            )
        lines.append('"records": [')
        records = entry["records"]
        lines.extend(
            canonical(record) + ("," if i < len(records) - 1 else "")
            for i, record in enumerate(records)
        )
        lines.append("]}" + ("," if n < len(entries) - 1 else ""))
    lines.append("}}")
    text = "\n".join(lines) + "\n"
    if json.loads(text)["seeds"][str(min(entries))] != entries[min(entries)]:
        raise RuntimeError("oracle writer does not round-trip")
    path(workload).write_text(text, encoding="ascii")
