"""Atomic filesystem writes shared by every on-disk store.

One discipline, used by the trace cache, the fabric work queue, and
the fabric result store: build the artifact in a uniquely-named
temporary sibling, then :func:`os.replace` it into place.  Readers
therefore only ever observe a file that is either absent or complete
— concurrent writers of the same path race benignly (last complete
write wins), and a crash mid-write leaves at worst a stale ``.tmp*``
sibling, never a torn artifact under the final name.

Torn artifacts can still appear through outside interference (a
partially-copied shared mount, ``dd`` mishaps, disk-full followed by
manual cleanup); stores treat any unparsable artifact as a *miss* and
heal it, which is why every reader in this codebase validates before
trusting.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
from typing import Any, Optional, Union

PathLike = Union[str, "os.PathLike[str]"]

#: Per-process counter so concurrent threads of one process never
#: collide on a temporary name (the pid alone distinguishes
#: processes, including workers on different hosts sharing a mount
#: only per-host — the counter plus pid keeps names unique enough for
#: same-directory siblings, and os.replace makes collisions benign).
_SEQUENCE = itertools.count()


def tmp_sibling(path: PathLike) -> pathlib.Path:
    """A unique temporary path in the same directory as ``path``.

    Same-directory placement matters: :func:`os.replace` is only
    atomic within one filesystem, and sibling naming keeps the
    temporary visible to cleanup tooling next to its artifact.
    """
    path = pathlib.Path(path)
    suffix = f".tmp{os.getpid()}.{next(_SEQUENCE)}"
    return path.with_name(path.name + suffix)


def write_bytes_atomic(path: PathLike, payload: bytes) -> None:
    """Atomically publish ``payload`` at ``path`` (tmp + os.replace)."""
    path = pathlib.Path(path)
    tmp = tmp_sibling(path)
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def write_text_atomic(
    path: PathLike, text: str, encoding: str = "ascii"
) -> None:
    """Atomically publish ``text`` at ``path``."""
    write_bytes_atomic(path, text.encode(encoding))


def write_json_atomic(path: PathLike, payload: Any) -> None:
    """Atomically publish ``payload`` as canonical JSON at ``path``."""
    write_text_atomic(path, json.dumps(payload, sort_keys=True))


def publish_json_exclusive(path: PathLike, payload: Any) -> bool:
    """Publish ``payload`` at ``path`` unless something is already there.

    The exclusive sibling of :func:`write_json_atomic`: the complete
    artifact is written to a temporary sibling and hard-linked into
    place, and :func:`os.link` fails when the name exists — so exactly
    one of several racing writers wins, and the file never appears
    without its content.  True when this call published it.
    """
    path = pathlib.Path(path)
    tmp = tmp_sibling(path)
    try:
        tmp.write_bytes(json.dumps(payload, sort_keys=True).encode("ascii"))
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        return True
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def read_json(path: PathLike) -> Optional[Any]:
    """Parse the JSON artifact at ``path``; ``None`` if absent/torn.

    Any unreadable or unparsable artifact reads as a miss — the
    caller decides whether to regenerate, heal, or skip.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
