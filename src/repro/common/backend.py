"""Unified simulation-backend selection (``REPRO_BACKEND``).

One switch selects how the hot loops execute:

- ``pure``   — pure-Python derived columns and replay loops (the
  dependency-free floor; what CI's baseline gate runs).
- ``numpy``  — vectorized derived-column computation; the replay
  loops themselves stay Python (PRs 2-4's fused loops).
- ``native`` — the compiled kernel tier (:mod:`repro.kernels`): the
  fused Group replay, the chunk collector, and the crossbar timing
  pass run inside a C extension, with numpy (when importable)
  producing the derived columns for everything else.

Resolution order:

1. ``REPRO_BACKEND`` (``pure``/``numpy``/``native``/``auto``),
2. auto-detection: ``native`` when the compiled extension imports,
   else ``numpy`` when numpy imports, else ``pure``.

Every tier produces byte-identical results (ResultSet JSON, predictor
tables, hex-float timing goldens) — the equivalence suites enforce it
— so the switch is purely about speed.  Requesting an unavailable
tier warns once and falls back down the list rather than failing.

This module holds the one backend value the whole package reads:
:mod:`repro.trace.columns` and the other vectorized paths ask
:func:`numpy_module`, :mod:`repro.kernels` asks :func:`native_active`,
and the bench harness (``columns_backend`` in BENCH.json) and
``ResultSet.perf`` record :func:`backend_name`.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Iterator, Optional, Tuple

#: The unified backend environment variable.
BACKEND_ENV = "REPRO_BACKEND"

#: Registered backends, slowest floor first.
BACKENDS: Tuple[str, ...] = ("pure", "numpy", "native")

_active: Optional[str] = None
_warned_native_missing = False
_native_module = False  # sentinel: not probed yet
_numpy = False  # sentinel: not probed yet


def _numpy_available() -> bool:
    """True when numpy imports (probed once per process)."""
    global _numpy
    if _numpy is False:
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised on no-numpy CI
            _numpy = None
        else:
            _numpy = numpy
    return _numpy is not None


def numpy_module():
    """numpy when the active backend is not ``pure``, else None.

    Also None when numpy is not importable.  The derived columns, the
    batched generation engine and the analysis kernels consult this
    once per call, so :func:`set_backend` switches every vectorized
    path at once.
    """
    if backend_name() == "pure" or not _numpy_available():
        return None
    return _numpy


#: The kernel ABI this source tree speaks; an extension built from an
#: older ``_native.c`` (missing a kernel the dispatch seam calls) is
#: treated as unbuilt rather than failing mid-sweep.
NATIVE_ABI_VERSION = 4


def native_module():
    """The compiled kernel extension module, or None when unbuilt.

    Probed once per process; build it in a source checkout with
    ``python -m repro.kernels.build`` (or install a binary wheel).
    """
    global _native_module
    if _native_module is False:
        try:
            from repro.kernels import _native
        except ImportError:
            _native_module = None
        else:
            if getattr(_native, "ABI_VERSION", None) == NATIVE_ABI_VERSION:
                _native_module = _native
            else:
                _native_module = None
    return _native_module


def native_available() -> bool:
    """True when the compiled kernel extension is importable."""
    return native_module() is not None


def available_backends() -> Tuple[str, ...]:
    """Backends usable on this machine, floor first."""
    names = ["pure"]
    if _numpy_available():
        names.append("numpy")
    if native_available():
        names.append("native")
    return tuple(names)


def _warn_native_missing() -> None:
    global _warned_native_missing
    if _warned_native_missing:
        return
    _warned_native_missing = True
    warnings.warn(
        "REPRO_BACKEND=native requested but the compiled kernel "
        "extension is not built; falling back to the fastest "
        "available Python tier.  Build it with "
        "`python -m repro.kernels.build` (or install a binary wheel).",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_env() -> str:
    """Resolve the backend from the environment (no state change)."""
    value = os.environ.get(BACKEND_ENV, "").strip().lower()
    if value and value != "auto":
        if value not in BACKENDS:
            raise ValueError(
                f"unknown {BACKEND_ENV}={value!r}; "
                f"expected one of {BACKENDS} or 'auto'"
            )
        if value == "native" and not native_available():
            _warn_native_missing()
            return "numpy" if _numpy_available() else "pure"
        if value == "numpy" and not _numpy_available():
            warnings.warn(
                f"{BACKEND_ENV}=numpy requested but numpy is not "
                "importable; falling back to the pure tier.",
                RuntimeWarning,
                stacklevel=2,
            )
            return "pure"
        return value
    if native_available():
        return "native"
    return "numpy" if _numpy_available() else "pure"


def backend_name() -> str:
    """The active unified backend: ``pure``/``numpy``/``native``."""
    global _active
    if _active is None:
        set_backend("auto")
    return _active


def native_active() -> bool:
    """True when the native kernel tier should be dispatched."""
    return backend_name() == "native"


def set_backend(name: str) -> None:
    """Select the backend: ``pure``/``numpy``/``native``/``auto``.

    ``auto`` re-runs the environment resolution.  Raises when an
    explicitly requested tier is unavailable (``auto`` never raises).
    """
    global _active
    name = name.strip().lower()
    if name == "auto":
        _active = resolve_env()
        return
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKENDS}"
        )
    if name == "native" and not native_available():
        raise RuntimeError(
            "native backend requested but the compiled kernel "
            "extension is not importable; build it with "
            "`python -m repro.kernels.build`"
        )
    if name == "numpy" and not _numpy_available():
        raise RuntimeError("numpy backend requested but not importable")
    _active = name


@contextlib.contextmanager
def use(name: str) -> Iterator[str]:
    """Temporarily select a backend (bench/tests helper)."""
    previous = backend_name()
    set_backend(name)
    try:
        yield backend_name()
    finally:
        set_backend(previous)
