"""Lightweight logging facade.

The library logs under the ``repro`` namespace.  We never call
``basicConfig`` or attach a handler, so that embedding applications keep
control of handlers and levels.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from typing import Iterator


def get_logger(name: str) -> logging.Logger:
    """Return a logger under the ``repro.`` namespace."""
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)


@contextmanager
def timed(logger: logging.Logger, label: str) -> Iterator[None]:
    """Log wall-clock duration of a block at DEBUG level."""
    start = time.perf_counter()
    try:
        yield
    finally:
        logger.debug("%s took %.3f s", label, time.perf_counter() - start)
