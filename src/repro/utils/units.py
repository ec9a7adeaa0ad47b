"""Units and human-readable formatting helpers.

The simulator works in SI base units throughout: **seconds** for time and
**bytes** for sizes.  These constants make configuration code read like the
paper ("16 GiB memory overhead", "2.5 us setup latency").
"""

from __future__ import annotations

# -- byte units ------------------------------------------------------------
KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

# -- time units (expressed in seconds) --------------------------------------
NS: float = 1e-9
US: float = 1e-6
MS: float = 1e-3


def format_bytes(nbytes: float) -> str:
    """Render a byte count like ``905.8 MiB`` (paper Table II style).

    >>> format_bytes(949_947_187)
    '905.9 MiB'
    >>> format_bytes(512)
    '512 B'
    """
    nbytes = float(nbytes)
    if nbytes < KiB:
        return f"{nbytes:.0f} B"
    if nbytes < MiB:
        return f"{nbytes / KiB:.1f} KiB"
    if nbytes < GiB:
        return f"{nbytes / MiB:.1f} MiB"
    return f"{nbytes / GiB:.2f} GiB"


def format_seconds(seconds: float) -> str:
    """Render a duration with an adaptive unit.

    >>> format_seconds(2.5e-6)
    '2.50 us'
    >>> format_seconds(0.25)
    '250.0 ms'
    >>> format_seconds(90)
    '90.00 s'
    """
    if seconds < 0:
        return "-" + format_seconds(-seconds)
    if seconds < US:
        return f"{seconds / NS:.0f} ns"
    if seconds < MS:
        return f"{seconds / US:.2f} us"
    if seconds < 1.0:
        return f"{seconds / MS:.1f} ms"
    return f"{seconds:.2f} s"
