"""RMA windows: network-exposed per-rank arrays with epoch semantics.

A :class:`Window` models one ``MPI_Win`` created over a communicator of
``p`` ranks: each rank contributes a 1-D NumPy array.  Reads are expressed
in **elements** (offset/count), like MPI with a ``disp_unit`` equal to the
item size, and must happen inside a passive-target access epoch
(``lock_all`` ... ``unlock_all``), matching the paper's use of
``MPI_Win_lock_all``.  ``lock_all`` is *not* a lock — it only opens the
epoch — which the paper is at pains to point out; here it likewise does no
synchronization, it only arms the bookkeeping that catches misuse.

The actual data transfer is a NumPy slice copy; the *cost* of the transfer
is charged by :class:`~repro.runtime.context.SimContext`, not here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.errors import EpochError, WindowError


class Window:
    """One logically-distributed memory region (an ``MPI_Win``).

    Parameters
    ----------
    name:
        Identifier used in traces (e.g. ``"offsets"``, ``"adjacencies"``).
    parts:
        One 1-D array per rank; ``parts[r]`` is the region rank ``r``
        exposes.  Arrays must share a dtype but may differ in length
        (partitions are unequal for irregular graphs).
    """

    def __init__(self, name: str, parts: Sequence[np.ndarray]):
        if not parts:
            raise WindowError("a window needs at least one rank's region")
        dtype = parts[0].dtype
        clean: list[np.ndarray] = []
        for r, arr in enumerate(parts):
            a = np.asarray(arr)
            if a.ndim != 1:
                raise WindowError(
                    f"window {name!r}: rank {r} region must be 1-D, got shape {a.shape}"
                )
            if a.dtype != dtype:
                raise WindowError(
                    f"window {name!r}: dtype mismatch (rank 0 has {dtype}, "
                    f"rank {r} has {a.dtype})"
                )
            clean.append(np.ascontiguousarray(a))
        self.name = name
        self._parts = clean
        self.dtype = dtype
        self.itemsize = int(dtype.itemsize)
        self.nranks = len(clean)
        # Per-initiator epoch state: True while inside lock_all...unlock_all.
        self._epoch_open = [False] * self.nranks

    # -- epoch management (passive target) -------------------------------------
    def lock_all(self, rank: int) -> None:
        """Open an access epoch for ``rank``.  Purely local, no sync."""
        self._check_rank(rank)
        if self._epoch_open[rank]:
            raise EpochError(
                f"window {self.name!r}: rank {rank} already holds an access epoch"
            )
        self._epoch_open[rank] = True

    def unlock_all(self, rank: int) -> None:
        """Close ``rank``'s access epoch.  Purely local, no sync."""
        self._check_rank(rank)
        if not self._epoch_open[rank]:
            raise EpochError(
                f"window {self.name!r}: rank {rank} has no open access epoch"
            )
        self._epoch_open[rank] = False

    def epoch_open(self, rank: int) -> bool:
        """True while ``rank`` may issue RMA operations on this window."""
        self._check_rank(rank)
        return self._epoch_open[rank]

    # -- data access ------------------------------------------------------------
    def read(self, initiator: int, target: int, offset: int, count: int) -> np.ndarray:
        """Perform the data movement of a get (returns a copy).

        Bounds and epoch rules are enforced; timing is the caller's job.
        """
        self._check_rank(target)
        self._check_rank(initiator)
        if not self._epoch_open[initiator]:
            raise EpochError(
                f"window {self.name!r}: rank {initiator} issued a get outside "
                "an access epoch (missing lock_all)"
            )
        part = self._parts[target]
        if count < 0:
            raise WindowError(f"window {self.name!r}: negative count {count}")
        if offset < 0 or offset + count > part.shape[0]:
            raise WindowError(
                f"window {self.name!r}: get [{offset}, {offset + count}) out of "
                f"bounds for rank {target} region of length {part.shape[0]}"
            )
        return part[offset:offset + count].copy()

    def servable(self, initiator: int, targets: np.ndarray,
                 offsets: np.ndarray, counts: np.ndarray) -> int:
        """How many leading gets of a run :meth:`read` would serve.

        The run stops before the first get :meth:`read` would refuse
        (closed epoch, rank or bounds violation): issue that one through
        :meth:`read` for its error.  Moves no data; :meth:`gather` does,
        for the gets this count cleared.
        """
        if not (0 <= initiator < self.nranks and self._epoch_open[initiator]):
            return 0
        ok = (targets >= 0) & (targets < self.nranks)
        lens = np.array([part.shape[0] for part in self._parts])[targets * ok]
        ok &= (counts >= 0) & (offsets >= 0) & (offsets + counts <= lens)
        return ok.shape[0] if ok.all() else int(ok.argmin())

    def gather(self, targets: np.ndarray, offsets: np.ndarray,
               counts: np.ndarray) -> np.ndarray:
        """The data movement of a run of gets :meth:`servable` cleared:
        their elements concatenated in get order, one copy for the run
        (:meth:`read`'s copy without its checks)."""
        ends = np.cumsum(counts)
        total = int(ends[-1]) if ends.shape[0] else 0
        # Each element's index in its target's part.
        src = np.arange(total) + np.repeat(offsets - (ends - counts), counts)
        owner = np.repeat(targets, counts)
        out = np.empty(total, dtype=self.dtype)
        for target in set(targets.tolist()):
            sel = owner == target
            out[sel] = self._parts[target][src[sel]]
        return out

    def write(self, initiator: int, target: int, offset: int, data: np.ndarray) -> None:
        """Perform the data movement of a put."""
        self._check_rank(target)
        self._check_rank(initiator)
        if not self._epoch_open[initiator]:
            raise EpochError(
                f"window {self.name!r}: rank {initiator} issued a put outside "
                "an access epoch"
            )
        data = np.asarray(data, dtype=self.dtype)
        part = self._parts[target]
        if offset < 0 or offset + data.shape[0] > part.shape[0]:
            raise WindowError(
                f"window {self.name!r}: put [{offset}, {offset + data.shape[0]}) "
                f"out of bounds for rank {target} region of length {part.shape[0]}"
            )
        part[offset:offset + data.shape[0]] = data

    def local_part(self, rank: int) -> np.ndarray:
        """Direct (zero-copy) view of ``rank``'s own region."""
        self._check_rank(rank)
        return self._parts[rank]

    def replace_part(self, rank: int, part: np.ndarray) -> np.ndarray:
        """Swap ``rank``'s exposed region for a new array (dynamic graphs).

        Models detaching and re-attaching a window region after its
        backing memory was rebuilt (``MPI_Win_detach``/``attach`` on a
        dynamic window).  Length may change; dtype may not.  Epoch state
        is untouched — callers coordinate invalidation of any caches that
        hold data from the old region.  Returns the old array.
        """
        self._check_rank(rank)
        a = np.asarray(part)
        if a.ndim != 1:
            raise WindowError(
                f"window {self.name!r}: replacement region for rank {rank} "
                f"must be 1-D, got shape {a.shape}")
        if a.dtype != self.dtype:
            raise WindowError(
                f"window {self.name!r}: replacement dtype {a.dtype} does not "
                f"match window dtype {self.dtype}")
        old = self._parts[rank]
        self._parts[rank] = np.ascontiguousarray(a)
        return old

    # -- geometry ------------------------------------------------------------
    def part_len(self, rank: int) -> int:
        """Number of elements exposed by ``rank``."""
        self._check_rank(rank)
        return int(self._parts[rank].shape[0])

    def part_nbytes(self, rank: int) -> int:
        """Bytes exposed by ``rank``."""
        return self.part_len(rank) * self.itemsize

    def total_nbytes(self) -> int:
        """Bytes exposed across all ranks."""
        return sum(self.part_nbytes(r) for r in range(self.nranks))

    def nbytes_of(self, count: int) -> int:
        """Bytes moved by a get of ``count`` elements."""
        return count * self.itemsize

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise WindowError(
                f"window {self.name!r}: rank {rank} out of range [0, {self.nranks})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Window(name={self.name!r}, nranks={self.nranks}, dtype={self.dtype}, "
            f"total={self.total_nbytes()} B)"
        )


class WindowRegistry:
    """Holds the windows of one simulated job, addressable by name.

    Mirrors how an MPI application keeps the pair ``w_offsets``/``w_adj``
    around; also gives the engine a single handle to close all epochs.
    """

    def __init__(self) -> None:
        self._windows: dict[str, Window] = {}

    def add(self, window: Window) -> Window:
        if window.name in self._windows:
            raise WindowError(f"duplicate window name {window.name!r}")
        self._windows[window.name] = window
        return window

    def __getitem__(self, name: str) -> Window:
        try:
            return self._windows[name]
        except KeyError:
            raise WindowError(f"unknown window {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._windows

    def __iter__(self):
        return iter(self._windows.values())

    def lock_all(self, rank: int) -> None:
        """Open an access epoch on every registered window for ``rank``."""
        for win in self._windows.values():
            win.lock_all(rank)

    def unlock_all(self, rank: int) -> None:
        """Close every open epoch ``rank`` holds."""
        for win in self._windows.values():
            if win.epoch_open(rank):
                win.unlock_all(rank)
