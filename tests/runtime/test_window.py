"""Tests for RMA windows: bounds, epochs, data movement."""

import numpy as np
import pytest

from repro.runtime.window import Window, WindowRegistry
from repro.utils.errors import EpochError, WindowError


def make_window():
    return Window("w", [np.arange(10, dtype=np.int32),
                        np.arange(100, 105, dtype=np.int32)])


class TestWindowConstruction:
    def test_basic_geometry(self):
        win = make_window()
        assert win.nranks == 2
        assert win.part_len(0) == 10
        assert win.part_len(1) == 5
        assert win.itemsize == 4
        assert win.part_nbytes(0) == 40
        assert win.total_nbytes() == 60
        assert win.nbytes_of(3) == 12

    def test_empty_parts_rejected(self):
        with pytest.raises(WindowError):
            Window("w", [])

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(WindowError):
            Window("w", [np.zeros(3, dtype=np.int32),
                         np.zeros(3, dtype=np.int64)])

    def test_2d_region_rejected(self):
        with pytest.raises(WindowError):
            Window("w", [np.zeros((2, 2), dtype=np.int32)])


class TestEpochs:
    def test_get_outside_epoch_rejected(self):
        win = make_window()
        with pytest.raises(EpochError):
            win.read(0, 1, 0, 3)

    def test_get_inside_epoch_works(self):
        win = make_window()
        win.lock_all(0)
        data = win.read(0, 1, 1, 3)
        np.testing.assert_array_equal(data, [101, 102, 103])

    def test_double_lock_rejected(self):
        win = make_window()
        win.lock_all(0)
        with pytest.raises(EpochError):
            win.lock_all(0)

    def test_unlock_without_lock_rejected(self):
        win = make_window()
        with pytest.raises(EpochError):
            win.unlock_all(0)

    def test_epochs_are_per_rank(self):
        win = make_window()
        win.lock_all(0)
        assert win.epoch_open(0)
        assert not win.epoch_open(1)
        with pytest.raises(EpochError):
            win.read(1, 0, 0, 1)

    def test_lock_unlock_cycle(self):
        win = make_window()
        win.lock_all(0)
        win.unlock_all(0)
        win.lock_all(0)
        assert win.epoch_open(0)


class TestDataMovement:
    def test_read_returns_copy(self):
        win = make_window()
        win.lock_all(0)
        data = win.read(0, 0, 0, 3)
        data[0] = 999
        assert win.local_part(0)[0] == 0

    def test_out_of_bounds_read_rejected(self):
        win = make_window()
        win.lock_all(0)
        with pytest.raises(WindowError):
            win.read(0, 1, 3, 10)
        with pytest.raises(WindowError):
            win.read(0, 1, -1, 2)
        with pytest.raises(WindowError):
            win.read(0, 1, 0, -2)

    def test_zero_length_read_ok(self):
        win = make_window()
        win.lock_all(0)
        assert win.read(0, 1, 5, 0).shape == (0,)

    def test_invalid_target_rank(self):
        win = make_window()
        win.lock_all(0)
        with pytest.raises(WindowError):
            win.read(0, 7, 0, 1)

    def test_gather_is_read_per_get_concatenated(self):
        win = make_window()
        win.lock_all(0)
        targets, offsets, counts = (np.array(col) for col in
                                    ([0, 1, 0, 1], [2, 0, 9, 5], [3, 5, 1, 0]))
        assert win.servable(0, targets, offsets, counts) == 4
        gathered = win.gather(targets, offsets, counts)
        np.testing.assert_array_equal(gathered, np.concatenate(
            [win.read(0, t, o, c) for t, o, c in zip(targets, offsets, counts)]))
        assert gathered.dtype == win.dtype
        gathered[0] = 999                    # copies, like read
        assert win.local_part(0)[2] == 2
        assert win.gather(*(col[:0] for col in (targets, offsets, counts))
                          ).shape == (0,)

    @pytest.mark.parametrize("refused", [(1, 3, 10), (1, -1, 2), (1, 0, -2),
                                         (7, 0, 1), (-1, 0, 1)])
    def test_servable_stops_before_a_refused_get(self, refused):
        win = make_window()
        win.lock_all(0)
        gets = np.array([(0, 0, 2), (1, 1, 2), refused, (0, 4, 1)])
        assert win.servable(0, gets[:, 0], gets[:, 1], gets[:, 2]) == 2
        assert win.gather(*gets[:2].T).tolist() == [0, 1, 101, 102]
        with pytest.raises(WindowError):
            win.read(0, *refused)

    def test_servable_outside_epoch_is_none(self):
        win = make_window()
        one = np.array([0])
        assert win.servable(0, one, one, one) == 0
        assert win.servable(9, one, one, one) == 0   # no such initiator
        win.lock_all(1)
        assert win.servable(0, one, one, one) == 0   # epochs are per rank
        assert win.servable(1, one, one, one) == 1

    def test_write_roundtrip(self):
        win = make_window()
        win.lock_all(0)
        win.write(0, 1, 2, np.array([7, 8], dtype=np.int32))
        np.testing.assert_array_equal(win.local_part(1), [100, 101, 7, 8, 104])

    def test_write_out_of_bounds_rejected(self):
        win = make_window()
        win.lock_all(0)
        with pytest.raises(WindowError):
            win.write(0, 1, 4, np.array([1, 2], dtype=np.int32))

    @pytest.mark.parametrize("initiator", [-1, 2])
    def test_write_from_invalid_initiator_rejected(self, initiator):
        """A put from a rank outside the window fails like a get does,
        instead of borrowing another rank's epoch (-1 wraps to the last)."""
        win = make_window()
        win.lock_all(1)
        with pytest.raises(WindowError):
            win.write(initiator, 0, 0, np.array([7], dtype=np.int32))
        assert win.local_part(0)[0] == 0

    @pytest.mark.parametrize("target", [-1, 2])
    def test_write_to_invalid_target_rejected(self, target):
        win = make_window()
        win.lock_all(0)
        with pytest.raises(WindowError):
            win.write(0, target, 0, np.array([7], dtype=np.int32))
        assert win.local_part(1)[0] == 100

    def test_local_part_is_view(self):
        win = make_window()
        win.local_part(0)[0] = 42
        win.lock_all(1)
        assert win.read(1, 0, 0, 1)[0] == 42


class TestWindowRegistry:
    def test_add_and_lookup(self):
        reg = WindowRegistry()
        win = make_window()
        reg.add(win)
        assert reg["w"] is win
        assert "w" in reg

    def test_duplicate_name_rejected(self):
        reg = WindowRegistry()
        reg.add(make_window())
        with pytest.raises(WindowError):
            reg.add(make_window())

    def test_unknown_name_rejected(self):
        with pytest.raises(WindowError):
            WindowRegistry()["nope"]

    def test_lock_all_unlock_all(self):
        reg = WindowRegistry()
        a, b = make_window(), Window("x", [np.zeros(2, dtype=np.int8)] * 2)
        reg.add(a)
        reg.add(b)
        reg.lock_all(0)
        assert a.epoch_open(0) and b.epoch_open(0)
        reg.unlock_all(0)
        assert not a.epoch_open(0) and not b.epoch_open(0)
