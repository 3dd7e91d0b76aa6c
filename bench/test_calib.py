"""Rescaling by the reference kernel.

    python3 -m pytest bench
"""

from __future__ import annotations

import pytest

import calib

REF = calib.REFERENCE_S


def test_kernel_is_deterministic():
    assert calib.kernel() == calib.kernel() > 0


def test_kernel_at_reference_speed_leaves_times_alone():
    starts = [0.0, 1.0, 2.0]
    kernel_starts = [0.5 * k for k in range(7)]
    assert calib.rescale(starts, [0.1, 0.2, 0.3], kernel_starts, [REF] * 7) == [
        pytest.approx(t) for t in (0.1, 0.2, 0.3)
    ]


def test_each_operation_takes_the_speed_of_its_own_moment():
    # the CPU ran at half speed, the kernel taking 2 REF, from t = 10 on
    kernel_starts = [float(t) for t in range(20)]
    durations = [REF if t < 10 else 2 * REF for t in range(20)]
    early, late = calib.rescale([2.0, 16.0], [0.4, 0.4], kernel_starts, durations)
    assert early == pytest.approx(0.4)
    assert late == pytest.approx(0.2)


def test_one_slow_kernel_sample_is_outvoted():
    kernel_starts = [float(t) for t in range(9)]
    durations = [REF] * 9
    durations[4] = 10 * REF
    assert calib.rescale([4.0], [0.3], kernel_starts, durations) == [pytest.approx(0.3)]


def test_fewer_samples_than_the_window():
    assert calib.rescale([0.0], [0.5], [0.0, 1.0], [2 * REF, 2 * REF]) == [
        pytest.approx(0.25)
    ]
