"""Host-speed calibration: rescaling arithmetic and the sampler."""

import time

import pytest

import calib


def test_scale_brings_a_wall_time_to_the_reference_speed():
    # the loop ran at half the reference speed, so the job did too
    assert calib.scale([2 * calib.REF_S] * 3) == pytest.approx(0.5)
    assert calib.scale([calib.REF_S, 3 * calib.REF_S]) == pytest.approx(0.5)


def test_around_adds_the_neighbouring_samples():
    sampler = calib.Sampler()
    sampler.samples = [(1.0, 0.1), (2.0, 0.2), (3.0, 0.3), (4.0, 0.4), (5.0, 0.5)]
    assert sampler.around(2.5, 3.5) == [0.2, 0.3, 0.4]
    # an interval with no sample inside still gets the two around it
    assert sampler.around(3.1, 3.2) == [0.3, 0.4]
    assert sampler.around(0.0, 1.5) == [0.1, 0.2]


def test_sampler_times_the_loop_while_the_process_works():
    sampler = calib.Sampler()
    sampler.start()
    try:
        t_end = time.perf_counter() + 10 * calib.INTERVAL_S
        while time.perf_counter() < t_end:
            sum(range(1000))
    finally:
        sampler.stop()
    loops = sampler.loops()
    assert 5 <= len(loops) <= 11
    assert all(0 < s < 100 * calib.REF_S for s in loops)
