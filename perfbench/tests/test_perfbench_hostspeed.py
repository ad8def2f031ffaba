"""The host-speed scaling: reference samples and the factors taken from them."""

import hostspeed
import pytest


def test_sample_repeats_the_reference_pass():
    assert hostspeed.sample(2) > 0
    assert hostspeed._pass() == hostspeed._EXPECTED


def test_factor_uses_the_samples_on_both_sides(monkeypatch):
    times = iter([0.004, 0.006, 0.010])
    monkeypatch.setattr(hostspeed, "sample", lambda passes: next(times))
    scale = hostspeed.Scale(3)
    scale.begin()
    scale.begin()  # a second begin() keeps the first sample
    assert scale.end() == pytest.approx(hostspeed.REF_S / 0.005)
    assert scale.end() == pytest.approx(hostspeed.REF_S / 0.008)  # 0.006 began this stretch
    assert scale.samples == [0.004, 0.006, 0.010]


def test_end_without_begin_is_an_error():
    with pytest.raises(RuntimeError):
        hostspeed.Scale(1).end()
