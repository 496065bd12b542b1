"""Rep times are scaled by the host's speed around each rep."""

from amberbench import hostspeed
from amberbench.hostspeed import NOMINAL_S, Clock


def test_rep_time_is_divided_by_the_probes_slowdown(monkeypatch):
    probes = iter([NOMINAL_S, 3 * NOMINAL_S, 2 * NOMINAL_S])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    clock = Clock()
    # Probes of 1x before and 3x after: the rep ran at 2x.
    assert clock.rep_s(4.0) == 2.0
    # The next rep starts from the last probe: (3x + 2x) / 2.
    assert clock.rep_s(5.0) == 2.0
    assert clock.slowdowns == [2.0, 2.5]


def test_probe_takes_about_the_nominal_time():
    assert NOMINAL_S / 10 < hostspeed.probe() < NOMINAL_S * 10
