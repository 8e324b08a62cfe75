"""The package's export list stays in step with what it imports."""

import types

import rtp_arb


def test_all_holds_exactly_the_public_names():
    public = {
        name
        for name, value in vars(rtp_arb).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(rtp_arb.__all__) == len(set(rtp_arb.__all__))
    assert sorted(rtp_arb.__all__) == sorted(public)
