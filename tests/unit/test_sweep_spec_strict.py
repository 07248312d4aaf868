"""SweepSpec.from_dict takes JSON types as they are: no coercion."""

import pytest

from repro.errors import ConfigurationError
from repro.service import SweepSpec

SMALL = {
    "faults": "none",
    "bins": [[0.2, 0.3]],
    "sets_per_bin": 1,
    "horizon_cap_units": 50,
}


@pytest.mark.parametrize(
    "knob",
    [
        {"sets_per_bin": 2.9},
        {"seed": True},
        {"horizon_cap_units": "300"},
        {"validate": 1.0},
        {"schemes": "MKSS_ST"},
        {"schemes": ["MKSS_ST", 3]},
        {"bins": "0.2:0.3"},
        {"bins": [[0.2, "0.3"]]},
        {"bins": [[0.2, 0.3, 0.4]]},
        {"faults": None},
    ],
)
def test_mistyped_values_are_rejected(knob):
    with pytest.raises(ConfigurationError):
        SweepSpec.from_dict({**SMALL, **knob})


def test_json_integers_and_lists_are_accepted():
    spec = SweepSpec.from_dict(
        {**SMALL, "seed": 3, "schemes": ["MKSS_ST"], "bins": [[0, 1]]}
    )
    assert spec.seed == 3
    assert spec.schemes == ("MKSS_ST",)
    assert spec.bins == ((0.0, 1.0),)
    assert SweepSpec.from_dict(spec.to_dict()) == spec
