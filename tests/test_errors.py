"""Every package error survives a pickle round trip, as errors from the
cross-test's worker processes travel that way."""

import inspect
import pickle

import pytest

from rtp_arb import TrainingCurve, errors

TYPES = [t for _, t in inspect.getmembers(errors, inspect.isclass) if issubclass(t, errors.RtpArbError)]


@pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
def test_pickle_round_trip_keeps_type_message_and_fields(kind):
    if issubclass(kind, errors.ValidationError):
        error = kind("row 7: bad price", position=5)
    elif kind is errors.TrainingDivergedError:
        error = kind("loss is nan at step 40", TrainingCurve(2021, ((0, 1.5), (20, -2.0))))
    else:
        error = kind("bad value")
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is kind
    assert str(back) == str(error) and back.args == error.args
    assert vars(back) == vars(error)
    if issubclass(kind, errors.ValidationError):
        assert back.position == 5
    if kind is errors.TrainingDivergedError:
        assert back.curve == error.curve
