"""The one float-array intake rule (`errors.finite_array`) at each library entry point
that takes a float array: a malformed array is a SardistError there, never a numpy
error or warning, also under `python -O -W error`."""

import re
import warnings

import numpy as np
import pytest

from sardist.errors import SardistError, ValidationError
from sardist.inference import sweep_estimate
from sardist.model import Model, ModelConfig
from sardist.preprocess import despeckle_values
from sardist.raster import DistributionEstimate, DisturbanceMap, RasterStack
from sardist.training import TrainConfig, train

from conftest import ConstantStub, run_under_optimize


def tiny_model() -> Model:
    return Model(ModelConfig(input_size=4, patch_size=2, d_model=8, num_heads=2,
                             num_layers=1, ff_dim=8), seed=0)


#: each entry point: an array of its layout that it takes, and the call that takes one in
ENTRY_POINTS = {
    "sweep_estimate": (np.full((5, 2, 8, 8), -2.0, np.float32),
                       lambda a: sweep_estimate(ConstantStub(4), a)),
    "train": (np.zeros((2, 11, 2, 4, 4), np.float32),
              lambda a: train(tiny_model(), TrainConfig(batch_size=2, epochs=1,
                                                        steps_per_epoch=1), a)),
    "RasterStack": (np.full((3, 2, 4, 4), 0.5, np.float32),
                    lambda a: RasterStack(a, ["2024-01-01", "2024-01-13", "2024-01-25"])),
    "DistributionEstimate": (np.zeros((2, 4, 4), np.float32),
                             lambda a: DistributionEstimate(a, np.ones((2, 4, 4)))),
    "DisturbanceMap": (np.ones((4, 4), np.float32),
                       lambda a: DisturbanceMap(a, "standard_deviations")),
}


def with_value(a: np.ndarray, value: float) -> np.ndarray:
    """A copy of `a` with its middle entry set to `value`."""
    a = a.copy()
    a.flat[a.size // 2] = value
    return a


#: each way an array can be malformed, made from one the entry point takes
MALFORMED = {
    "string": lambda a: a.astype(str),
    "ragged": lambda a: [*a[:-1].tolist(), a[-1, ..., :-1].tolist()],
    "complex": lambda a: a.astype(complex),
    "object": lambda a: a.astype(object),
    "past float32": lambda a: with_value(a.astype(np.float64), 1e39),
    "one axis short": lambda a: a[0],
    "nan": lambda a: with_value(a, np.nan),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_the_array_of_its_layout_is_taken(entry):
    valid, take_in = ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        take_in(valid)


@pytest.mark.parametrize("malformed", MALFORMED)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_malformed_array_is_a_sardist_error_and_no_warning(entry, malformed):
    # a string, ragged or object array used to leak numpy's ValueError, and a float64
    # value past float32's range its overflow warning, at all but `train`
    valid, take_in = ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SardistError):
            take_in(MALFORMED[malformed](valid))


@pytest.mark.parametrize("value", ["np.nan", "1e300"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_finite_value_rejected_under_optimize(entry, value):
    # python -O strips asserts and -W error makes any warning an exception
    code, out, err = run_under_optimize(
        "import numpy as np\n"
        "from sardist.errors import SardistError\n"
        "from test_intake import ENTRY_POINTS, with_value\n"
        f"valid, take_in = ENTRY_POINTS[{entry!r}]\n"
        "try:\n"
        f"    take_in(with_value(valid.astype(np.float64), {value}))\n"
        "except SardistError as exc:\n"
        "    print(exc)\n")
    assert (code, err) == (0, "")
    assert re.fullmatch(r"[a-z ]+ contains? non-finite values\n", out), out


# despeckle_values clips NaN and infinity rather than refusing them, so it takes only
# the dtype rule (`errors.float_array`): its stack is (..., H, W) backscatter
DESPECKLE_INPUT = np.full((2, 2, 4, 4), 0.5, np.float32)


@pytest.mark.parametrize("malformed", ["string", "ragged", "complex", "object"])
def test_despeckle_refuses_a_non_numeric_array(malformed):
    # a string array used to leak numpy's ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^backscatter must be "):
            despeckle_values(MALFORMED[malformed](DESPECKLE_INPUT))


def test_despeckle_clips_non_finite_and_past_float32_values_without_warning():
    values = DESPECKLE_INPUT.astype(np.float64)
    values[0, 0, 0, :3] = (1e39, np.inf, -np.inf)
    values[1, 0, 0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = despeckle_values(values)
    # past float32 and infinite values are clipped like any other; a slice holding a NaN
    # fails the descent check and comes back as its input, but for the dB round trip
    assert out[0].tobytes() == despeckle_values(np.clip(values[0], 1e-4, 1 - 1e-4)).tobytes()
    np.testing.assert_allclose(out[1, 0], values[1, 0], rtol=1e-6)   # NaN where it was
