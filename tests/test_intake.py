"""The one float-array intake rule (`errors.finite_array`) at each library entry point
that takes a float array: a malformed array is a SardistError there, never a numpy
error or warning, also under `python -O -W error`."""

import re
import warnings

import numpy as np
import pytest

from sardist.errors import SardistError, ShapeError, ValidationError
from sardist.evaluation import LabeledScores, build_labeled_set
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


# LabeledScores takes its scores through the dtype rule (`errors.float_array`, float64),
# since any finite float64 is a score, and its labels as bools or 0/1 integers
LABELS = np.array([[False, True, False], [True, False, False]])
SCORES = np.array([[0.1, 0.9, 0.2], [0.7, 0.3, 0.4]], np.float32)


@pytest.mark.parametrize("malformed", ["string", "ragged", "complex", "object"])
def test_labeled_scores_refuse_non_numeric_scores(malformed):
    # a string array used to be parsed as numbers, a complex one to warn and drop its
    # imaginary part, a ragged one to leak numpy's ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^scores must be "):
            LabeledScores(MALFORMED[malformed](SCORES), LABELS)


@pytest.mark.parametrize("labels", [LABELS.astype(str), LABELS.astype(float),
                                    np.where(LABELS, 2, 0), LABELS.astype(object),
                                    [[0, 1, 0], [1, 0]]],
                         ids=["string", "float", "two", "object", "ragged"])
def test_labeled_scores_refuse_labels_other_than_bool_or_0_1(labels):
    # 'False' used to read as True, as did any non-zero number
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^labels must be "):
            LabeledScores(SCORES, labels)


@pytest.mark.parametrize("scores", [SCORES, SCORES.astype(np.float64), SCORES.astype(np.int64)],
                         ids=["float32", "float64", "int64"])
def test_labeled_scores_keep_the_bits_of_numeric_scores(scores):
    ls = LabeledScores(scores, LABELS.astype(np.uint8))
    assert ls.scores.tobytes() == np.asarray(scores, np.float64).ravel().tobytes()
    assert ls.labels.tobytes() == LABELS.ravel().tobytes()


@pytest.mark.parametrize("truth, error", [([["False", "False"], ["False", "True"]], ValidationError),
                                          ([[0.0, 1.0], [0.0, 0.0]], ValidationError),
                                          ([[False, True], [False]], ShapeError)],
                         ids=["string", "float", "ragged"])
def test_build_labeled_set_takes_the_truth_mask_through_the_label_rule(truth, error):
    # a string mask used to read as all True, a ragged one to leak numpy's ValueError
    maps = [DisturbanceMap(np.full((2, 2), v, np.float32), "log10_ratio") for v in (0.1, 0.2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="^truth must be "):
            build_labeled_set(*maps, truth)
    assert build_labeled_set(*maps, [[0, 0], [0, 1]]).labels.sum() == 1


def test_labeled_scores_refusals_hold_under_optimize():
    code, out, err = run_under_optimize(
        "from sardist.errors import SardistError\n"
        "from sardist.evaluation import LabeledScores\n"
        "for scores, labels in [(['0.1', '0.2'], [True, False]),\n"
        "                       ([0.1j, 0.2], [True, False]),\n"
        "                       ([[0.1], [0.2, 0.3]], [True, False]),\n"
        "                       ([0.1, 0.2], ['False', 'True'])]:\n"
        "    try:\n"
        "        LabeledScores(scores, labels)\n"
        "    except SardistError as exc:\n"
        "        print(type(exc).__name__)\n")
    assert (code, err) == (0, "")
    assert out.split() == ["ValidationError", "ValidationError", "ShapeError", "ValidationError"]
