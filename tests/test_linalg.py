import math

import numpy as np
import pytest

from neuroview import linalg


def test_matvec_identity():
    out = linalg.matvec(np.eye(3), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])


def test_matvec_zero():
    out = linalg.matvec(np.zeros((2, 3)), np.array([5.0, -1.0, 2.0]))
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_matvec_hand_computed():
    # [[1,2],[3,4]] @ (1,1) = (1+2, 3+4)
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = linalg.matvec(m, np.array([1.0, 1.0]))
    np.testing.assert_array_equal(out, [3.0, 7.0])


def test_matvec_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2,\)"):
        linalg.matvec(np.zeros((2, 3)), np.zeros(2))


def test_matvec_distributes_over_addition():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.normal(size=(4, 6))
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        lhs = linalg.matvec(m, u + v)
        rhs = linalg.matvec(m, u) + linalg.matvec(m, v)
        denom = np.maximum(np.abs(lhs), 1e-30)
        assert np.max(np.abs(lhs - rhs) / denom) < 1e-12


def test_matvec_is_pure_and_deterministic():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(5, 5))
    v = rng.normal(size=5)
    m0, v0 = m.copy(), v.copy()
    a = linalg.matvec(m, v)
    b = linalg.matvec(m, v)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(m, m0)
    np.testing.assert_array_equal(v, v0)


def test_elementwise_relu():
    out = linalg.elementwise(np.array([-1.0, 0.0, 2.0]), lambda a: max(a, 0.0))
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])


def test_elementwise_sigmoid_at_zero():
    out = linalg.elementwise(np.array([0.0]), lambda a: 1.0 / (1.0 + math.exp(-a)))
    np.testing.assert_array_equal(out, [0.5])


def test_elementwise_tanh_asymptote():
    out = linalg.elementwise(np.array([0.0, 50.0]), math.tanh)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(1.0, abs=1e-12)


def test_fast_maps_match_elementwise():
    rng = np.random.default_rng(2)
    x = rng.normal(size=32) * 5
    np.testing.assert_allclose(
        linalg.sigmoid(x),
        linalg.elementwise(x, lambda a: 1.0 / (1.0 + math.exp(-a))),
        rtol=1e-15,
    )
    np.testing.assert_array_equal(
        linalg.relu(x), linalg.elementwise(x, lambda a: max(a, 0.0))
    )
    np.testing.assert_allclose(
        linalg.tanh(x), linalg.elementwise(x, math.tanh), rtol=1e-15
    )


def test_sigmoid_extreme_inputs_stay_finite():
    out = linalg.sigmoid(np.array([-1e4, -745.0, 0.0, 745.0, 1e4]))
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[-1] == 1.0


def test_sigmoid_bit_identical_to_two_branch_form():
    # The branch-free sigmoid must reproduce, bit for bit, the form that
    # evaluates 1/(1+exp(-x)) on x >= 0 and exp(x)/(1+exp(x)) elsewhere.
    def two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    rng = np.random.default_rng(5)
    tiny = np.finfo(np.float64).tiny
    extremes = np.array([
        0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, tiny / 3, -tiny / 3,
        1e-300, -1e-300, 36.7, -36.7, 709.8, -709.8, 745.0, -745.0,
        745.2, -745.2, 1e4, -1e4, 1.7e308, -1.7e308,
    ])
    for x in (rng.normal(size=(58, 64)), rng.normal(size=500) * 300, extremes):
        with np.errstate(under="ignore"):
            got, want = linalg.sigmoid(x), two_branch(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_concat_basic():
    out = linalg.concat([np.array([1.0, 2.0]), np.array([3.0])])
    np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])


def test_concat_empty():
    assert linalg.concat([np.zeros(0)]).shape == (0,)
    assert linalg.concat([]).shape == (0,)


def test_concat_preserves_order():
    a, b, c = np.array([1.0]), np.array([2.0]), np.array([3.0])
    np.testing.assert_array_equal(linalg.concat([a, b, c]), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(linalg.concat([c, a, b]), [3.0, 1.0, 2.0])


def test_concat_then_slice_roundtrip():
    rng = np.random.default_rng(3)
    parts = [rng.normal(size=k) for k in (3, 1, 5, 2)]
    joined = linalg.concat(parts)
    offset = 0
    for p in parts:
        np.testing.assert_array_equal(joined[offset:offset + len(p)], p)
        offset += len(p)
    assert offset == len(joined)


def test_validators_reject_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        linalg.as_vector([1.0, np.nan])
    with pytest.raises(ValueError, match="non-finite"):
        linalg.as_matrix([[np.inf, 0.0]])
    with pytest.raises(ValueError, match="1-D"):
        linalg.as_vector([[1.0]])
    with pytest.raises(ValueError, match="2-D"):
        linalg.as_matrix([1.0])
