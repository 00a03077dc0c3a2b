import math

import numpy as np

from neuroview import linalg


def test_fast_maps_match_elementwise():
    def elementwise(v, f):
        return np.array([f(float(a)) for a in v])

    rng = np.random.default_rng(2)
    x = rng.normal(size=32) * 5
    np.testing.assert_allclose(
        linalg.sigmoid(x),
        elementwise(x, lambda a: 1.0 / (1.0 + math.exp(-a))),
        rtol=1e-15,
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
        x0 = x.copy()
        with np.errstate(under="ignore"):
            want = two_branch(x)
            got = linalg.sigmoid(x)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert x.tobytes() == x0.tobytes()  # the allocating form is pure
            # The in-place form: into fresh arrays, over its input, and
            # into a strided, transposed view such as the rnn's states.
            out, work = np.empty_like(x), np.empty_like(x)
            assert linalg.sigmoid(x, out=out, work=work) is out
            assert out.tobytes() == want.tobytes() and x.tobytes() == x0.tobytes()
            assert linalg.sigmoid(x, out=out).tobytes() == want.tobytes()
            assert linalg.sigmoid(x, work=work).tobytes() == want.tobytes()
            alias = x.copy()
            linalg.sigmoid(alias, out=alias, work=work)
            assert alias.tobytes() == want.tobytes()
            block = np.full(x.shape[::-1] + (3,), 7.0)
            view = block[..., 1].T
            linalg.sigmoid(x, out=view, work=work)
            assert view.tobytes() == want.tobytes()
            assert np.all(block[..., [0, 2]] == 7.0)
