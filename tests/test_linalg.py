import itertools

import numpy as np
import pytest

from hydra_peft import linalg
from hydra_peft.errors import ContractError, InvariantError, ShapeError
from hydra_peft.linalg import (SeededRng, frobenius_distance, kaiming_uniform,
                               matmul, matvec, softmax)


# published splitmix64 outputs for seed 0
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_rng_known_answer_vectors():
    got = SeededRng(0).next_uint64(3)
    assert [int(v) for v in got] == SPLITMIX64_SEED0


def test_rng_bitwise_reproducible():
    a = SeededRng(1234).uniform(257)
    b = SeededRng(1234).uniform(257)
    assert a.tobytes() == b.tobytes()


def test_rng_chunking_does_not_change_stream():
    whole = SeededRng(77).next_uint64(10)
    r = SeededRng(77)
    parts = np.concatenate([r.next_uint64(3), r.next_uint64(7)])
    assert (whole == parts).all()


def test_rng_derive_is_stable_and_distinct():
    r = SeededRng(5)
    assert r.derive("a", 1).seed == SeededRng(5).derive("a", 1).seed
    assert r.derive("a").seed != r.derive("b").seed


def test_rng_integers_in_range():
    vals = SeededRng(3).integers(1000, 7)
    assert vals.min() >= 0 and vals.max() <= 6


def test_rng_normal_moments():
    vals = SeededRng(11).normal(40000)
    assert abs(vals.mean()) < 0.02
    assert abs(vals.std() - 1.0) < 0.02


def test_matmul_identity():
    m = SeededRng(0).uniform(6).reshape(2, 3)
    assert np.array_equal(matmul(np.eye(2), m), m)


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0], [1.0]])
    assert np.array_equal(matmul(a, b), np.array([[2.0], [4.0]]))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(np.zeros((2, 3)), np.zeros((2, 2)))


def test_matmul_matches_scalar_loop_bitwise():
    # oracle: the plain triple loop with the k index innermost, ascending
    rng = SeededRng(42)
    a = rng.normal(12).reshape(3, 4)
    b = rng.normal(8).reshape(4, 2)
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = 0.0
            for k in range(4):
                acc += a[i, k] * b[k, j]
            expect[i, j] = acc
    assert matmul(a, b).tobytes() == expect.tobytes()


def test_matmul_associative_within_tolerance():
    rng = SeededRng(9)
    for trial in range(20):
        a = rng.normal(20).reshape(4, 5)
        b = rng.normal(15).reshape(5, 3)
        c = rng.normal(6).reshape(3, 2)
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        denom = max(np.abs(left).max(), 1e-30)
        assert np.abs(left - right).max() / denom < 1e-9


def _loop_matmul(a, b):
    """Oracle: rank-1 updates into zeros, k ascending (matmul's reference order)."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b, np.float64))
    with np.errstate(all="ignore"):
        for k in range(a.shape[1]):
            out += a[:, k : k + 1] * b[k : k + 1, :]
    if not np.isfinite(out).all():
        raise InvariantError("oracle produced non-finite entries")
    return out


def _assert_identical(got, want):
    # values plus sign of zero; tobytes() would also compare longdouble padding
    assert got.dtype == want.dtype and got.shape == want.shape
    # row reductions downstream can sum in another order on other layouts
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


_SPECIALS = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, 1.0, -1.0])
_CAP = linalg._BROADCAST_MAX_ELEMS
_MIN_PASS = linalg._MIN_PASS_SLICES
# A pass holds _CAP // (m*n) products per entry: for a 16 x 16 output k = 256
# fills one pass exactly, 257 needs a second, 512 fills two and 513 a third.
_GRID = list(itertools.product([1, 2, 3, 8, 24, 33], [1, 7, 8, 9, 24, 65],
                               [1, 2, 3, 8, 24, 33]))
_GRID += [(16, 256, 16), (16, 257, 16), (16, 512, 16), (16, 513, 16), (64, 24, 48),
          (0, 3, 4), (3, 0, 4)]
# thin outputs, n < m (out^T is formed) and n > m, in one pass and in several
_GRID += [(80, 16, 4), (4, 16, 80), (768, 24, 4), (4, 24, 768), (320, 40, 16),
          (16, 40, 320), (48, 7, 24), (24, 7, 48)]
# the k-loop: outputs too large for _MIN_PASS products per pass, just below
# and on the width where passes take over
_GRID += [(_CAP // (_MIN_PASS - 1) // 16 + 1, 30, 16),
          (16, 30, _CAP // (_MIN_PASS - 1) // 16 + 1), (_CAP // _MIN_PASS // 16, 30, 16)]


def _operands(rng, m, k, n, variant):
    if variant == "specials":
        # 1e300 only on the left, so the sums stay finite
        finite = _SPECIALS[_SPECIALS != 1e300]
        a = _SPECIALS[rng.integers(m * k, len(_SPECIALS))].reshape(m, k)
        b = finite[rng.integers(k * n, len(finite))].reshape(k, n)
        return a, b
    # entries spread over 12 decades, so a change of summation order shows
    a = (rng.normal(m * k) * 10.0 ** (rng.integers(m * k, 12) - 6)).reshape(m, k)
    b = rng.normal(k * n).reshape(k, n)
    if variant == "transposed":
        a, b = np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T
    elif variant == "longdouble":
        a = a.astype(np.longdouble)
    return a, b


@pytest.mark.parametrize("variant", ["float64", "transposed", "longdouble", "specials"])
def test_matmul_identical_to_loop_oracle(variant):
    rng = SeededRng(17).derive(variant)
    for m, k, n in _GRID:
        a, b = _operands(rng, m, k, n, variant)
        _assert_identical(matmul(a, b), _loop_matmul(a, b))


def test_matmul_all_negative_zero_products_give_positive_zero():
    out = matmul(np.full((3, 9), -0.0), np.ones((9, 2)))
    _assert_identical(out, _loop_matmul(np.full((3, 9), -0.0), np.ones((9, 2))))
    assert not np.signbit(out).any()


# runs of -0.0 products across pass boundaries, both orientations, 2-D and stacked
@pytest.mark.parametrize("m, k, n", [(16, 300, 16), (16, 600, 8), (8, 600, 16)])
def test_matmul_negative_zero_run_across_passes_gives_positive_zero(m, k, n):
    a, b = np.full((m, k), -0.0), np.ones((k, n))
    out = matmul(a, b)
    _assert_identical(out, _loop_matmul(a, b))
    assert not np.signbit(out).any()
    stacked = matmul(np.stack([a, a]), np.stack([b, b]))
    assert stacked.flags.c_contiguous and not np.signbit(stacked).any()


# only the last product overflows: in the last of 2 or 3 passes for the
# 16 x 16, 32 x 8 and 8 x 32 outputs
@pytest.mark.parametrize("m, k, n", [(2, 2, 2), (16, _CAP // 256 + 1, 16), (16, 513, 16),
                                     (32, 300, 8), (8, 300, 32), (1, 3, 1)])
def test_matmul_overflow_raises_like_oracle(m, k, n):
    a, b = np.ones((m, k)), np.ones((k, n))
    a[:, -1] = b[-1, :] = 1e300
    with pytest.raises(InvariantError):
        _loop_matmul(a, b)
    with pytest.raises(InvariantError):
        matmul(a, b)


# (G, m, k, n): m = n = 1 stacks, a product on the cap and one just over it,
# and shapes whose single group is under the cap while the stack is over it
_GROUPED = [(g, m, k, n) for g in (2, 3, 5) for m, k, n in
            [(1, 1, 1), (1, 9, 1), (1, 7, 3), (10, 8, 10), (10, 10, 8), (3, 65, 2)]]
_GROUPED += [(4, 16, _CAP // 1024, 16), (4, 16, _CAP // 1024 + 1, 16), (37, 16, 16, 16),
             (2, 0, 3, 4), (2, 3, 0, 4)]
# several passes (64 products per pass at 4 x 16 x 16), and thin outputs
# either way round, in one pass and in several
_GROUPED += [(4, 16, 200, 16), (3, 40, 30, 4), (3, 4, 30, 40), (4, 64, 40, 8),
             (4, 8, 40, 64), (8, 16, 10, 10)]


@pytest.mark.parametrize("variant", ["float64", "transposed", "longdouble", "specials"])
def test_grouped_matmul_identical_to_loop_oracle_per_group(variant):
    rng = SeededRng(23).derive(variant)
    for g, m, k, n in _GROUPED:
        pairs = [_operands(rng, m, k, n, variant) for _ in range(g)]
        a, b = np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])
        if variant == "transposed":
            a, b = (np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1) for x in (a, b))
        got = matmul(a, b)
        assert got.shape == (g, m, n)
        for i in range(g):
            _assert_identical(got[i], _loop_matmul(a[i], b[i]))


@pytest.mark.parametrize("g, m, k, n", [(3, 2, 2, 2), (4, 16, _CAP // 1024 + 1, 16),
                                        (2, 1, 3, 1), (4, 64, 40, 8)])
def test_grouped_matmul_overflow_raises(g, m, k, n):
    a, b = np.ones((g, m, k)), np.ones((g, k, n))
    a[-1] = b[-1] = 1e300  # only the last group overflows
    with pytest.raises(InvariantError):
        matmul(a, b)
    a, b = np.ones((g, m, k)), np.ones((g, k, n))
    a[..., -1] = b[..., -1, :] = 1e300  # only the last product, in the last pass
    with pytest.raises(InvariantError):
        matmul(a, b)


def test_grouped_matmul_shape_errors():
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        matmul(np.zeros((2, 3, 4)), np.zeros((3, 4, 5)))
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3, 4)), np.zeros((4, 5)))


def test_matvec_consistent_with_matmul():
    rng = SeededRng(4)
    m = rng.normal(12).reshape(3, 4)
    v = rng.normal(4)
    assert matvec(m, v).tobytes() == matmul(m, v.reshape(4, 1)).ravel().tobytes()


def test_kaiming_bound_is_one_for_fan_in_six():
    m = kaiming_uniform(1, 6, SeededRng(0))
    assert (np.abs(m) <= 1.0).all()


def test_kaiming_same_seed_bitwise():
    a = kaiming_uniform(17, 5, SeededRng(8))
    b = kaiming_uniform(17, 5, SeededRng(8))
    assert a.tobytes() == b.tobytes()


def test_kaiming_moments():
    # uniform on [-b, b]: mean 0, std b / sqrt(3)
    m = kaiming_uniform(1000, 4, SeededRng(21))
    b = np.sqrt(6.0 / 4.0)
    sigma = b / np.sqrt(3.0)
    assert abs(m.mean()) < 3.0 * sigma / np.sqrt(m.size)
    assert abs(m.std() - sigma) < 0.1 * sigma


def test_kaiming_zero_dim_rejected():
    with pytest.raises(ShapeError):
        kaiming_uniform(0, 3, SeededRng(0))


def test_softmax_symmetry():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)


def test_softmax_closed_form():
    out = softmax(np.array([np.log(2.0), 0.0]))
    assert abs(out[0] - 2.0 / 3.0) < 1e-12
    assert abs(out[1] - 1.0 / 3.0) < 1e-12


def test_softmax_large_inputs_stable():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    assert out[0] > 1.0 - 1e-12


def test_softmax_sum_and_shift_invariance():
    rng = SeededRng(2)
    for _ in range(50):
        v = rng.normal(6) * 10
        out = softmax(v)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.abs(out - softmax(v + 3.7)).max() < 1e-12


def test_softmax_empty_rejected():
    with pytest.raises(ShapeError):
        softmax(np.array([]))


def test_softmax_nonfinite_rejected():
    with pytest.raises(ContractError):
        softmax(np.array([np.inf, 0.0]))


def test_frobenius_cases():
    m = SeededRng(1).normal(9).reshape(3, 3)
    assert frobenius_distance(m, m) == 0.0
    assert frobenius_distance(np.array([[0.0]]), np.array([[3.0]])) == 3.0
    assert abs(frobenius_distance(np.eye(2), np.zeros((2, 2))) - np.sqrt(2)) < 1e-15
    with pytest.raises(ShapeError):
        frobenius_distance(np.zeros((2, 2)), np.zeros((3, 2)))
