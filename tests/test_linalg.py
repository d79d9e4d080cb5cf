import itertools

import numpy as np
import pytest

from hydra_peft.errors import ContractError, InvariantError, ShapeError
from hydra_peft.autodiff import Tape
from hydra_peft.linalg import SeededRng, kaiming_uniform, matmul, uniform_to_int


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


@pytest.mark.parametrize("high", [np.uint64(7), np.int32(7), np.uint8(7)])
def test_rng_integers_numpy_bounds_give_the_python_int_draws(high):
    vals = SeededRng(3).integers(50, high)
    assert vals.dtype == np.int64
    assert vals.tolist() == SeededRng(3).integers(50, 7).tolist()


@pytest.mark.parametrize("draw", [
    lambda r: r.next_uint64(-1), lambda r: r.uniform(-2), lambda r: r.uniform(2.5),
    lambda r: r.normal(-1), lambda r: r.normal(-2), lambda r: r.normal(3.0),
    lambda r: r.integers(-3, 5), lambda r: r.integers(3, 2.5), lambda r: r.integers(3, 0),
])
def test_rng_rejects_bad_counts_and_bounds_without_moving_the_stream(draw):
    r = SeededRng(1)
    r.uniform(2)
    with pytest.raises(ContractError):
        draw(r)
    assert r._counter == 2
    assert r.uniform(2).tobytes() == SeededRng(1).uniform(4)[2:].tobytes()


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
# Shapes of every kind: 1-entry outputs, one row or one column, either side
# the longer, empty ones, and k from 0 to 513.
_GRID = list(itertools.product([1, 2, 3, 8, 24, 33], [1, 7, 8, 9, 24, 65],
                               [1, 2, 3, 8, 24, 33]))
_GRID += [(16, 256, 16), (16, 257, 16), (16, 512, 16), (16, 513, 16), (64, 24, 48),
          (0, 3, 4), (3, 0, 4)]
# thin outputs, n < m and n > m (out^T is formed)
_GRID += [(80, 16, 4), (4, 16, 80), (768, 24, 4), (4, 24, 768), (320, 40, 16),
          (16, 40, 320), (48, 7, 24), (24, 7, 48)]
# outputs of several thousand entries, and the evaluate products either way
# round
_GRID += [(456, 30, 16), (16, 30, 456), (409, 30, 16)]
_GRID += [(768, 24, 48), (48, 24, 768), (768, 48, 24), (24, 48, 768), (768, 26, 24),
          (24, 26, 768), (4000, 24, 2), (91, 80, 80)]
# n * k = 2^16 and just over it, and 8,193 rows of one column
_GRID += [(26, 256, 256), (26, 257, 256), (8193, 8, 1)]


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
    if variant == "longdouble":
        a = a.astype(np.longdouble)
    return a, b


def _laid_out(a, b, variant):
    """Views of the operands in the layout the variant names, 2-D or stacked."""
    if variant == "transposed":  # F order
        return tuple(np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2) for x in (a, b))
    if variant == "reversed":  # negative strides along k on both sides, which
        return a[..., ::-1], b[..., ::-1, :]  # numpy's iterator could flip
    if variant == "broadcast":  # stride 0 along the rows of a and along k in b
        return np.broadcast_to(a[..., :1, :], a.shape), np.broadcast_to(b[..., :1, :], b.shape)
    return a, b


_VARIANTS = ["float64", "transposed", "longdouble", "specials", "reversed", "broadcast"]


@pytest.mark.parametrize("variant", _VARIANTS)
def test_matmul_identical_to_loop_oracle(variant):
    rng = SeededRng(17).derive(variant)
    for m, k, n in _GRID:
        a, b = _laid_out(*_operands(rng, m, k, n, variant), variant)
        _assert_identical(matmul(a, b), _loop_matmul(a, b))


def _converted_loop_matmul(a, b):
    """Oracle for any operand dtypes: convert both to matmul's output dtype, then loop."""
    dtype = np.result_type(a, b, np.float64)
    return _loop_matmul(a.astype(dtype), b.astype(dtype))


def _typed(rng, shape, dtype):
    size = int(np.prod(shape))
    if dtype == "int32":  # products reach 2**40, past int32
        return (rng.integers(size, 1 << 21) - (1 << 20)).astype(np.int32).reshape(shape)
    if dtype == "int64":  # exact in float64, products reach 2**80, past int64
        return ((rng.integers(size, 1 << 21) - (1 << 20)) << 20).reshape(shape)
    return (rng.normal(size) * 10.0 ** (rng.integers(size, 12) - 6)).astype(dtype).reshape(shape)


_DTYPE_PAIRS = [("float32", "float32"), ("int32", "int32"), ("int64", "int64"),
                ("float32", "float64"), ("float64", "float32"), ("strided", "strided")]
# square, thin either way round, and k = 300 either way round
_DTYPE_SHAPES = [(24, 24, 24), (80, 16, 4), (4, 16, 80), (16, 300, 16), (32, 300, 8),
                 (8, 300, 32)]


def _dtype_operands(rng, lead, m, k, n, kinds):
    if kinds == ("strided", "strided"):
        # step-sliced views: every other column of a, every other row of b
        return (_typed(rng, (*lead, m, 2 * k), "float64")[..., ::2],
                _typed(rng, (*lead, 2 * k, n), "float64")[..., ::2, :])
    return _typed(rng, (*lead, m, k), kinds[0]), _typed(rng, (*lead, k, n), kinds[1])


@pytest.mark.parametrize("kinds", _DTYPE_PAIRS, ids=["-".join(p) for p in _DTYPE_PAIRS])
@pytest.mark.parametrize("groups", [None, 3])
def test_matmul_converts_operands_and_both_kernels_agree(kinds, groups):
    rng = SeededRng(29).derive(*kinds, groups or 0)
    lead = () if groups is None else (groups,)
    for m, k, n in _DTYPE_SHAPES:
        a, b = _dtype_operands(rng, lead, m, k, n, kinds)
        got = matmul(a, b)
        want = (_converted_loop_matmul(a, b) if groups is None
                else np.stack([_converted_loop_matmul(x, y) for x, y in zip(a, b)]))
        _assert_identical(got, want)
        # the einsum's corner entries against the 1-entry k-loop on the same operands
        x, y = (a, b) if groups is None else (a[:1], b[:1])
        for i, j in ((0, 0), (m - 1, n - 1)):
            _assert_identical(matmul(x[..., i : i + 1, :], y[..., j : j + 1]),
                              got[..., i : i + 1, j : j + 1][: 1 if groups else None])


def _stacked_loop_matmul(a, b):
    """The loop oracle, per group for stacks."""
    return _loop_matmul(a, b) if a.ndim == 2 else np.stack([_loop_matmul(x, y) for x, y in zip(a, b)])


def test_matmul_rounds_each_product_before_the_add():
    # (1 + 2^-27)(1 - 2^-27) = 1 - 2^-54 rounds to 1.0, so the sum is -1 + 1.0
    # = +0.0; a fused multiply-add keeps the product exact and gives -2^-54.
    # The kernel's bytes hold only where numpy's einsum rounds each product, as
    # its x86-64 baseline build does; where its loop fuses them (aarch64 NEON)
    # this fails first. Both orientations and a stack.
    a, b = np.array([[-1.0, 1.0 + 2.0**-27]] * 2), np.array([[1.0], [1.0 - 2.0**-27]])
    for x, y in ((a, b), (b.T, a.T), (np.stack([a, a]), np.stack([b, b]))):
        out = matmul(x, y)
        _assert_identical(out, _stacked_loop_matmul(x, y))
        assert out.shape[-2:] == x.shape[-2:-1] + y.shape[-1:] and not out.any()
        assert not np.signbit(out).any()


@pytest.mark.parametrize("stacked", [False, True])
def test_matmul_seeded_sweep_matches_the_loop_oracle(stacked):
    # random shapes in both orientations and in C and F layouts, one in four
    # of them a 1-entry output; k up to 96, and entries over 12 decades, so
    # any other summation order over k, or several accumulators, shows
    rng = SeededRng(41).derive(int(stacked))
    for trial in range(40):
        g, m, k, n = (int(v) for v in uniform_to_int(rng.uniform(4), np.array([4, 40, 97, 40])))
        g, m, n = (1, 1, 1) if trial % 4 == 0 else (g + 1, m + 1, n + 1)
        lead = (g,) if stacked else ()
        for rows, cols in ((m, n), (n, m)):
            a, b = _typed(rng, (*lead, rows, k), "float64"), _typed(rng, (*lead, k, cols), "float64")
            if trial % 2:
                a, b = (np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2) for x in (a, b))
            _assert_identical(matmul(a, b), _stacked_loop_matmul(a, b))


def test_matmul_all_negative_zero_products_give_positive_zero():
    out = matmul(np.full((3, 9), -0.0), np.ones((9, 2)))
    _assert_identical(out, _loop_matmul(np.full((3, 9), -0.0), np.ones((9, 2))))
    assert not np.signbit(out).any()


# long runs of -0.0 products, both orientations, 2-D and stacked, and over
# 200 rows
@pytest.mark.parametrize("m, k, n", [(16, 300, 16), (16, 600, 8), (8, 600, 16), (200, 24, 48)])
def test_matmul_negative_zero_run_across_passes_gives_positive_zero(m, k, n):
    a, b = np.full((m, k), -0.0), np.ones((k, n))
    out = matmul(a, b)
    _assert_identical(out, _loop_matmul(a, b))
    assert not np.signbit(out).any()
    stacked = matmul(np.stack([a, a]), np.stack([b, b]))
    assert stacked.flags.c_contiguous and not np.signbit(stacked).any()


# only the last product overflows, for square and thin outputs either way
# round and for a 1-entry output
@pytest.mark.parametrize("m, k, n", [(2, 2, 2), (16, 257, 16), (16, 513, 16),
                                     (32, 300, 8), (8, 300, 32), (1, 3, 1)])
def test_matmul_overflow_raises_like_oracle(m, k, n):
    a, b = np.ones((m, k)), np.ones((k, n))
    a[:, -1] = b[-1, :] = 1e300
    with pytest.raises(InvariantError):
        _loop_matmul(a, b)
    with pytest.raises(InvariantError):
        matmul(a, b)


def test_matmul_overflow_and_inf_times_zero_set_no_floating_point_error():
    # Only the 1-entry loop runs under np.errstate(all="ignore"): einsum sets
    # no floating-point error for 1e200 * 1e200 or inf * 0, so under "raise"
    # both still reach the finiteness check, in either orientation, stacked
    # and through the loop
    big_a, big_b = np.full((3, 2), 1e200), np.full((2, 4), 1e200)
    inf_a, inf_b = np.array([[np.inf, 1.0]] * 3), np.array([[0.0] * 4, [1.0] * 4])
    cases = []
    for a, b in ((big_a, big_b), (inf_a, inf_b)):
        cases += [(a, b), (b.T, a.T), (np.stack([a, a]), np.stack([b, b])), (a[:1], b[:, :1])]
    with np.errstate(all="raise"):
        for a, b in cases:
            with pytest.raises(InvariantError):
                matmul(a, b)


# only the last row's products overflow, in outputs of 6,656 to 36,864
# entries
@pytest.mark.parametrize("m, k, n", [(768, 24, 48), (91, 80, 80), (26, 256, 256)])
def test_matmul_overflow_in_the_last_row_block_raises(m, k, n):
    a, b = np.ones((m, k)), np.ones((k, n))
    a[-1, 0] = b[0, 0] = 1e300
    with pytest.raises(InvariantError):
        _loop_matmul(a, b)
    with pytest.raises(InvariantError):
        matmul(a, b)


# (G, m, k, n): m = n = 1 stacks, 2^16 products and just over, 37 groups and
# empty stacks
_GROUPED = [(g, m, k, n) for g in (2, 3, 5) for m, k, n in
            [(1, 1, 1), (1, 9, 1), (1, 7, 3), (10, 8, 10), (10, 10, 8), (3, 65, 2)]]
_GROUPED += [(4, 16, 64, 16), (4, 16, 65, 16), (37, 16, 16, 16), (2, 0, 3, 4), (2, 3, 0, 4)]
# k = 200, and thin outputs either way round
_GROUPED += [(4, 16, 200, 16), (3, 40, 30, 4), (3, 4, 30, 40), (4, 64, 40, 8),
             (4, 8, 40, 64), (8, 16, 10, 10)]


@pytest.mark.parametrize("variant", _VARIANTS)
def test_grouped_matmul_identical_to_loop_oracle_per_group(variant):
    rng = SeededRng(23).derive(variant)
    for g, m, k, n in _GROUPED:
        pairs = [_operands(rng, m, k, n, variant) for _ in range(g)]
        a, b = _laid_out(np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs]), variant)
        got = matmul(a, b)
        assert got.shape == (g, m, n)
        for i in range(g):
            _assert_identical(got[i], _loop_matmul(a[i], b[i]))


@pytest.mark.parametrize("g, m, k, n", [(3, 2, 2, 2), (4, 16, 65, 16),
                                        (2, 1, 3, 1), (4, 64, 40, 8)])
def test_grouped_matmul_overflow_raises(g, m, k, n):
    a, b = np.ones((g, m, k)), np.ones((g, k, n))
    a[-1] = b[-1] = 1e300  # only the last group overflows
    with pytest.raises(InvariantError):
        matmul(a, b)
    a, b = np.ones((g, m, k)), np.ones((g, k, n))
    a[..., -1] = b[..., -1, :] = 1e300  # only the last product
    with pytest.raises(InvariantError):
        matmul(a, b)


def test_grouped_matmul_shape_errors():
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        matmul(np.zeros((2, 3, 4)), np.zeros((3, 4, 5)))
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3, 4)), np.zeros((4, 5)))


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


# -- row softmax: Tape.softmax_rows, the router's and attention's ------------


def _softmax(v):
    tape = Tape()
    return tape.value(tape.softmax_rows(tape.input(np.asarray(v)[None])))[0]


def test_softmax_symmetry():
    assert np.allclose(_softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)


def test_softmax_closed_form():
    out = _softmax(np.array([np.log(2.0), 0.0]))
    assert abs(out[0] - 2.0 / 3.0) < 1e-12
    assert abs(out[1] - 1.0 / 3.0) < 1e-12


def test_softmax_large_inputs_stable():
    out = _softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    assert out[0] > 1.0 - 1e-12


def test_softmax_sum_and_shift_invariance():
    rng = SeededRng(2)
    for _ in range(50):
        v = rng.normal(6) * 10
        out = _softmax(v)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.abs(out - _softmax(v + 3.7)).max() < 1e-12
