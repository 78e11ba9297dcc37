import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rprnmf import DenseMatrix, MaskMatrix, frobenius_sq_diff, matrix_divergence, md, rmse
from rprnmf import matrix
from rprnmf.exceptions import NonPositiveModelEntryError, RprNmfError, ShapeMismatchError
from rprnmf.matrix import EPS, ObservedCells, check_data

from oracles import cell_layout, divergence_fit, ordered_model, sq_diff_fit, two_reduction_check


class TestConstruction:
    def test_zero_matrix_is_valid(self):
        m = DenseMatrix([[0.0]])
        assert m.rows == 1 and m.cols == 1
        assert m[0, 0] == 0.0

    def test_direct_construction(self):
        m = DenseMatrix([[1, 2], [3, 4]])
        assert m[1, 0] == 3.0
        assert m.a.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_not_a_nonempty_2d_array_rejected(self):
        for bad in ([1.0, 2.0], [[[1.0]]], np.zeros((0, 3))):
            with pytest.raises(ShapeMismatchError):
                DenseMatrix(bad)

    def test_general_constructor_permits_signed(self):
        m = DenseMatrix([[1.0, -2.0]])
        assert m[0, 1] == -2.0

    def test_mask_rejects_non_binary(self):
        with pytest.raises(ShapeMismatchError):
            MaskMatrix([[0.0, 0.5]])

    def test_mask_flat_round_trip(self):
        rng = np.random.default_rng(3)
        for shape in ((1, 1), (4, 7), (9, 2)):
            for density in (0.0, 0.3, 1.0):
                b = (rng.uniform(0, 1, shape) < density).astype(float)
                mask = MaskMatrix(b)
                assert np.array_equal(mask.flat, np.flatnonzero(b)) and mask.count == b.sum()
                assert not mask.flat.flags.writeable
                assert np.array_equal(MaskMatrix.from_flat(shape, mask.flat).bits, b)
                back = pickle.loads(pickle.dumps(mask))
                assert back.shape == shape and np.array_equal(back.flat, mask.flat)


class TestFrobenius:
    def test_identical_matrices(self):
        v = DenseMatrix([[1, 2], [3, 4]])
        assert frobenius_sq_diff(v, v) == 0.0

    def test_direct_arithmetic(self):
        v = DenseMatrix([[1, 2], [3, 4]])
        wh = DenseMatrix([[1, 2], [3, 5]])
        assert frobenius_sq_diff(v, wh) == pytest.approx(1.0)

    # a masked fit is the fit of the values at the observed cells; rmse is
    # the squared-difference fit that takes a dense prediction and a mask

    def test_masked_entry_excluded(self):
        v = DenseMatrix([[1, 2], [3, 4]])
        wh = DenseMatrix([[1, 2], [3, 5]])
        mask = MaskMatrix([[1, 1], [1, 0]])
        assert rmse(v, wh, mask) == 0.0

    def test_masked_invariant_to_unobserved_changes(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(0, 1, (6, 5))
        wh = rng.uniform(0, 1, (6, 5))
        bits = (rng.uniform(0, 1, (6, 5)) < 0.5).astype(float)
        mask = MaskMatrix(bits)
        base = rmse(v, wh, mask)
        v2 = v + (1 - bits) * rng.uniform(1, 9, (6, 5))
        assert rmse(v2, wh, mask) == pytest.approx(base, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            frobenius_sq_diff(DenseMatrix([[1]]), DenseMatrix([[1, 2]]))


class TestDivergence:
    def test_identical_positive_matrices(self):
        v = DenseMatrix([[1, 2], [3, 4]])
        assert matrix_divergence(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_direct_arithmetic(self):
        got = matrix_divergence(DenseMatrix([[1.0]]), DenseMatrix([[2.0]]))
        assert got == pytest.approx(1 - math.log(2), rel=1e-12)

    def test_zero_entry_convention(self):
        assert matrix_divergence(DenseMatrix([[0.0]]), DenseMatrix([[2.0]])) == pytest.approx(2.0)

    def test_negative_model_rejected(self):
        with pytest.raises(NonPositiveModelEntryError):
            matrix_divergence(DenseMatrix([[1.0]]), DenseMatrix([[-1.0]]))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.uniform(0.1, 3, (4, 3))
            wh = rng.uniform(0.1, 3, (4, 3))
            d = matrix_divergence(DenseMatrix(v), DenseMatrix(wh))
            assert d >= 0.0
            if not np.allclose(v, wh):
                assert d > 0.0

    def test_masked_invariant_to_unobserved_changes(self):
        # md forms the masked divergence at the observed cells
        rng = np.random.default_rng(6)
        v = rng.uniform(0.1, 2, (5, 4))
        w, h = rng.uniform(0.1, 1, (5, 2)), rng.uniform(0.1, 1, (2, 4))
        bits = (rng.uniform(0, 1, (5, 4)) < 0.5).astype(float)
        mask = MaskMatrix(bits)
        base = md(v, w, h, mask)
        assert base > 0.0
        v2 = v + (1 - bits) * 7.0
        assert md(v2, w, h, mask) == pytest.approx(base, rel=1e-12)


# data entries: zero, below EPS and ordinary; model entries: those, -0.0, NaN and +inf
DATA_ENTRIES = st.one_of(st.just(0.0), st.floats(0.0, EPS), st.floats(EPS, 1e3))
MODEL_ENTRIES = st.one_of(DATA_ENTRIES, st.sampled_from([-0.0, np.nan, np.inf]))


@st.composite
def fit_operands(draw):
    """V and a model of one shape: a 1-D run of cells, or a 2-D matrix."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 12)),
                           st.tuples(st.integers(1, 5), st.integers(1, 5))))
    return (draw(arrays(np.float64, shape, elements=DATA_ENTRIES)),
            draw(arrays(np.float64, shape, elements=MODEL_ENTRIES)))


class TestFitsInPlace:
    """The in-place fits against the plain expressions of ``tests/oracles.py``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(operands=fit_operands())
    def test_fits_equal_the_plain_expressions(self, operands):
        v, wh = operands
        v0, wh0 = v.copy(), wh.copy()
        for fit, oracle in ((frobenius_sq_diff, sq_diff_fit), (matrix_divergence, divergence_fit)):
            # inf - inf at an infinite model entry is NaN in both, by design
            with np.errstate(invalid="ignore"):
                got, want = fit(v, wh), oracle(v, wh)
            assert got == want or (math.isnan(got) and math.isnan(want))
            # neither fit writes into its operands
            assert np.array_equal(v, v0) and np.array_equal(wh, wh0, equal_nan=True)

    @settings(max_examples=50, deadline=None)
    @given(operands=fit_operands(), data=st.data())
    def test_negative_model_entry_still_refused(self, operands, data):
        v, wh = operands
        wh.flat[data.draw(st.integers(0, wh.size - 1))] = -data.draw(st.floats(1e-300, 1e3))
        with pytest.raises(NonPositiveModelEntryError):
            matrix_divergence(v, wh)


# float64 bit patterns check_data must treat as the two-reduction rule does
SPECIAL_BITS = st.one_of(
    st.just(0x8000000000000000),                                  # -0.0
    st.integers(0x8000000000000001, 0x800FFFFFFFFFFFFF),          # negative subnormals
    st.integers(0x8010000000000000, 0xFFEFFFFFFFFFFFFF),          # negative normals
    st.sampled_from([0xFFF0000000000000, 0x7FF0000000000000]),    # -inf, +inf
    st.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF),          # NaN, sign bit clear
    st.integers(0xFFF0000000000001, 0xFFFFFFFFFFFFFFFF),          # NaN, sign bit set
    st.integers(1, 0x000FFFFFFFFFFFFF),                           # positive subnormals
    st.just(0x7FEFFFFFFFFFFFFF),                                  # the largest finite
)


def _outcome(check, v):
    """None when ``check`` accepts ``v``, else the error's type, index and value bits."""
    try:
        check(v)
    except RprNmfError as exc:
        return type(exc), exc.index, np.float64(exc.value).view(np.uint64)
    return None


class TestEntryCheck:
    """``check_data`` against the two-reduction rule of ``tests/oracles.py``."""

    @settings(max_examples=400, deadline=None)
    @given(base=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                       elements=st.floats(0.0, 1e300)),
           data=st.data(), layout=st.sampled_from(["c", "transposed", "strided"]))
    def test_accepts_and_refuses_as_the_two_reductions(self, base, data, layout):
        bits = base.view(np.uint64)
        for _ in range(data.draw(st.integers(0, 3))):
            bits.flat[data.draw(st.integers(0, base.size - 1))] = data.draw(SPECIAL_BITS)
        v = {"c": base, "transposed": base.T, "strided": base[::-1, ::2]}[layout]
        want = _outcome(two_reduction_check, v)
        assert _outcome(check_data, v) == want
        if want is None:
            assert check_data(v) is v


class TestCellLayout:
    """The CSR layout of ``ObservedCells`` against the divmod/bincount oracle."""

    @pytest.mark.parametrize("rows", [
        [[], [], [1, 3], [], [0], [], []],   # leading, interior and trailing empty rows
        [[0, 1, 2, 3, 4], [2]],              # a full row
        [[], [], [4]],                       # a single cell
        [[0, 4], [1, 2, 3], [0, 1, 2, 3, 4]],
    ])
    def test_layout_matches_divmod_oracle(self, rows):
        bits = np.zeros((len(rows), 5))
        for i, cols in enumerate(rows):
            bits[i, cols] = 1.0
        v = np.arange(bits.size, dtype=float).reshape(bits.shape)
        mask = MaskMatrix(bits)
        cells = ObservedCells(v, mask)
        indptr, cols = cell_layout(mask.flat, bits.shape)
        assert cells.cols.dtype == np.int32
        assert np.array_equal(cells.indptr, indptr) and np.array_equal(cells.cols, cols)
        assert np.array_equal(cells.v, v.ravel()[mask.flat])

    def test_columns_beyond_int32_refused(self, monkeypatch):
        # zero strides: V does not allocate its 2**31 entries, and the
        # refusal comes before anything reads them
        monkeypatch.setattr(matrix, "_load", lambda: pytest.fail("kernel reached"))
        v = np.broadcast_to(0.0, (1, 2**31))
        with pytest.raises(ShapeMismatchError, match="int32"):
            ObservedCells(v, MaskMatrix.from_flat(v.shape, [0, 2**31 - 1]))

    @pytest.mark.parametrize("layout", ["transposed", "strided"])
    def test_cells_of_a_v_that_is_not_c_contiguous(self, layout):
        base = np.arange(7.0 * 12).reshape(7, 12)
        v = base.T if layout == "transposed" else base[::2, ::3]
        bits = (np.arange(v.size).reshape(v.shape) % 3 != 1).astype(float)
        cells = ObservedCells(v, MaskMatrix(bits))
        assert np.array_equal(cells.v, np.ascontiguousarray(v).ravel()[np.flatnonzero(bits)])

    def test_two_cells_of_a_broadcast_v_read_alone(self):
        # zero strides: a copy of V whole would allocate 16 GiB
        v = np.broadcast_to(np.float64(2.5), (1, 2**31 - 1))
        cells = ObservedCells(v, MaskMatrix.from_flat(v.shape, [3, 2**31 - 2]))
        assert cells.v.tolist() == [2.5, 2.5] and cells.cols.tolist() == [3, 2**31 - 2]


class TestObservedModel:
    """``ObservedCells.model`` against each cell's dot product summed exactly."""

    @staticmethod
    def check(w, h, bits):
        cells = ObservedCells(np.zeros(bits.shape), MaskMatrix(bits))
        got = cells.model(w, h)
        rows, cols = np.nonzero(bits)
        k = w.shape[1]
        want = np.array([math.fsum(w[i, l] * h[l, j] for l in range(k))
                         for i, j in zip(rows.tolist(), cols.tolist())])
        # a sum of k positive products in any order is within (k - 1) * 2**-53 of exact
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= k * 2.0 ** -52 * want)

    def test_random_masks_match_exact_sums(self):
        rng = np.random.default_rng(13)
        for (n, m), k, density in (((7, 9), 1, 0.5), ((30, 20), 3, 0.3), ((40, 50), 20, 0.2),
                                   ((12, 1), 5, 0.7), ((1, 15), 4, 1.0)):
            bits = (rng.uniform(0, 1, (n, m)) < density).astype(float)
            self.check(rng.uniform(0, 1, (n, k)), rng.uniform(0, 1, (k, m)), bits)

    def test_single_observed_cell(self):
        rng = np.random.default_rng(14)
        bits = np.zeros((6, 4))
        bits[3, 2] = 1.0
        self.check(rng.uniform(0, 1, (6, 5)), rng.uniform(0, 1, (5, 4)), bits)

    def test_fortran_w_and_transposed_view_h(self):
        rng = np.random.default_rng(15)
        bits = (rng.uniform(0, 1, (25, 18)) < 0.4).astype(float)
        w = np.asfortranarray(rng.uniform(0, 1, (25, 6)))
        h = rng.uniform(0, 1, (18, 6)).T  # a view of H's transpose
        assert not w.flags.c_contiguous and not h.flags.c_contiguous
        self.check(w, h, bits)
        self.check(rng.uniform(0, 1, (50, 12))[::2, ::2], h, bits)  # strided slices

    @pytest.mark.parametrize("k", [1, 2, 20])
    def test_bit_for_bit_ascending_sums(self, k):
        # rows of 0 to 9 cells: every remainder of the four-cell block, twice over
        rng = np.random.default_rng(16 + k)
        bits = np.zeros((20, 12))
        for i in range(20):
            bits[i, rng.choice(12, i % 10, replace=False)] = 1.0
        # mixed signs over twelve orders of magnitude, so that an order other
        # than ascending l rounds differently
        w, h = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
                for shape in ((20, k), (k, 12)))
        got = ObservedCells(np.zeros(bits.shape), MaskMatrix(bits)).model(w, h)
        want = ordered_model(w, h, bits)
        assert got.shape == want.shape and np.all(got == want)

    def test_factors_that_do_not_fit_refused_before_the_kernel(self, monkeypatch):
        cells = ObservedCells(np.ones((4, 3)), np.ones((4, 3)))
        monkeypatch.setattr(matrix, "_load", lambda: pytest.fail("kernel reached"))
        w, h = np.ones((4, 2)), np.ones((2, 3))
        for bad_w, bad_h in ((np.ones((5, 2)), h), (w, np.ones((2, 4))), (w, np.ones((3, 3))),
                             (w.astype(np.float32), h), (w, h.astype(np.float32)),
                             (np.ones(4), h), (w, np.ones((1, 2, 3)))):
            with pytest.raises(ShapeMismatchError):
                cells.model(bad_w, bad_h)
