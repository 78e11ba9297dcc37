import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from rprnmf import DenseMatrix, FactorisationReport, MaskMatrix, Measure, SolverConfig, run
from rprnmf.exceptions import (
    DegenerateMaskError,
    InvalidRangeError,
    MalformedLineError,
    NonNumericCsvError,
    RaggedCsvError,
    TooSparseError,
)
from rprnmf import io as rio
from rprnmf.io import (
    REPORT_SCHEMA,
    make_cv_split,
    ratings_to_matrix,
    read_dense_csv,
    read_ratings,
    read_report,
    write_dense_csv,
    write_report,
    zeros_as_missing,
)


def loop_cv_folds(bits, folds, seed):
    """Fold masks and reassignment count of make_cv_split, one cell at a time.

    The reference for its vectorised fold assignment: same permutation, same
    coverage repair.
    """
    coords = np.argwhere(bits > 0)
    order = np.random.default_rng(seed).permutation(len(coords))
    assignment = [[] for _ in range(folds)]
    for pos, entry in enumerate(order):
        assignment[pos % folds].append(tuple(coords[entry]))
    reassigned = 0
    fold_bits = []
    for f in range(folds):
        held = np.zeros_like(bits)
        for i, j in assignment[f]:
            held[i, j] = 1.0
        training = bits - held
        for axis in (1, 0):
            while True:
                gaps = np.where((training.sum(axis=axis) == 0) & (bits.sum(axis=axis) > 0))[0]
                if gaps.size == 0:
                    break
                g = int(gaps[0])
                c = int(np.argwhere((held[g, :] if axis == 1 else held[:, g]) > 0)[0][0])
                i, j = (g, c) if axis == 1 else (c, g)
                held[i, j] = 0.0
                training[i, j] = 1.0
                reassigned += 1
        fold_bits.append(held)
    return fold_bits, reassigned


class TestDenseCsv:
    def test_round_trip_bit_faithful(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(5):
            m = DenseMatrix(rng.uniform(-1e6, 1e6, (4, 7)) * 10.0 ** rng.integers(-9, 9))
            path = tmp_path / f"m{i}.csv"
            write_dense_csv(path, m)
            back = read_dense_csv(path)
            assert np.array_equal(back.a, m.a)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=5), elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals and zeros
        st.floats(1e300, 1.7976931348623157e308).flatmap(lambda x: st.sampled_from([x, -x])))))
    def test_round_trip_property(self, a):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "m.csv")
            write_dense_csv(path, DenseMatrix(a))
            back = read_dense_csv(path).a
        assert back.shape == a.shape and back.tobytes() == a.tobytes()

    def test_small_literal(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        m = read_dense_csv(path)
        assert np.array_equal(m.a, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(RaggedCsvError) as exc:
            read_dense_csv(path)
        assert exc.value.line == 2

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(NonNumericCsvError) as exc:
            read_dense_csv(path)
        assert exc.value.line == 2

    def test_zeros_as_missing(self):
        m = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
        mask = zeros_as_missing(m)
        assert np.array_equal(mask.bits, [[1.0, 0.0], [0.0, 1.0]])


class TestRatings:
    def test_double_colon_single_line(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("1::10::5::964982703\n")
        table = read_ratings(path, "ml1m")
        assert table.n_users == 1 and table.n_items == 1
        assert table.ratings.tolist() == [5.0]

    def test_ids_densified_contiguous(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("3::100::4::1\n3::7::2::2\n9::100::1::3\n")
        table = read_ratings(path, "ml1m")
        # raw users {3, 9} -> dense {1, 2}; raw items {7, 100} -> dense {1, 2}
        assert table.n_users == 2 and table.n_items == 2
        assert table.user_ids == [3, 9]
        assert table.item_ids == [7, 100]
        v, mask = ratings_to_matrix(table)
        assert mask.count == 3
        assert v[0, 1] == 4.0 and v[0, 0] == 2.0 and v[1, 1] == 1.0

    def test_unrated_item_absent(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("1::5::3::1\n2::5::4::2\n")
        table = read_ratings(path, "ml1m")
        assert table.n_items == 1

    def test_duplicate_last_wins(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("1::5::3::1\n1::5::4::2\n")
        table = read_ratings(path, "ml1m")
        assert table.duplicates_dropped == 1
        assert table.ratings.tolist() == [4.0]

    def test_csv_format(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,10,5\n2,10,3\n")
        table = read_ratings(path, "csv")
        assert table.n_users == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("1::5::3::1\n1::5\n")
        with pytest.raises(MalformedLineError) as exc:
            read_ratings(path, "ml1m")
        assert exc.value.line == 2

    def test_id_beyond_int64_refused(self, tmp_path):
        # mixed with int64 ids, such ids would make a float column that merges
        # 2**63 and 2**63 + 1
        path = tmp_path / "r.dat"
        path.write_text("9223372036854775808::1::3\n9223372036854775809::1::4\n1::2::5\n")
        with pytest.raises(MalformedLineError) as exc:
            read_ratings(path, "ml1m")
        assert exc.value.line == 1 and "9223372036854775808" in str(exc.value)

    def test_matrix_values_at_observed_cells(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("1::1::5::1\n2::2::3::2\n")
        v, mask = ratings_to_matrix(read_ratings(path, "ml1m"))
        assert v[0, 0] == 5.0 and v[1, 1] == 3.0
        assert mask.bits[0, 1] == 0.0


def by_line(text, sep):
    """read_ratings' result with the whole-file parse left out: a table, or
    the line number of the MalformedLineError."""
    try:
        return rio._ratings_table(*rio._ratings_by_line(text, sep))
    except MalformedLineError as exc:
        return exc.line


def assert_same_table(a, b):
    for name in ("users", "items", "ratings"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert (a.user_ids, a.item_ids, a.duplicates_dropped) == (b.user_ids, b.item_ids,
                                                              b.duplicates_dropped)


_PAD = st.sampled_from(["", " ", "  ", "\t"])
# ids and values at the compiled scan's digit limits: int64's ends, and
# values of 15 digits (its exact integer path), 16 and 20 digits
_GOOD_IDS = st.one_of(st.integers(-3, 12).map(str),
                      st.sampled_from(["+4", "007", "-0", "9223372036854775807", "-9223372036854775808"]))
_GOOD_VALUES = st.one_of(st.integers(-2, 5).map(str),
                         st.sampled_from(["3.5", "-0.0", "1e3", ".5", "5.", "+2", "1E-2", "nan", "inf", "-0",
                                          "-NaN", "Infinity", "999999999999999", "9007199254740993",
                                          "-99999999999999999999", "\v5", "\f-1.5"]))
_BAD = st.sampled_from(["1.0", "1e3", "1_0", "", "x", "99999999999999999999", "9223372036854775808",
                        "1,5", "1:5", "#3", "1 2", "\u0661", "nan(1)", "0x1p3", "1e", "0X1P3", "nan()"])


@st.composite
def ratings_texts(draw):
    """A ratings text, its separator and whether it is clean.  A clean text
    has only empty lines and well-formed data lines of 3 or 4 fields, in any
    mix; the others may also have blank, ``#`` and mis-sized lines and
    malformed fields."""
    sep = draw(st.sampled_from(["::", ","]))
    clean = draw(st.booleans())
    ids = _GOOD_IDS if clean else st.one_of(_GOOD_IDS, _BAD)
    values = _GOOD_VALUES if clean else st.one_of(_GOOD_VALUES, _BAD)
    kinds = ["data"] * 4 + ["empty"] + ([] if clean else ["blank", "comment", "width"])
    lines = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("data", "width"):
            n = draw(st.sampled_from([3, 4] if kind == "data" else [2, 5]))
            tokens = [draw(ids), draw(ids)] + [draw(values) for _ in range(n - 2)]
            lines.append(sep.join(draw(_PAD) + t + draw(_PAD) for t in tokens))
        else:
            lines.append({"empty": "", "blank": draw(_PAD) + " ",
                          "comment": draw(_PAD) + "# 1" + sep + "2" + sep + "3"}[kind])
    end = draw(st.sampled_from(["", "\n"]))
    return "\n".join(lines) + end, sep, clean


class TestRatingsWholeFile:
    """The whole-file parse of read_ratings, the compiled scan, against its line loop."""

    @settings(max_examples=300, deadline=None)
    @given(ratings_texts())
    def test_whole_file_parse_matches_line_loop(self, case):
        text, sep, clean = case
        want = by_line(text, sep)
        whole = rio._ratings_whole(text.encode(), sep)
        if clean and text.strip():
            assert whole is not None
        if whole is not None:
            # nothing the loop refuses, and the same table
            assert not isinstance(want, int), text
            assert_same_table(rio._ratings_table(*whole), want)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "r.dat")
            path.write_text(text, encoding="utf-8")
            try:
                got = read_ratings(path, "ml1m" if sep == "::" else "csv")
            except MalformedLineError as exc:
                got = exc.line
        if isinstance(want, int):
            assert got == want
        else:
            assert_same_table(got, want)

    def test_crlf_file_with_duplicates(self, tmp_path):
        path = tmp_path / "r.dat"
        text = "3::7::4::11\r\n1::7::2::12\r\n3::7::5::13\r\n\r\n1::2::1::14\r\n"
        path.write_bytes(text.encode())
        assert rio._ratings_whole(text.encode(), "::") is not None
        table = read_ratings(path, "ml1m")
        assert_same_table(table, by_line(text.replace("\r\n", "\n"), "::"))
        assert table.duplicates_dropped == 1 and table.ratings.tolist() == [1.0, 2.0, 5.0]

    @pytest.mark.parametrize("text, sep, decided", [
        ("9223372036854775807::-9223372036854775808::999999999999999::9007199254740993\n"
         "-0::+7::-000000000000001::99999999999999999999\n", "::", True),
        ("1,2,-0\n3,4,0000000000000009007199254740993e-3\n", ",", True),
        ("9223372036854775808::1::3\n", "::", False),  # the loop refuses it too
        ("1::-9223372036854775809::3\n", "::", False),
        ("1::2::3 4::5::6\n", "::", False),
        ("1: 2::3::4\n", "::", False),
        ("1::2::nan(1)\n", "::", False),  # strtod reads these, float() does not
        ("1::2::0x1p3\n", "::", False),
        ("1::2::0X1P3\n", "::", False),
        ("1::2::nan()\n", "::", False),
        ("1::2::\n", "::", False),  # strtod reads an empty token as 0
        ("1::2::3::\n", "::", False),
        ("1::2::\v5\n3::4::\f-1.5\n5::6::INFINITY\n", "::", True),  # strtod skips \v and \f
        ("1::2::1_000\n", "::", False),  # float() reads it, strtod does not
        ("1::2::3\n1::3::4::5\n", "::", True),
        ("1::2::3::x\n", "::", False),  # a timestamp is checked, though not kept
        ("1::2::3::4.5\n", "::", True),
        ("1,2,3\r4,5,6\r", ",", False),  # more lines than \n bytes
    ], ids=["digit-limits", "csv-digit-limits", "id-above-int64", "id-below-int64",
            "text-after-last-field", "half-separator", "nan-payload", "hex", "hex-upper",
            "nan-empty-payload", "empty-rating", "empty-timestamp", "leading-vt-ff-infinity",
            "underscore", "mixed-field-counts", "non-numeric-timestamp", "fractional-timestamp",
            "lone-cr"])
    def test_decided_or_left_to_the_loop(self, tmp_path, text, sep, decided):
        assert (rio._ratings_whole(text.encode(), sep) is not None) == decided
        path = tmp_path / "r.dat"
        path.write_bytes(text.encode())
        want = by_line(text.replace("\r", "\n"), sep)
        try:
            got = read_ratings(path, "ml1m" if sep == "::" else "csv")
        except MalformedLineError as exc:
            got = exc.line
        if isinstance(want, int):
            assert got == want
        else:
            assert_same_table(got, want)


class TestCvSplit:
    def test_balanced_fold_sizes(self):
        rng = np.random.default_rng(1)
        bits = np.zeros((10, 10))
        coords = rng.choice(100, 100, replace=False)  # fully observed
        bits.ravel()[coords] = 1.0
        split = make_cv_split(MaskMatrix(bits), 5, seed=2)
        sizes = sorted(int(f.bits.sum()) + 0 for f in split.fold_masks)
        assert sum(sizes) + split.reassigned == 100
        assert max(sizes) - min(sizes) <= 1

    def test_folds_partition_observed(self):
        rng = np.random.default_rng(3)
        bits = (rng.uniform(0, 1, (12, 9)) < 0.6).astype(float)
        bits[bits.sum(axis=1) == 0, 0] = 1.0
        bits[0, bits.sum(axis=0) == 0] = 1.0
        mask = MaskMatrix(bits)
        split = make_cv_split(mask, 4, seed=4)
        union = sum(f.bits for f in split.fold_masks)
        assert np.all(union <= 1.0)
        assert np.all(union <= bits)
        held = union.sum() + split.reassigned
        assert held == bits.sum()

    def test_training_masks_cover_rows_and_columns(self):
        # adversarial: single-entry rows must never be held out
        bits = np.zeros((5, 5))
        bits[0, :] = 1.0
        bits[:, 0] = 1.0
        bits[3, 3] = 1.0  # row 3 and column 3 have one extra lonely entry
        split = make_cv_split(MaskMatrix(bits), 3, seed=5)
        for f in range(split.n_folds):
            training = split.training_mask(f)
            observed_rows = bits.sum(axis=1) > 0
            observed_cols = bits.sum(axis=0) > 0
            assert np.all(training.bits.sum(axis=1)[observed_rows] >= 1)
            assert np.all(training.bits.sum(axis=0)[observed_cols] >= 1)

    def test_deterministic(self):
        bits = np.ones((6, 6))
        a = make_cv_split(MaskMatrix(bits), 3, seed=6)
        b = make_cv_split(MaskMatrix(bits), 3, seed=6)
        for fa, fb in zip(a.fold_masks, b.fold_masks):
            assert np.array_equal(fa.bits, fb.bits)

    def test_matches_per_cell_reference(self):
        reassigned = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            bits = (rng.uniform(0, 1, (15, 12)) < 0.2).astype(float)
            folds = 3 + seed % 3
            split = make_cv_split(MaskMatrix(bits), folds, seed=seed)
            want, moved = loop_cv_folds(bits, folds, seed)
            assert split.reassigned == moved
            for got, ref in zip(split.fold_masks, want, strict=True):
                assert np.array_equal(got.bits, ref)
            reassigned.append(moved)
        # sparse masks leave lonely cells, so the repair path runs too
        assert sum(r > 0 for r in reassigned) >= 4

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.floats(0.05, 0.9), st.integers(2, 5),
           st.integers(0, 2**32 - 1))
    def test_matches_per_cell_reference_property(self, n, m, density, folds, seed):
        # sparse masks with empty rows and columns and lonely cells, so that
        # both repair phases run
        bits = (np.random.default_rng(seed).uniform(0, 1, (n, m)) < density).astype(float)
        if bits.sum() < folds:
            return
        split = make_cv_split(MaskMatrix(bits), folds, seed=seed)
        want, moved = loop_cv_folds(bits, folds, seed)
        assert split.reassigned == moved
        for f, ref in enumerate(want):
            assert np.array_equal(split.fold_masks[f].bits, ref)
            train = split.training_mask(f)
            assert train.flat.dtype == np.intp and not train.flat.flags.writeable
            assert np.array_equal(train.flat, np.setdiff1d(np.flatnonzero(bits), np.flatnonzero(ref)))

    def test_too_sparse(self):
        bits = np.zeros((3, 3))
        bits[0, 0] = 1.0
        with pytest.raises(TooSparseError):
            make_cv_split(MaskMatrix(bits), 2, seed=0)

    def test_fold_count_validation(self):
        with pytest.raises(InvalidRangeError):
            make_cv_split(MaskMatrix(np.ones((3, 3))), 1, seed=0)


class TestReport:
    def _report(self):
        rng = np.random.default_rng(7)
        v = DenseMatrix(rng.uniform(0, 1, (6, 5)))
        cfg = SolverConfig(k=2, measure=Measure.EUCLIDEAN, max_iters=7, rel_tol=0.0, seed=1)
        return run(v, (None, None), cfg), cfg

    def test_round_trip_numeric_fields(self, tmp_path):
        report, cfg = self._report()
        path = tmp_path / "r.json"
        write_report(path, report, cfg, {"msl": 0.125, "csr": None})
        doc = read_report(path)
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["iterations"] == report.iterations
        assert doc["msl"] == 0.125
        assert doc["objective_trace"] == report.objective_trace
        assert doc["final_objective"] == report.final_objective
        assert doc["config"]["k"] == 2
        assert doc["config"]["measure"] == "euc"

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        at_least_0 = st.floats(0.0, 1e300)
        trace = data.draw(st.lists(finite, min_size=1, max_size=6))
        report = FactorisationReport(
            w=DenseMatrix(np.ones((2, 1))), h=DenseMatrix(np.ones((1, 2))),
            iterations=len(trace) - 1, final_objective=trace[-1], objective_trace=trace,
            csr=data.draw(st.none() | st.floats(0.0, 1.0)),
            rollback_iters=data.draw(st.lists(st.integers(1, 10**6), max_size=3)),
            wall_time_s=data.draw(at_least_0))
        config = data.draw(st.none() | st.builds(
            SolverConfig, k=st.integers(1, 10**6), measure=st.sampled_from(Measure),
            lambda_w=at_least_0, lambda_h=at_least_0, max_iters=st.integers(1, 10**6),
            rel_tol=at_least_0, seed=st.integers(0, 2**63),
            mask=st.sampled_from([None, MaskMatrix(np.ones((2, 2)))])))
        metrics = data.draw(st.dictionaries(st.sampled_from(["msl", "md", "csr", "rmse", "f1"]),
                                            st.none() | finite))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "r.json")
            write_report(path, report, config, metrics)
            doc = read_report(path)
        echo = None if config is None else {
            "k": config.k, "measure": config.measure.value, "lambda_w": config.lambda_w,
            "lambda_h": config.lambda_h, "max_iters": config.max_iters, "rel_tol": config.rel_tol,
            "seed": config.seed, "masked": config.mask is not None}
        assert doc == {
            "schema": REPORT_SCHEMA, "config": echo, "seed": None if config is None else config.seed,
            "iterations": report.iterations, "final_objective": report.final_objective,
            "objective_trace": report.objective_trace, "rollback_iters": report.rollback_iters,
            "wall_time_s": report.wall_time_s, "msl": metrics.get("msl"), "md": metrics.get("md"),
            "csr": metrics.get("csr", report.csr), "rmse": metrics.get("rmse"), "f1": metrics.get("f1")}

    def test_absent_metrics_serialised_null(self, tmp_path):
        report, cfg = self._report()
        path = tmp_path / "r.json"
        write_report(path, report, cfg, {"msl": 0.5})
        raw = json.loads(path.read_text())
        for key in ("rmse", "f1", "md"):
            assert raw[key] is None

    def test_trace_length_contract(self, tmp_path):
        report, cfg = self._report()
        path = tmp_path / "r.json"
        write_report(path, report, cfg)
        doc = read_report(path)
        assert len(doc["objective_trace"]) == doc["iterations"] + 1

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(MalformedLineError):
            read_report(path)


class TestMaskCoverage:
    def test_degenerate_mask_rejected_by_solver(self):
        rng = np.random.default_rng(8)
        v = DenseMatrix(rng.uniform(0, 1, (4, 4)))
        bits = np.ones((4, 4))
        bits[2, :] = 0.0
        cfg = SolverConfig(k=2, measure=Measure.EUCLIDEAN, max_iters=3, mask=MaskMatrix(bits))
        with pytest.raises(DegenerateMaskError):
            run(v, (None, None), cfg)
