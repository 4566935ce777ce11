import math

import numpy as np
import pytest

from gradcodec.data import (ParseError, load_dataset,
                            map_binary_labels, parse_libsvm,
                            serialize_libsvm, synth_classification,
                            synth_regression)
from gradcodec.optim import loss, make_problem, minimizer


class TestParser:
    def test_basic_example(self):
        ds = parse_libsvm("1 1:0.5 3:2.0\n-1 2:1.0")
        assert (ds.n, ds.d) == (2, 3)
        assert ds.features.tolist() == [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]
        assert ds.labels.tolist() == [1.0, -1.0]

    def test_non_increasing_index(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 3:1 2:1")
        assert err.value.line_no == 1

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 1:0.5\n-1 2:oops")
        assert err.value.line_no == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_libsvm("\n\n")

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 0:2.0")

    def test_comments_and_blank_lines(self):
        ds = parse_libsvm("# header\n1 1:2.0\n\n-1 1:3.0 # trailing\n")
        assert ds.n == 2

    def test_round_trip(self):
        ds = synth_regression(4, 9, 0.3, 21)
        again = parse_libsvm(serialize_libsvm(ds))
        assert np.array_equal(again.features, ds.features)
        assert np.array_equal(again.labels, ds.labels)

    def test_round_trip_sparse_rows(self):
        text = "2.5 2:1.25 7:-3.5\n-1 1:4.0\n0.5 7:1.0\n"
        ds = parse_libsvm(text)
        assert ds.d == 7
        again = parse_libsvm(serialize_libsvm(ds))
        assert np.array_equal(again.features, ds.features)

    def test_throughput_100k_lines(self):
        import time
        rng = np.random.default_rng(0)
        lines = []
        for i in range(100_000):
            toks = [str(i % 7 - 3)] + [
                f"{j * 3 + 1}:{v:.6f}"
                for j, v in enumerate(rng.standard_normal(5))
            ]
            lines.append(" ".join(toks))
        text = "\n".join(lines)
        t0 = time.perf_counter()
        ds = parse_libsvm(text)
        elapsed = time.perf_counter() - t0
        assert ds.n == 100_000
        assert elapsed < 3.0, f"parse took {elapsed:.2f}s"


class TestLabelMapping:
    def test_zero_one(self):
        assert map_binary_labels([0, 1, 0]).tolist() == [-1.0, 1.0, -1.0]

    def test_one_two(self):
        assert map_binary_labels([1, 2, 2]).tolist() == [1.0, -1.0, -1.0]

    def test_pm_one_kept(self):
        assert map_binary_labels([-1, 1]).tolist() == [-1.0, 1.0]

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError):
            map_binary_labels([1, 2, 3])


class TestSynthetic:
    def test_noiseless_recovery(self):
        ds = synth_regression(5, 20, 0.0, 13)
        assert np.allclose(ds.features @ ds.planted, ds.labels)
        prob = make_problem(ds, "ridge", lam=1e-10)
        x_star = minimizer(prob)
        assert np.linalg.norm(x_star - ds.planted) < 1e-6

    def test_same_seed_identical(self):
        a = synth_regression(6, 15, 0.2, 3)
        b = synth_regression(6, 15, 0.2, 3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_classification_margin_and_loss(self):
        ds = synth_classification(8, 40, 0.5, 9)
        w = ds.planted / np.linalg.norm(ds.planted)
        margins = ds.labels * (ds.features @ w)
        assert margins.min() >= 0.5 - 1e-9
        # a positive margin keeps every per-sample logistic loss under log 2
        prob = make_problem(ds, "logistic", lam=0.0)
        assert loss(prob, w) < math.log(2.0)


class TestLoadDataset:
    def test_synth_spec(self):
        ds = load_dataset("synth:ridge:d=6,n=12,seed=2")
        assert (ds.n, ds.d) == (12, 6)
        ds2 = load_dataset("synth:logistic:d=4,n=9,margin=0.3,seed=2")
        assert set(np.unique(ds2.labels)) <= {-1.0, 1.0}

    def test_synth_spec_defaults(self):
        ds = load_dataset("synth:ridge")
        assert (ds.n, ds.d) == (200, 50)

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            load_dataset("synth:ridge:q=3")

    def test_file_loading(self, tmp_path):
        path = tmp_path / "tiny.libsvm"
        path.write_text("1 1:0.5 3:2.0\n-1 2:1.0\n")
        ds = load_dataset(str(path))
        assert ds.d == 3
        assert ds.source.endswith("tiny.libsvm")

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_dataset("/nonexistent/path.libsvm")
