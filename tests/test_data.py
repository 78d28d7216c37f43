import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_idx

from eigendecay.data import (
    Dataset,
    IdxFormatError,
    encode_batch_pm1,
    gen_two_gaussians,
    gen_two_moons,
    gen_xor,
    kfold,
    load_delimited,
    load_idx,
    split_indices,
    write_delimited,
)


class TestEncoding:
    def test_first_of_two(self):
        np.testing.assert_array_equal(encode_batch_pm1([0], 2), [[1.0, -1.0]])

    def test_last_of_three(self):
        np.testing.assert_array_equal(encode_batch_pm1([2], 3), [[-1.0, -1.0, 1.0]])

    def test_single_class(self):
        np.testing.assert_array_equal(encode_batch_pm1([0, 0], 1), [[1.0], [1.0]])

    def test_out_of_range(self):
        for bad in (2, -1):
            with pytest.raises(ValueError):
                encode_batch_pm1([0, bad], 2)

    @given(st.integers(1, 20), st.data())
    @settings(max_examples=50, deadline=None)
    def test_decode_round_trip(self, n_classes, data):
        classes = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=1))
        decoded = np.argmax(encode_batch_pm1(classes, n_classes), axis=1)
        np.testing.assert_array_equal(decoded, classes)

    def test_exactly_one_positive(self):
        for n_classes in range(1, 8):
            enc = encode_batch_pm1(np.arange(n_classes), n_classes)
            np.testing.assert_array_equal(np.sum(enc == 1.0, axis=1), 1)
            np.testing.assert_array_equal(np.sum(enc == -1.0, axis=1), n_classes - 1)
            np.testing.assert_array_equal(np.diag(enc), 1.0)


def _synthetic_idx(tmp_path, n=7, rows=4, cols=3, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 3, size=n, dtype=np.uint8)
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.tobytes())
    return images_path, labels_path, pixels, labels


class TestIdx:
    def test_load_scales_and_flattens(self, tmp_path):
        images_path, labels_path, pixels, labels = _synthetic_idx(tmp_path)
        ds = load_idx(images_path, labels_path)
        assert ds.features.shape == (7, 12)
        np.testing.assert_array_equal(ds.targets, labels)
        np.testing.assert_allclose(
            ds.features, pixels.reshape(7, 12).astype(float) / 255.0
        )
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_round_trip_bit_identical(self, tmp_path):
        images_path, labels_path, _, _ = _synthetic_idx(tmp_path)
        ds = load_idx(images_path, labels_path)
        out_images = tmp_path / "out_images.idx"
        out_labels = tmp_path / "out_labels.idx"
        write_idx(ds, out_images, out_labels, rows=4, cols=3)
        assert out_images.read_bytes() == images_path.read_bytes()
        assert out_labels.read_bytes() == labels_path.read_bytes()

    def test_bad_images_magic(self, tmp_path):
        images_path, labels_path, _, _ = _synthetic_idx(tmp_path)
        raw = bytearray(images_path.read_bytes())
        raw[3] = 0x09
        images_path.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(images_path, labels_path)

    def test_truncated_images(self, tmp_path):
        images_path, labels_path, _, _ = _synthetic_idx(tmp_path)
        raw = images_path.read_bytes()
        images_path.write_bytes(raw[:-5])
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(images_path, labels_path)

    def test_count_mismatch(self, tmp_path):
        images_path, labels_path, _, labels = _synthetic_idx(tmp_path)
        with open(labels_path, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, len(labels) - 1))
            fh.write(labels[:-1].tobytes())
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_idx(images_path, labels_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IdxFormatError, match="not found"):
            load_idx(tmp_path / "nope.idx", tmp_path / "nope2.idx")

    def test_limit(self, tmp_path):
        images_path, labels_path, _, _ = _synthetic_idx(tmp_path)
        ds = load_idx(images_path, labels_path, n_classes=3, limit=4)
        assert len(ds) == 4

    @pytest.mark.parametrize("limit", [0, -1, 2.5, True])
    def test_limit_below_one_or_not_an_integer_rejected(self, tmp_path, limit):
        # a negative limit used to drop rows from the end, and 0 to empty the set
        images_path, labels_path, _, _ = _synthetic_idx(tmp_path)
        with pytest.raises(ValueError, match="limit must be an integer >= 1"):
            load_idx(images_path, labels_path, n_classes=3, limit=limit)


class TestDelimited:
    def test_round_trip(self, tmp_path):
        ds = gen_two_moons(20, noise=0.05, seed=3)
        path = tmp_path / "data.csv"
        write_delimited(ds, path)
        loaded = load_delimited(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.targets, ds.targets)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,label\n0.5,1.5,0\n-0.25,2.0,1\n")
        ds = load_delimited(path, header=True)
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.targets, [0, 1])

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5,oops,0\n")
        with pytest.raises(ValueError, match="data.csv:1"):
            load_delimited(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "data.csv"
        path.write_text(f"0.5,1.0,0\n\n0.25,{value},1\n")
        with pytest.raises(ValueError, match="data.csv:3: feature values must be finite"):
            load_delimited(path)


class TestGenerators:
    def test_two_gaussians_zero_sigma_at_centers(self):
        ds = gen_two_gaussians(5, centers=((-1.0, 0.0), (1.0, 0.0)), sigma=0.0, seed=9)
        np.testing.assert_array_equal(ds.features[ds.targets == 0], np.tile([-1.0, 0.0], (5, 1)))
        np.testing.assert_array_equal(ds.features[ds.targets == 1], np.tile([1.0, 0.0], (5, 1)))

    def test_seeded_generators_reproducible(self):
        for gen in (
            lambda s: gen_two_gaussians(10, sigma=0.3, seed=s),
            lambda s: gen_two_moons(10, noise=0.1, seed=s),
            lambda s: gen_xor(10, seed=s),
        ):
            a, b = gen(42), gen(42)
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.targets, b.targets)

    def test_two_moons_exact_balance(self):
        ds = gen_two_moons(1000, seed=0)
        assert int(np.sum(ds.targets == 0)) == 500
        assert int(np.sum(ds.targets == 1)) == 500

    def test_xor_quadrant_labels(self):
        ds = gen_xor(200, seed=1)
        x = ds.features
        expected = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
        np.testing.assert_array_equal(ds.targets, expected)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gen_two_gaussians(0)
        with pytest.raises(ValueError):
            gen_two_gaussians(5, sigma=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_spread_rejected(self, value):
        with pytest.raises(ValueError, match="sigma must be finite"):
            gen_two_gaussians(5, sigma=value)
        with pytest.raises(ValueError, match="noise must be finite"):
            gen_two_moons(5, noise=value)


class TestSplits:
    def test_split_sizes(self):
        a, b = split_indices(10, 0.8, seed=1)
        assert len(a) == 8 and len(b) == 2

    def test_split_rejects_empty_side(self):
        with pytest.raises(ValueError):
            split_indices(3, 0.01, seed=1)

    def test_kfold_even_sizes(self):
        ds = gen_xor(10, seed=0)
        folds = kfold(ds, 5, seed=2)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    @given(st.integers(2, 8), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_kfold_partitions(self, n_folds, seed):
        ds = gen_xor(23, seed=0)
        folds = kfold(ds, n_folds, seed=seed)
        everything = np.concatenate(folds)
        assert sorted(everything.tolist()) == list(range(23))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    @given(st.floats(0.1, 0.9), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_split_preserves_examples(self, fraction, seed):
        ds = gen_xor(20, seed=3)
        a, b = (ds.subset(rows) for rows in split_indices(len(ds), fraction, seed=seed))
        combined = np.vstack([a.features, b.features])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, ds.features))

    def test_kfold_too_many_folds(self):
        ds = gen_xor(3, seed=0)
        with pytest.raises(ValueError):
            kfold(ds, 4, seed=0)


class TestDataset:
    def test_from_arrays_encodes(self):
        ds = Dataset.from_arrays(np.zeros((3, 2)), np.array([0, 2, 1]), n_classes=3)
        np.testing.assert_array_equal(ds.encoded[1], [-1.0, -1.0, 1.0])

    def test_subset(self):
        ds = gen_xor(10, seed=0)
        sub = ds.subset([1, 3, 5])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.features[0], ds.features[1])

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2), np.zeros((3, 2)), 2)
