import tracemalloc

import numpy as np
import pytest

from ranksmooth.data import (
    Dataset,
    DuplicateIdError,
    FieldFormatError,
    RaggedRowError,
    CsvFormatError,
    SamplerConfig,
    SamplerError,
    SamplerState,
    SyntheticSpec,
    gen_synthetic_clusters,
    load_features_csv,
    next_batch,
    save_features_csv,
    split_by_class,
)
from ranksmooth.ranking import EmbeddingBatch, mean_ap


class TestGenSyntheticClusters:
    def test_shapes_and_index(self):
        ds = gen_synthetic_clusters(5, 4, 8, 0.2, seed=0)
        assert ds.features.shape == (20, 8)
        assert len(ds.class_index) == 5
        assert all(len(rows) == 4 for rows in ds.class_index.values())

    def test_deterministic(self):
        a = gen_synthetic_clusters(6, 3, 10, 0.3, seed=42)
        b = gen_synthetic_clusters(6, 3, 10, 0.3, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.class_ids, b.class_ids)
        c = gen_synthetic_clusters(6, 3, 10, 0.3, seed=43)
        assert not np.array_equal(a.features, c.features)

    def test_zero_noise_collapses_to_means(self):
        ds = gen_synthetic_clusters(4, 5, 6, 0.0, seed=1)
        batch = EmbeddingBatch.from_raw(ds.features, ds.class_ids)
        assert mean_ap(batch) == 1.0

    def test_huge_noise_near_random_baseline(self):
        ds = gen_synthetic_clusters(2, 10, 16, 10.0, seed=2)
        batch = EmbeddingBatch.from_raw(ds.features, ds.class_ids)
        got = mean_ap(batch)
        rng = np.random.default_rng(3)
        trials = []
        for _ in range(200):
            labels = ds.class_ids.copy()
            rng.shuffle(labels)
            trials.append(mean_ap(EmbeddingBatch(batch.vectors, labels)))
        assert abs(got - float(np.mean(trials))) < 0.1

    def test_signal_dim_confines_means(self):
        ds = gen_synthetic_clusters(8, 2, 12, 0.0, seed=4, signal_dim=3)
        assert np.all(ds.features[:, 3:] == 0.0)
        full = gen_synthetic_clusters(8, 2, 12, 0.0, seed=4)
        assert np.any(full.features[:, 3:] != 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic_clusters(1, 4, 8, 0.1, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic_clusters(3, 1, 8, 0.1, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic_clusters(3, 4, 8, -0.1, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic_clusters(3, 4, 8, 0.1, seed=0, signal_dim=9)

    def test_spec_checked_like_generator(self):
        message = r"signal_dim must be in \[1, 12\], got 16"
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(dim=12)
        with pytest.raises(ValueError, match=message):
            gen_synthetic_clusters(3, 4, 12, 0.1, seed=0, signal_dim=16)

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, noise):
        # It would draw a dataset of non-finite features, which the loader
        # then rejects at line 1 of the file.
        with pytest.raises(ValueError, match=f"^noise_sigma must be finite and nonnegative, got {noise}$"):
            SyntheticSpec(noise_sigma=noise)

    def test_immutable(self):
        ds = gen_synthetic_clusters(3, 3, 4, 0.1, seed=5)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0


class TestCsvRoundTrip:
    def test_write_then_load_exact(self, tmp_path):
        ds = gen_synthetic_clusters(4, 3, 7, 0.25, seed=6)
        path = tmp_path / "ds.csv"
        save_features_csv(path, ds)
        loaded = load_features_csv(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.class_ids, ds.class_ids)

    def test_row_count_and_layout(self, tmp_path):
        ds = gen_synthetic_clusters(3, 2, 2, 0.1, seed=7)
        path = tmp_path / "ds.csv"
        save_features_csv(path, ds)
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        first = lines[0].split(",")
        assert first[0] == "0"
        assert len(first) == 2 + 2

    def test_well_formed_three_rows(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("0,1,0.5,0.25\n1,1,0.1,0.2\n2,1,0.3,0.4\n")
        ds = load_features_csv(path)
        assert len(ds) == 3
        assert ds.dim == 2

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,0.5,0.25\n1,1,0.1\n")
        with pytest.raises(RaggedRowError, match="line 2"):
            load_features_csv(path)

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,0.5,0.25\n1,1,0.1,oops\n")
        with pytest.raises(FieldFormatError, match="line 2"):
            load_features_csv(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_names_line(self, tmp_path, field):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1,0.5,0.25\n1,1,0.1,0.2\n2,1,{field},0.4\n")
        with pytest.raises(FieldFormatError, match="line 3.*finite"):
            load_features_csv(path)

    def test_non_integer_class_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,x,0.5,0.25\n")
        with pytest.raises(FieldFormatError, match="line 1"):
            load_features_csv(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("7,1,0.5,0.25\n8,1,0.1,0.2\n7,2,0.3,0.4\n")
        with pytest.raises(DuplicateIdError, match="line 3"):
            load_features_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            load_features_csv(path)

    def test_singleton_classes_dropped(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("0,1,0.5\n1,1,0.6\n2,2,0.7\n")
        ds = load_features_csv(path)
        assert len(ds) == 2
        assert set(ds.class_index) == {1}
        path.write_text("0,1,0.5\n1,2,0.6\n")
        with pytest.raises(ValueError, match="no class has at least 2 instances"):
            load_features_csv(path)

    def test_only_blank_lines_rejected_at_line_one(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n  \n\n")
        with pytest.raises(CsvFormatError) as info:
            load_features_csv(path)
        assert type(info.value) is CsvFormatError
        assert (info.value.line, info.value.message) == (1, "file contains no data rows")

    @pytest.mark.parametrize("last, error, message", [
        ("500,1,0.5,0.25", RaggedRowError, "expected 5 fields, found 4"),
        ("3,1,0.5,0.25,0.5", DuplicateIdError, "duplicate id '3' (first seen on line 4)"),
        ("500,1.5,0.5,0.25,0.5", FieldFormatError, "class_id '1.5' is not an integer"),
        ("500,1,0.5,oops,0.5", FieldFormatError, "feature fields must be numeric"),
        ("500,1,0.5,nan,0.5", FieldFormatError, "feature fields must be finite"),
        ("500,1,0.5,0.25,-inf", FieldFormatError, "feature fields must be finite"),
    ], ids=["ragged", "duplicate-id", "class-id", "non-numeric", "nan", "inf"])
    def test_error_on_the_last_of_many_lines(self, tmp_path, last, error, message):
        """The fault is on line 572, after 500 good rows with a blank line
        after every seventh: the check fires mid-stream with the same type,
        message and line as on a short file."""
        lines = []
        for i in range(500):
            lines.append(f"{i},{i % 50},{i * 0.5},{-i / 3},{i * 1e-3}")
            if i % 7 == 6:
                lines.append("")
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines + [last]) + "\n")
        with pytest.raises(CsvFormatError) as info:
            load_features_csv(path)
        assert type(info.value) is error
        assert (info.value.line, info.value.message) == (len(lines) + 1, message)
        assert str(info.value) == f"line {len(lines) + 1}: {message}"

    def test_save_writes_each_float_as_its_repr(self, tmp_path):
        ds = Dataset(features=[[-0.0, 5e-324, 1e300], [-1.5, 0.1, -2.5e-300], [1.0, -3.0, 7.25]],
                     class_ids=[3, 3, -9])
        path = tmp_path / "ds.csv"
        save_features_csv(path, ds)
        want = "".join(
            f"{i},{int(ds.class_ids[i])},{','.join(repr(float(v)) for v in ds.features[i])}\n"
            for i in range(len(ds))
        )
        assert path.read_bytes() == want.encode()
        assert path.read_text().splitlines()[0] == "0,3,-0.0,5e-324,1e+300"

    def test_load_peaks_under_three_feature_arrays(self, tmp_path):
        """A 5000 x 64 file (2.4 MiB of features). Parsed into Python floats
        first, the load peaked at 7.5 times the array; parsed straight into
        it, at 2.3 times, the Dataset's own copy included."""
        path = tmp_path / "ds.csv"
        save_features_csv(path, gen_synthetic_clusters(250, 20, 64, 0.13, seed=1))
        tracemalloc.start()
        try:
            loaded = load_features_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.features.shape == (5000, 64)
        assert peak < 3 * loaded.features.nbytes


class TestSplitByClass:
    def test_half_split_ten_classes(self):
        ds = gen_synthetic_clusters(10, 3, 4, 0.1, seed=8)
        train, test = split_by_class(ds, 0.5, seed=0)
        assert len(train.class_index) == 5
        assert len(test.class_index) == 5

    def test_disjoint_and_covering(self):
        ds = gen_synthetic_clusters(9, 2, 4, 0.1, seed=9)
        train, test = split_by_class(ds, 0.3, seed=1)
        train_classes = set(train.class_index)
        test_classes = set(test.class_index)
        assert train_classes.isdisjoint(test_classes)
        assert train_classes | test_classes == set(ds.class_index)
        assert len(train) + len(test) == len(ds)

    def test_deterministic(self):
        ds = gen_synthetic_clusters(8, 2, 4, 0.1, seed=10)
        a = split_by_class(ds, 0.25, seed=3)
        b = split_by_class(ds, 0.25, seed=3)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_errors(self):
        ds = gen_synthetic_clusters(2, 2, 4, 0.1, seed=11)
        with pytest.raises(ValueError):
            split_by_class(ds, 0.0, seed=0)
        single = gen_synthetic_clusters(2, 2, 4, 0.1, seed=12)
        train, _ = split_by_class(single, 0.5, seed=0)
        with pytest.raises(ValueError, match="at least 2"):
            split_by_class(train, 0.5, seed=0)


class TestSampler:
    def test_composition(self):
        ds = gen_synthetic_clusters(6, 5, 4, 0.1, seed=13)
        idx, state = next_batch(ds, SamplerConfig(8, 4), SamplerState(0))
        assert idx.shape == (8,)
        ids, counts = np.unique(ds.class_ids[idx], return_counts=True)
        assert len(ids) == 2
        assert np.all(counts == 4)
        assert state.counter == 1

    def test_counts_always_exact(self):
        ds = gen_synthetic_clusters(7, 6, 4, 0.1, seed=14)
        cfg = SamplerConfig(12, 3)
        state = SamplerState(5)
        for _ in range(50):
            idx, state = next_batch(ds, cfg, state)
            _, counts = np.unique(ds.class_ids[idx], return_counts=True)
            assert np.all(counts == 3)
            assert len(np.unique(idx)) == 12  # no repeats within a batch

    def test_deterministic_per_state(self):
        ds = gen_synthetic_clusters(6, 5, 4, 0.1, seed=15)
        cfg = SamplerConfig(8, 2)
        a, _ = next_batch(ds, cfg, SamplerState(9, counter=4))
        b, _ = next_batch(ds, cfg, SamplerState(9, counter=4))
        assert np.array_equal(a, b)
        c, _ = next_batch(ds, cfg, SamplerState(9, counter=5))
        assert not np.array_equal(a, c)

    def test_insufficient_classes_error(self):
        ds = gen_synthetic_clusters(3, 4, 4, 0.1, seed=16)
        with pytest.raises(SamplerError):
            next_batch(ds, SamplerConfig(16, 4), SamplerState(0))

    def test_divisibility_validated(self):
        with pytest.raises(ValueError, match="divide"):
            SamplerConfig(10, 4)

    def test_uniform_class_frequency(self):
        ds = gen_synthetic_clusters(20, 6, 4, 0.1, seed=17)
        cfg = SamplerConfig(16, 4)
        state = SamplerState(123)
        counts = np.zeros(20)
        n_batches = 10_000
        for _ in range(n_batches):
            idx, state = next_batch(ds, cfg, state)
            for c in np.unique(ds.class_ids[idx]):
                counts[c] += 1
        p = 4 / 20
        sigma = np.sqrt(n_batches * p * (1 - p))
        assert np.abs(counts - n_batches * p).max() <= 3 * sigma
