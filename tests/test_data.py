"""Tests for synthetic data generation, the feature file format, and splits."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from mmfuse.data import (
    Dataset,
    FeatureRecord,
    Provenance,
    SyntheticSpec,
    batches,
    generate_synthetic,
    load,
    save,
    split,
)
from mmfuse.errors import (
    BadMagicError,
    FileFormatError,
    InconsistentDimsError,
    InputError,
    TruncatedFileError,
    VersionMismatchError,
)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    if (a.d_t, a.d_i, a.l_t, a.l_i, len(a)) != (b.d_t, b.d_i, b.l_t, b.l_i, len(b)):
        return False
    for x, y in zip(a.records, b.records):
        if x.record_id != y.record_id or x.label != y.label or x.provenance != y.provenance:
            return False
        if not (np.array_equal(x.text_features, y.text_features)
                and np.array_equal(x.image_features, y.image_features)):
            return False
    return True


# -- generation ----------------------------------------------------------------


def test_generation_is_deterministic():
    spec = SyntheticSpec(n_samples=200, seed=42)
    assert datasets_equal(generate_synthetic(spec), generate_synthetic(spec))


def test_class_balance_is_exact():
    for n in (7, 100, 4000):
        ds = generate_synthetic(SyntheticSpec(n_samples=n, seed=1))
        assert int(ds.labels().sum()) == n // 2


def test_every_record_has_an_informative_modality():
    ds = generate_synthetic(SyntheticSpec(n_samples=500, seed=5))
    assert all(r.provenance in (Provenance.TEXT, Provenance.IMAGE, Provenance.BOTH)
               for r in ds.records)


def test_noiseless_limit_exposes_exact_signal():
    spec = SyntheticSpec(n_samples=400, noise_std=0.0, conflict_rate=0.0, seed=3)
    ds = generate_synthetic(spec)
    k_t, k_i = 4, 3  # ceil(16/4), ceil(12/4)
    for r in ds.records:
        sign = 1.0 if r.label == 1 else -1.0
        text_informative = r.provenance in (Provenance.TEXT, Provenance.BOTH)
        image_informative = r.provenance in (Provenance.IMAGE, Provenance.BOTH)
        if text_informative:
            assert np.array_equal(r.text_features[0, :k_t], np.full(k_t, sign))
            assert np.array_equal(r.text_features[0, k_t:], np.zeros(16 - k_t))
        else:
            assert np.array_equal(r.text_features, np.zeros((1, 16)))
        if image_informative:
            assert np.array_equal(r.image_features[0, :k_i], np.full(k_i, sign))
            assert np.array_equal(r.image_features[0, k_i:], np.zeros(12 - k_i))
        else:
            assert np.array_equal(r.image_features, np.zeros((1, 12)))


def test_conflict_plants_opposite_signal():
    spec = SyntheticSpec(n_samples=300, noise_std=0.0, conflict_rate=1.0, seed=9)
    ds = generate_synthetic(spec)
    k_t, k_i = 4, 3
    saw_conflict = 0
    for r in ds.records:
        sign = 1.0 if r.label == 1 else -1.0
        if r.provenance == Provenance.TEXT:
            assert np.array_equal(r.image_features[0, :k_i], np.full(k_i, -sign))
            saw_conflict += 1
        elif r.provenance == Provenance.IMAGE:
            assert np.array_equal(r.text_features[0, :k_t], np.full(k_t, -sign))
            saw_conflict += 1
    assert saw_conflict > 50


def test_provenance_rates_match_draw_probabilities():
    ds = generate_synthetic(SyntheticSpec(seed=11))
    n = len(ds)
    text_inf = sum(r.provenance in (Provenance.TEXT, Provenance.BOTH) for r in ds.records) / n
    image_inf = sum(r.provenance in (Provenance.IMAGE, Provenance.BOTH) for r in ds.records) / n
    # P(text informative) = 0.55 + 0.45*0.55, P(image) = 0.45 + 0.45*0.55
    assert abs(text_inf - 0.7975) < 0.03
    assert abs(image_inf - 0.6975) < 0.03


def test_nearest_class_mean_oracle_separates_classes():
    ds = generate_synthetic(SyntheticSpec(n_samples=2000, seed=17))
    half = 1000

    def informative_row(r):
        if r.provenance in (Provenance.TEXT, Provenance.BOTH):
            return r.text_features[0], "t"
        return r.image_features[0], "i"

    means = {}
    for key in ("t", "i"):
        for cls in (0, 1):
            rows = [informative_row(r)[0] for r in ds.records[:half]
                    if r.label == cls and informative_row(r)[1] == key]
            means[key, cls] = np.mean(rows, axis=0)

    correct = 0
    for r in ds.records[half:]:
        row, key = informative_row(r)
        d0 = np.linalg.norm(row - means[key, 0])
        d1 = np.linalg.norm(row - means[key, 1])
        correct += int((d1 < d0) == (r.label == 1))
    assert correct / half > 0.9


def test_spec_validation_errors():
    with pytest.raises(InputError):
        SyntheticSpec(n_samples=0).validate()
    with pytest.raises(InputError):
        SyntheticSpec(p_text_signal=1.5).validate()
    with pytest.raises(InputError):
        SyntheticSpec(signal_strength=0.0).validate()
    with pytest.raises(InputError):
        SyntheticSpec(noise_std=-0.1).validate()
    with pytest.raises(InputError):
        SyntheticSpec(d_t=0).validate()


def test_record_and_dataset_validation():
    with pytest.raises(InputError):
        FeatureRecord("x", 2, np.zeros((1, 2)), np.zeros((1, 2)))
    good = FeatureRecord("x", 0, np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(InputError):
        Dataset(2, 4, 1, 1, [good])


# -- file io -------------------------------------------------------------------


def test_save_load_round_trip_is_bitwise(tmp_path):
    ds = generate_synthetic(SyntheticSpec(n_samples=50, seed=2))
    path = tmp_path / "features.mmfn"
    save(ds, path)
    assert datasets_equal(ds, load(path))


def test_round_trip_preserves_multirow_sequences(tmp_path):
    ds = generate_synthetic(SyntheticSpec(n_samples=20, l_t=3, l_i=2, seed=2))
    path = tmp_path / "seq.mmfn"
    save(ds, path)
    assert datasets_equal(ds, load(path))


def test_load_hand_built_file(tmp_path):
    # one record, d_t=2 l_t=1, d_i=1 l_i=2, laid out by hand
    payload = struct.pack("<4sIQIIII", b"MMFN", 1, 1, 2, 1, 1, 2)
    payload += struct.pack("<I", 4) + b"r-01"
    payload += struct.pack("<BB", 1, 2)
    payload += struct.pack("<dd", 1.5, -2.5)
    payload += struct.pack("<dd", 0.25, 0.75)
    path = tmp_path / "hand.mmfn"
    path.write_bytes(payload)

    ds = load(path)
    assert (ds.d_t, ds.d_i, ds.l_t, ds.l_i) == (2, 1, 1, 2)
    (r,) = ds.records
    assert r.record_id == "r-01"
    assert r.label == 1
    assert r.provenance == Provenance.IMAGE
    assert np.array_equal(r.text_features, [[1.5, -2.5]])
    assert np.array_equal(r.image_features, [[0.25], [0.75]])


def test_load_errors_are_distinct(tmp_path):
    ds = generate_synthetic(SyntheticSpec(n_samples=3, seed=0))
    path = tmp_path / "ok.mmfn"
    save(ds, path)
    good = path.read_bytes()

    bad_magic = tmp_path / "magic.mmfn"
    bad_magic.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(BadMagicError):
        load(bad_magic)

    bad_version = tmp_path / "version.mmfn"
    bad_version.write_bytes(good[:4] + struct.pack("<I", 9) + good[8:])
    with pytest.raises(VersionMismatchError):
        load(bad_version)

    truncated = tmp_path / "trunc.mmfn"
    truncated.write_bytes(good[:-10])
    with pytest.raises(TruncatedFileError):
        load(truncated)

    zero_dims = tmp_path / "dims.mmfn"
    zero_dims.write_bytes(good[:16] + struct.pack("<I", 0) + good[20:])
    with pytest.raises(InconsistentDimsError):
        load(zero_dims)

    trailing = tmp_path / "trail.mmfn"
    trailing.write_bytes(good + b"\x00")
    with pytest.raises(FileFormatError):
        load(trailing)


def test_load_rejects_bad_label_and_nan(tmp_path):
    header = struct.pack("<4sIQIIII", b"MMFN", 1, 1, 1, 1, 1, 1)
    body = struct.pack("<I", 1) + b"a"
    bad_label = header + body + struct.pack("<BB", 7, 0) + struct.pack("<dd", 0.0, 0.0)
    p1 = tmp_path / "label.mmfn"
    p1.write_bytes(bad_label)
    with pytest.raises(FileFormatError):
        load(p1)

    nan_payload = header + body + struct.pack("<BB", 0, 0) + struct.pack("<dd", float("nan"), 0.0)
    p2 = tmp_path / "nan.mmfn"
    p2.write_bytes(nan_payload)
    with pytest.raises(FileFormatError):
        load(p2)


# -- splits and batching ---------------------------------------------------------


def test_split_is_stratified_and_exhaustive():
    ds = generate_synthetic(SyntheticSpec(n_samples=1000, seed=4))
    train, val, test = split(ds, (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (800, 100, 100)
    assert int(train.labels().sum()) == 400
    assert int(val.labels().sum()) == 50
    assert int(test.labels().sum()) == 50
    ids = [r.record_id for part in (train, val, test) for r in part.records]
    assert len(ids) == len(set(ids)) == len(ds)


def test_split_is_deterministic():
    ds = generate_synthetic(SyntheticSpec(n_samples=300, seed=6))
    a = split(ds, (0.8, 0.1, 0.1), seed=12)
    b = split(ds, (0.8, 0.1, 0.1), seed=12)
    for x, y in zip(a, b):
        assert datasets_equal(x, y)
    c = split(ds, (0.8, 0.1, 0.1), seed=13)
    assert not all(datasets_equal(x, y) for x, y in zip(a, c))


def test_degenerate_split_puts_everything_in_train():
    ds = generate_synthetic(SyntheticSpec(n_samples=40, seed=8))
    train, val, test = split(ds, (1.0, 0.0, 0.0), seed=0)
    assert len(train) == 40 and len(val) == 0 and len(test) == 0


def test_split_errors():
    ds = generate_synthetic(SyntheticSpec(n_samples=5, seed=0))
    with pytest.raises(InputError):
        split(ds, (0.8, 0.1, 0.1), seed=0)  # a positive fraction rounds to empty
    with pytest.raises(InputError):
        split(ds, (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(InputError):
        split(ds, (-0.1, 0.6, 0.5), seed=0)


def test_batches_cover_all_indices_once():
    ds = generate_synthetic(SyntheticSpec(n_samples=10, seed=0))
    chunks = batches(ds, 4, epoch_seed=3)
    assert [len(c) for c in chunks] == [4, 4, 2]
    assert sorted(np.concatenate(chunks).tolist()) == list(range(10))
    assert np.array_equal(np.concatenate(batches(ds, 4, 3)), np.concatenate(chunks))
    assert not np.array_equal(np.concatenate(batches(ds, 4, 4)), np.concatenate(chunks))
    with pytest.raises(InputError):
        batches(ds, 0, epoch_seed=0)

