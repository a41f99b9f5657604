import json

import numpy as np
import pytest

from mdalbench.data import (
    DatasetManifest,
    DomainDataset,
    DomainSpec,
    SyntheticSpec,
    generate_synthetic,
    load_domain,
    load_manifest,
    save_domain_csv,
    save_manifest,
    standardize,
    train_test_split,
)
from mdalbench.errors import ValidationError, key_problems
from mdalbench.nncore import Linear, RngStream, relu
from reference_layers import linear_backward, relu_backward, softmax_cross_entropy


def write_manifest(tmp_path, dim=3, files=("a.csv",), classes=2):
    doc = {
        "name": "toy",
        "dim": dim,
        "domains": [
            {"name": f"d{i}", "file": f, "classes": classes}
            for i, f in enumerate(files)
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ------------------------------------------------------------------- loading


def test_empty_file_rejected(tmp_path):
    mpath = write_manifest(tmp_path)
    (tmp_path / "a.csv").write_text("", encoding="utf-8")
    manifest = load_manifest(mpath)
    with pytest.raises(ValidationError, match="empty"):
        load_domain(manifest, 0)


def test_csv_round_trip_bit_exact(tmp_path):
    X = np.array([[0.1, 1.0 / 3.0, -2.5e-7], [1e300, -0.0, 7.25]])
    y = np.array([0, 1])
    ds = DomainDataset(X=X, y=y, domain_id=0, name="d0")
    save_domain_csv(ds, tmp_path / "a.csv")
    assert (tmp_path / "a.csv").read_text(encoding="utf-8") == (
        "0,0.1,0.3333333333333333,-2.5e-07\n1,1e+300,-0.0,7.25\n"
    )
    manifest = load_manifest(write_manifest(tmp_path))
    loaded = load_domain(manifest, 0)
    assert np.array_equal(loaded.X, X)
    assert np.array_equal(loaded.y, y)
    # a second save produces identical bytes
    save_domain_csv(loaded, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_dim_mismatch_names_both(tmp_path):
    mpath = write_manifest(tmp_path, dim=3)
    (tmp_path / "a.csv").write_text("0,1.0,2.0\n", encoding="utf-8")
    manifest = load_manifest(mpath)
    with pytest.raises(ValidationError) as err:
        load_domain(manifest, 0)
    assert "4" in str(err.value) and "3" in str(err.value)
    assert ":1:" in str(err.value)  # line number


def test_label_out_of_range_with_line_number(tmp_path):
    mpath = write_manifest(tmp_path, dim=2)
    (tmp_path / "a.csv").write_text("0,1.0,2.0\n5,0.0,0.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=":2:"):
        load_domain(load_manifest(mpath), 0)


def test_manifest_field_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "", "dim": -1, "domains": []}', encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_manifest(path)
    msg = str(err.value)
    assert "name" in msg and "dim" in msg and "domains" in msg


def test_manifest_round_trip(tmp_path):
    manifest = DatasetManifest(
        name="rt", dim=2,
        domains=[DomainSpec("d0", "d0.csv", 2), DomainSpec("d1", "d1.csv", 3, rows=7)],
    )
    save_manifest(manifest, tmp_path / "m.json")
    assert "rows" not in json.loads((tmp_path / "m.json").read_text())["domains"][0]
    loaded = load_manifest(tmp_path / "m.json")
    assert loaded.name == "rt" and loaded.dim == 2
    assert [d.classes for d in loaded.domains] == [2, 3]
    assert [d.rows for d in loaded.domains] == [None, 7]


@pytest.mark.parametrize("rows", [0, -3, 2.0, "2", True, None])
def test_manifest_rows_must_be_a_positive_integer(tmp_path, rows):
    path = write_manifest(tmp_path)
    doc = json.loads(path.read_text())
    doc["domains"][0]["rows"] = rows
    path.write_text(json.dumps(doc))
    named = r"domains\[0\]\.rows: (expected an integer|must be >= 1), got "
    with pytest.raises(ValidationError, match=named):
        load_manifest(path)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_row_count_other_than_the_manifest_names_the_file(tmp_path, rows):
    path = write_manifest(tmp_path, dim=2)
    (tmp_path / "a.csv").write_text("0,1.0,2.0\n1,0.0,0.5\n", encoding="utf-8")
    doc = json.loads(path.read_text())
    doc["domains"][0]["rows"] = rows
    path.write_text(json.dumps(doc))
    manifest = load_manifest(path)
    if rows == 2:
        assert len(load_domain(manifest, 0)) == 2
        return
    with pytest.raises(ValidationError) as err:
        load_domain(manifest, 0)
    assert str(err.value) == f"{tmp_path / 'a.csv'}: 2 rows, the manifest says {rows}"


# ----------------------------------------------------------------- synthetic


def test_synthetic_shift_zero_identical_distributions():
    spec = SyntheticSpec(
        num_domains=3, samples_per_domain=4000, input_dim=5,
        shared_strength=1.0, shift_strength=0.0, seed=1,
    )
    data = generate_synthetic(spec)
    gen = np.random.default_rng(0)
    direction = gen.normal(size=5)
    direction /= np.linalg.norm(direction)
    projections = [d.X @ direction for d in data]
    for a in range(3):
        for b in range(a + 1, 3):
            diff = projections[a].mean() - projections[b].mean()
            se = np.sqrt(
                projections[a].var() / 4000 + projections[b].var() / 4000
            )
            assert abs(diff) < 4.0 * se


def test_synthetic_separable_when_clean():
    spec = SyntheticSpec(
        num_domains=1, samples_per_domain=400, input_dim=8,
        shared_strength=8.0, shift_strength=0.0, label_noise=0.0, seed=2,
    )
    dom = generate_synthetic(spec)[0]
    probe = Linear.init(8, 2, RngStream(0, "probe").generator())
    for _ in range(400):
        _, dlogits, _ = softmax_cross_entropy(probe.forward(dom.X), dom.y)
        _, dW, db = linear_backward(probe, dom.X, dlogits)
        probe.W -= 1.0 * dW
        probe.b -= 1.0 * db
    logits = probe.forward(dom.X)
    acc = (np.argmax(logits, axis=1) == dom.y).mean()
    assert acc > 0.99


def test_synthetic_deterministic_bytes():
    spec = SyntheticSpec(seed=7, samples_per_domain=50, input_dim=4)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for da, db in zip(a, b):
        assert np.array_equal(da.X, db.X)
        assert np.array_equal(da.y, db.y)


def test_synthetic_domain_shift_detectable_by_nonlinear_probe():
    # domains share zero mean, so the probe needs the hidden layer
    accs = []
    for seed in range(5):
        spec = SyntheticSpec(
            num_domains=2, samples_per_domain=300, input_dim=6,
            shared_strength=1.0, shift_strength=2.0, seed=seed,
        )
        data = generate_synthetic(spec)
        X = np.vstack([d.X for d in data])
        dom = np.concatenate([np.full(len(d), k) for k, d in enumerate(data)])
        gen = np.random.default_rng(seed)
        order = gen.permutation(len(X))
        X, dom = X[order], dom[order]
        n_train = len(X) // 2
        hidden = Linear.init(6, 16, RngStream(seed, "probe").generator())
        head = Linear.init(16, 2, RngStream(seed, "probe-head").generator())
        for _ in range(300):
            Z = hidden.forward(X[:n_train])
            H = relu(Z)
            _, dlogits, _ = softmax_cross_entropy(head.forward(H), dom[:n_train])
            dH, dW_head, db_head = linear_backward(head, H, dlogits)
            _, dW, db = linear_backward(hidden, X[:n_train], relu_backward(Z, dH))
            hidden.W -= 0.5 * dW
            hidden.b -= 0.5 * db
            head.W -= 0.5 * dW_head
            head.b -= 0.5 * db_head
        logits = head.forward(relu(hidden.forward(X[n_train:])))
        accs.append((np.argmax(logits, 1) == dom[n_train:]).mean())
    assert np.mean(accs) > 0.6


def test_synthetic_spec_validation():
    assert key_problems(SyntheticSpec, {"label_noise": 0.5}) == [
        "label_noise: must lie in [0, 0.5), got 0.5"
    ]
    assert key_problems(SyntheticSpec, {"num_classes": 1}) == [
        "num_classes: must be >= 2, got 1"
    ]
    assert key_problems(SyntheticSpec, {"shift_strength": -0.1}) == [
        "shift_strength: must be >= 0, got -0.1"
    ]


# ------------------------------------------------------------------ splitting


def test_split_counts_and_stratification():
    spec = SyntheticSpec(num_domains=1, samples_per_domain=200, input_dim=3, seed=4)
    dom = generate_synthetic(spec)[0]
    train, test = train_test_split(dom, 0.25, RngStream(0, "split"))
    assert len(train) + len(test) == 200
    for c in (0, 1):
        n_c = (dom.y == c).sum()
        got = (test.y == c).sum()
        assert abs(got - 0.25 * n_c) <= 1.0


def test_split_deterministic_and_disjoint():
    spec = SyntheticSpec(num_domains=1, samples_per_domain=60, input_dim=3, seed=5)
    dom = generate_synthetic(spec)[0]
    t1 = train_test_split(dom, 0.3, RngStream(9, "split"))
    t2 = train_test_split(dom, 0.3, RngStream(9, "split"))
    assert np.array_equal(t1[0].X, t2[0].X)
    assert np.array_equal(t1[1].X, t2[1].X)
    # together they exhaust the rows
    assert len(t1[0]) + len(t1[1]) == 60


def test_split_rejects_tiny_class():
    ds = DomainDataset(
        X=np.zeros((3, 2)), y=np.array([0, 0, 1]), domain_id=0
    )
    with pytest.raises(ValidationError):
        train_test_split(ds, 0.5, RngStream(0))


# -------------------------------------------------------------- standardize


def test_standardize_train_moments():
    gen = np.random.default_rng(3)
    train = DomainDataset(
        X=gen.normal(5.0, 3.0, size=(50, 4)), y=gen.integers(0, 2, 50), domain_id=0
    )
    test = DomainDataset(
        X=gen.normal(5.0, 3.0, size=(20, 4)), y=gen.integers(0, 2, 20), domain_id=0
    )
    train_s, test_s, (mean, std) = standardize(train, test)
    assert np.abs(train_s.X.mean(axis=0)).max() < 1e-10
    assert np.abs(train_s.X.std(axis=0) - 1.0).max() < 1e-10


def test_standardize_constant_feature_zeroed():
    train = DomainDataset(
        X=np.full((10, 2), 3.0), y=np.zeros(10, int), domain_id=0
    )
    test = DomainDataset(X=np.full((4, 2), 3.0), y=np.zeros(4, int), domain_id=0)
    train_s, test_s, _ = standardize(train, test)
    assert (train_s.X == 0).all()
    assert (test_s.X == 0).all()


def test_standardize_uses_train_stats_for_test():
    train = DomainDataset(
        X=np.array([[0.0], [2.0]]), y=np.array([0, 1]), domain_id=0
    )
    test = DomainDataset(X=np.array([[4.0]]), y=np.array([0]), domain_id=0)
    _, test_s, (mean, std) = standardize(train, test)
    assert mean[0] == 1.0 and std[0] == 1.0
    assert test_s.X[0, 0] == pytest.approx(3.0)  # (4-1)/1, not its own stats
