"""Dataset loading, synthetic generation, splitting, standardization.

Data files are headerless CSV: integer label in the first column, float
features after it. A JSON manifest names the domains, declares the shared
feature dimension and may record each domain's row count, so loading can
validate shapes up front.
"""

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import AT_LEAST_ONE, AT_LEAST_TWO, NON_EMPTY, NON_NEGATIVE
from .errors import ValidationError, key, key_problems
from .nncore import RngStream
from .results import read_json_object, read_lines


@dataclass
class DomainDataset:
    X: np.ndarray
    y: np.ndarray
    domain_id: int
    name: str = ""

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if not np.isfinite(self.X).all():
            raise ValidationError(f"domain {self.domain_id} has non-finite features")

    def __len__(self):
        return self.X.shape[0]


@dataclass
class DomainSpec:
    """One domain of a manifest. rows, when the manifest records it, is the
    CSV's row count, so a file cut short fails at load; None if it does not."""

    name: str = key()
    file: str = key()
    classes: int = key(*AT_LEAST_TWO)
    rows: int = key(*AT_LEAST_ONE, default=None)


@dataclass
class DatasetManifest:
    """A manifest's keys, each domain a DomainSpec; root is the directory
    its files are named from."""

    name: str = key(*NON_EMPTY)
    dim: int = key(*AT_LEAST_ONE)
    domains: list = key(*NON_EMPTY)
    root: Path = Path(".")

    @property
    def num_domains(self):
        return len(self.domains)


@dataclass
class ManifestSpec:
    """A config's manifest dataset: the manifest's path and the seed of its
    train/test splits."""

    path: str = key()
    split_seed: int = key(*NON_NEGATIVE, default=0)

    def load(self):
        """The manifest's domains, standardize-by-default, the split seed."""
        manifest = load_manifest(self.path)
        domains = [load_domain(manifest, k) for k in range(manifest.num_domains)]
        return domains, True, self.split_seed


def load_manifest(path):
    raw = read_json_object(path, "manifest")
    problems = key_problems(DatasetManifest, raw)
    entries = raw.get("domains")
    if isinstance(entries, list):
        for i, entry in enumerate(entries):
            problems += key_problems(DomainSpec, entry, f"domains[{i}].")
    if problems:
        raise ValidationError(f"invalid manifest {path}: " + "; ".join(problems))
    domains = [DomainSpec(**entry) for entry in entries]
    return DatasetManifest(raw["name"], raw["dim"], domains, root=Path(path).parent)


def load_domain(manifest, k):
    spec = manifest.domains[k]
    path = manifest.root / spec.file
    labels = []
    rows = []
    expected = manifest.dim + 1
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != expected:
            raise ValidationError(
                f"{path}:{lineno}: expected {expected} columns "
                f"(label + dim={manifest.dim}), got {len(parts)}"
            )
        try:
            label = int(parts[0])
            feats = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if not 0 <= label < spec.classes:
            raise ValidationError(
                f"{path}:{lineno}: label {label} outside "
                f"[0, {spec.classes})"
            )
        if not all(math.isfinite(v) for v in feats):
            raise ValidationError(f"{path}:{lineno}: non-finite feature")
        labels.append(label)
        rows.append(feats)
    if not rows:
        raise ValidationError(f"{path}: file is empty")
    if spec.rows is not None and len(rows) != spec.rows:
        raise ValidationError(
            f"{path}: {len(rows)} rows, the manifest says {spec.rows}"
        )
    return DomainDataset(
        X=np.asarray(rows, dtype=np.float64),
        y=np.asarray(labels, dtype=np.int64),
        domain_id=k,
        name=spec.name,
    )


def save_domain_csv(dataset, path):
    """Write label,features rows; floats via repr so values round-trip."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for label, row in zip(dataset.y, dataset.X):
            fh.write(str(int(label)))
            for v in row:
                fh.write("," + repr(float(v)))
            fh.write("\n")


def save_manifest(manifest, path):
    doc = {
        "name": manifest.name,
        "dim": manifest.dim,
        "domains": [
            {k: v for k, v in asdict(d).items() if v is not None}
            for d in manifest.domains
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- synthetic


@dataclass
class SyntheticSpec:
    """The keys of a synthetic dataset: a config's dataset, or a synth spec
    less its name (SynthSpec)."""

    num_domains: int = key(*AT_LEAST_ONE, default=3)
    samples_per_domain: int = key(*AT_LEAST_ONE, default=400)
    input_dim: int = key(*AT_LEAST_ONE, default=20)
    num_classes: int = key(*AT_LEAST_TWO, default=2)
    shared_strength: float = key(*NON_NEGATIVE, default=1.0)
    shift_strength: float = key(*NON_NEGATIVE, default=1.0)
    label_noise: float = key("must lie in [0, 0.5)", lambda v: 0 <= v < 0.5, default=0.0)
    seed: int = key(*NON_NEGATIVE, default=0)

    def load(self):
        """The generated domains, standardize-by-default, the split seed."""
        return generate_synthetic(self), False, self.seed


@dataclass
class SynthSpec(SyntheticSpec):
    """A synth spec: a synthetic dataset's keys and its manifest's name."""

    name: str = key(*NON_EMPTY, default="synthetic")


def _unit(gen, dim):
    v = gen.normal(size=dim)
    return v / np.linalg.norm(v)


def generate_synthetic(spec):
    """Sample one Gaussian blob pair (or C blobs) per domain.

    Class means combine a direction shared by every domain with a per-domain
    nuisance direction, so part of the signal transfers across domains and
    part does not. With two classes the means are antipodal:
    x = s * (shared_strength * w_shared + shift_strength * w_k) + N(0, I)
    for s = +/-1. Labels are flipped to a random other class at the noise
    rate. Deterministic under the spec seed.
    """
    gen = RngStream(spec.seed, "synthetic").generator()
    C, d = spec.num_classes, spec.input_dim
    if C == 2:
        w = _unit(gen, d)
        shared_dirs = np.stack([-w, w])
    else:
        shared_dirs = np.stack([_unit(gen, d) for _ in range(C)])
    datasets = []
    for k in range(spec.num_domains):
        if C == 2:
            wk = _unit(gen, d)
            domain_dirs = np.stack([-wk, wk])
        else:
            domain_dirs = np.stack([_unit(gen, d) for _ in range(C)])
        y = gen.integers(0, C, size=spec.samples_per_domain)
        means = (
            spec.shared_strength * shared_dirs[y]
            + spec.shift_strength * domain_dirs[y]
        )
        X = means + gen.normal(size=(spec.samples_per_domain, d))
        flips = gen.random(spec.samples_per_domain) < spec.label_noise
        offsets = gen.integers(1, C, size=spec.samples_per_domain)
        y_obs = np.where(flips, (y + offsets) % C, y)
        datasets.append(
            DomainDataset(X=X, y=y_obs, domain_id=k, name=f"domain{k}")
        )
    return datasets


# ------------------------------------------------------------------ splitting


def train_test_split(dataset, test_fraction, rng):
    """Stratified per-class split; deterministic under the stream.
    test_fraction lies in (0, 1), as ExperimentConfig checks at load."""
    gen = rng.generator()
    test_idx = []
    # Labels are in [0, classes): the manifest loader checks it and the
    # generator draws there. np.unique would import numpy.ma.
    for c in np.flatnonzero(np.bincount(dataset.y)):
        members = np.flatnonzero(dataset.y == c)
        if members.size < 2:
            raise ValidationError(
                f"class {c} in domain {dataset.domain_id} has "
                f"{members.size} sample(s); need >= 2 to split"
            )
        n_test = int(round(test_fraction * members.size))
        n_test = min(max(n_test, 1), members.size - 1)
        perm = gen.permutation(members.size)
        test_idx.extend(members[perm[:n_test]])
    test_mask = np.zeros(len(dataset), dtype=bool)
    test_mask[np.asarray(test_idx)] = True
    train_rows = np.flatnonzero(~test_mask)
    test_rows = np.flatnonzero(test_mask)
    train = DomainDataset(
        dataset.X[train_rows], dataset.y[train_rows], dataset.domain_id, dataset.name
    )
    test = DomainDataset(
        dataset.X[test_rows], dataset.y[test_rows], dataset.domain_id, dataset.name
    )
    return train, test


def standardize(train, test):
    """Scale both splits with the train split's per-feature mean/std."""
    mean = train.X.mean(axis=0)
    std = np.maximum(train.X.std(axis=0), 1e-8)
    train_s = DomainDataset((train.X - mean) / std, train.y, train.domain_id, train.name)
    test_s = DomainDataset((test.X - mean) / std, test.y, test.domain_id, test.name)
    return train_s, test_s, (mean, std)
