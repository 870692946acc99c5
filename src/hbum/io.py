"""On-disk formats: matrix containers, scene bundles, result sets, configs.

Matrix container (extension ``.hbm``)
-------------------------------------
Byte-exact and trivially parseable:

* magic line ``HBUM1``
* one JSON header line with keys ``dtype`` (``f64`` or ``u32``), ``rows``,
  ``cols`` and ``order`` (always ``row-major``)
* the raw little-endian payload, row-major
* a footer line ``crc32:XXXXXXXX`` checksumming header and payload

Label fields are stored as ``u32`` grids of shape (height, width) holding
1-based values; the in-memory representation is 0-based, with the shift
applied only here.

Configuration files are JSON with exhaustive validation: unknown keys are
rejected and missing required keys are reported by name.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError
from .lattice import Lattice
from .model import (
    AbundanceMatrix,
    EndmemberMatrix,
    LabelField,
    ModelConfig,
    ObservationMatrix,
    SupervisionData,
    require_finite,
)
from .synthgen import SceneSpec, TrainingSplit, default_cluster_means

MAGIC = b"HBUM1\n"
_DTYPES = {"f64": np.dtype("<f8"), "u32": np.dtype("<u4")}


# ---------------------------------------------------------------------------
# Matrix container
# ---------------------------------------------------------------------------


def write_matrix(path: str | Path, arr: np.ndarray) -> None:
    """Write a 2-D float64 or uint32 array to the checksummed container."""
    arr = np.ascontiguousarray(arr)
    if arr.ndim != 2:
        raise ValidationError("only 2-D arrays are stored")
    if arr.dtype == np.float64:
        name, stored = "f64", arr.astype("<f8", copy=False)
    elif arr.dtype == np.uint32:
        name, stored = "u32", arr.astype("<u4", copy=False)
    else:
        raise ValidationError(f"unsupported dtype {arr.dtype}; use float64 or uint32")
    header = (
        json.dumps(
            {"dtype": name, "rows": arr.shape[0], "cols": arr.shape[1], "order": "row-major"},
            sort_keys=True,
        ).encode()
        + b"\n"
    )
    # The CRC runs over the header and then the C-ordered array's own
    # buffer, and the array is written as it is: the payload is not copied.
    crc = zlib.crc32(stored, zlib.crc32(header)) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(stored)
        fh.write(b"crc32:%08x\n" % crc)


_FOOTER_LEN = len(b"crc32:%08x\n" % 0)


def read_matrix(path: str | Path) -> np.ndarray:
    """Read a container written by :func:`write_matrix`, verifying the
    checksum. Raises :class:`DataFormatError` on any corruption.

    The payload is read straight into the returned array, and the CRC32 runs
    over the header and that array, so the file is held in memory once.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            return _read_matrix_from(fh, path)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def _read_matrix_from(fh, path: Path) -> np.ndarray:
    file_size = os.fstat(fh.fileno()).st_size
    if fh.read(len(MAGIC)) != MAGIC:
        raise DataFormatError(f"{path}: bad magic, not a matrix container")
    header_line = fh.readline()
    if not header_line.endswith(b"\n"):
        raise DataFormatError(f"{path}: missing header line")
    try:
        header = json.loads(header_line)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise DataFormatError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict) or set(header) != {"dtype", "rows", "cols", "order"}:
        keys = sorted(header) if isinstance(header, dict) else type(header).__name__
        raise DataFormatError(f"{path}: header keys {keys} unexpected")
    if header["order"] != "row-major":
        raise DataFormatError(f"{path}: unsupported element order {header['order']}")
    if header["dtype"] not in _DTYPES:
        raise DataFormatError(f"{path}: unsupported dtype {header['dtype']}")
    dtype = _DTYPES[header["dtype"]]
    try:
        rows, cols = int(header["rows"]), int(header["cols"])
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: non-integer dimensions in header") from exc
    if rows < 0 or cols < 0:
        raise DataFormatError(f"{path}: negative dimensions")
    n_bytes = rows * cols * dtype.itemsize
    if file_size != len(MAGIC) + len(header_line) + n_bytes + _FOOTER_LEN:
        raise DataFormatError(f"{path}: truncated or oversized payload")
    arr = np.empty((rows, cols), dtype=dtype)
    payload = memoryview(arr.reshape(-1).view(np.uint8))
    if fh.readinto(payload) != n_bytes:
        raise DataFormatError(f"{path}: truncated or oversized payload")
    footer = fh.read(_FOOTER_LEN + 1)
    if len(footer) != _FOOTER_LEN:
        raise DataFormatError(f"{path}: truncated or oversized payload")
    if not footer.startswith(b"crc32:") or not footer.endswith(b"\n"):
        raise DataFormatError(f"{path}: malformed checksum footer")
    try:
        expected = int(footer[6:-1], 16)
    except ValueError as exc:
        raise DataFormatError(f"{path}: malformed checksum footer") from exc
    actual = zlib.crc32(payload, zlib.crc32(header_line)) & 0xFFFFFFFF
    if expected != actual:
        raise DataFormatError(
            f"{path}: checksum mismatch (stored {expected:08x}, computed {actual:08x})"
        )
    return arr if arr.dtype.isnative else arr.astype(arr.dtype.newbyteorder("="))


def write_label_field(path: str | Path, field: LabelField) -> None:
    """Store a label field as a 1-based u32 grid."""
    grid = (field.grid().astype(np.int64) + 1).astype(np.uint32)
    write_matrix(path, grid)


def read_label_field(path: str | Path, domain_size: int) -> LabelField:
    grid = read_matrix(path)
    if grid.dtype != np.uint32:
        raise DataFormatError(f"{path}: label fields must be stored as u32")
    if grid.size and (grid.min() < 1 or grid.max() > domain_size):
        raise DataFormatError(f"{path}: stored labels outside 1..{domain_size}")
    lat = Lattice(grid.shape[0], grid.shape[1])
    return LabelField((grid.astype(np.int64) - 1).astype(np.int32).ravel(), domain_size, lat)


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def _check_keys(mapping: dict, required: set[str], optional: set[str], where: str) -> None:
    missing = required - set(mapping)
    if missing:
        raise ValidationError(f"{where}: missing required field '{sorted(missing)[0]}'")
    unknown = set(mapping) - required - optional
    if unknown:
        raise ValidationError(f"{where}: unknown field '{sorted(unknown)[0]}'")


def _load_json(path: str | Path, what: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{what} {path} must contain a JSON object")
    return data


def _field(mapping: dict, name: str, kind: str, where: str, default=None):
    """Config field ``name`` of ``mapping`` (``default`` when absent) as
    ``kind``: "number" gives a float, "count" an int, "array" a float64
    array and "count array" an int64 array. Counts must be integral (2.0 is
    2, 2.5 is rejected). Any other value, such as null, a string, a bool or
    a ragged list, raises ValidationError naming the field."""
    value = mapping.get(name, default)
    scalar = kind in ("number", "count")
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    ok = arr.dtype.kind in "iuf" and (arr.ndim == 0 or not scalar)
    if ok and kind.startswith("count"):
        ok = bool(np.all(np.isfinite(arr) & (arr == np.round(arr))))
    if not ok:
        wanted = {"number": "a number", "count": "an integer"}.get(kind, f"an {kind} of numbers")
        raise ValidationError(f"{where}: '{name}' must be {wanted}, got {json.dumps(value)}")
    if scalar:
        return int(value) if kind == "count" else float(value)
    return arr.astype(np.int64 if kind == "count array" else np.float64)


@dataclass
class GenerateConfig:
    """Everything ``hbum generate`` needs: the scene itself, the spectral
    setup and the training split."""

    scene: SceneSpec
    n_bands: int
    endmember_file: str | None
    min_endmember_angle_deg: float
    training: TrainingSplit

    def validate(self) -> None:
        self.scene.validate()
        self.training.validate()
        if self.n_bands < 1:
            raise ValidationError("bands must be >= 1")
        require_finite(min_endmember_angle_deg=self.min_endmember_angle_deg)
        if self.min_endmember_angle_deg < 5.0:
            raise ValidationError("minimum endmember angle must be at least 5 degrees")


def _parse_snr(scene_raw: dict, where: str) -> float:
    value = scene_raw.get("snr_db", 30.0)
    if isinstance(value, str):
        if value.lower() in ("inf", "+inf", "infinity"):
            return np.inf
        raise ValidationError(f"snr_db string must be 'inf', got '{value}'")
    return _field(scene_raw, "snr_db", "number", where, 30.0)


def load_generate_config(path: str | Path, seed_override: int | None = None) -> GenerateConfig:
    data = _load_json(path, "scene config")
    _check_keys(
        data,
        required={"scene", "training", "seed"},
        optional={"bands", "endmember_file", "min_endmember_angle_deg"},
        where=str(path),
    )
    scene_raw = data["scene"]
    if not isinstance(scene_raw, dict):
        raise ValidationError(f"{path}: 'scene' must be an object")
    where = f"{path}:scene"
    _check_keys(
        scene_raw,
        required={
            "height", "width", "clusters", "classes", "endmembers", "cluster_to_class",
        },
        optional={
            "dirichlet_means", "concentration", "snr_db", "potts_beta", "potts_sweeps",
        },
        where=where,
    )
    n_clusters = _field(scene_raw, "clusters", "count", where)
    n_endmembers = _field(scene_raw, "endmembers", "count", where)
    means_raw = scene_raw.get("dirichlet_means", "auto")
    if isinstance(means_raw, str):
        if means_raw != "auto":
            raise ValidationError(f"{path}: dirichlet_means must be a matrix or 'auto'")
        means = default_cluster_means(n_clusters, n_endmembers)
    else:
        means = _field(scene_raw, "dirichlet_means", "array", where)
    seed = _field(data, "seed", "count", str(path)) if seed_override is None else int(seed_override)
    spec = SceneSpec(
        height=_field(scene_raw, "height", "count", where),
        width=_field(scene_raw, "width", "count", where),
        n_clusters=n_clusters,
        n_classes=_field(scene_raw, "classes", "count", where),
        n_endmembers=n_endmembers,
        cluster_to_class=_field(scene_raw, "cluster_to_class", "count array", where) - 1,
        dirichlet_means=means,
        concentration=_field(scene_raw, "concentration", "number", where, 30.0),
        snr_db=_parse_snr(scene_raw, where),
        potts_beta=_field(scene_raw, "potts_beta", "number", where, 1.1),
        potts_sweeps=_field(scene_raw, "potts_sweeps", "count", where, 40),
        seed=seed,
    )
    training_raw = data["training"]
    if not isinstance(training_raw, dict):
        raise ValidationError(f"{path}: 'training' must be an object")
    where = f"{path}:training"
    _check_keys(training_raw, required={"fraction"}, optional={"kind", "eta"}, where=where)
    training = TrainingSplit(
        kind=str(training_raw.get("kind", "top_rows")),
        fraction=_field(training_raw, "fraction", "number", where),
        eta=_field(training_raw, "eta", "number", where, 0.95),
    )
    endmember_file = data.get("endmember_file")
    if endmember_file is not None and not isinstance(endmember_file, str):
        raise ValidationError(f"{path}: 'endmember_file' must be a path or null")
    cfg = GenerateConfig(
        scene=spec,
        n_bands=_field(data, "bands", "count", str(path), 413),
        endmember_file=endmember_file,
        min_endmember_angle_deg=_field(
            data, "min_endmember_angle_deg", "number", str(path), 15.0
        ),
        training=training,
    )
    cfg.validate()
    return cfg


def load_model_config(path: str | Path, overrides: dict | None = None) -> ModelConfig:
    """Load a model config; ``overrides`` maps field names (beta1, beta2,
    iterations, burnin, seed) to command-line values taking precedence."""
    data = _load_json(path, "model config")
    _check_keys(
        data,
        required={"clusters", "classes", "endmembers", "iterations", "burnin", "seed"},
        optional={
            "beta1", "beta2", "zeta", "xi", "gamma", "inner_iters", "class_proportions",
        },
        where=str(path),
    )
    merged = dict(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    where = str(path)
    iterations = _field(merged, "iterations", "count", where)
    burnin = _field(merged, "burnin", "count", where)
    if iterations <= burnin:
        raise ValidationError(
            f"{path}: iterations ({iterations}) must exceed burnin ({burnin})"
        )
    config = ModelConfig(
        n_clusters=_field(merged, "clusters", "count", where),
        n_classes=_field(merged, "classes", "count", where),
        n_endmembers=_field(merged, "endmembers", "count", where),
        beta1=_field(merged, "beta1", "number", where, 0.8),
        beta2=_field(merged, "beta2", "number", where, 0.8),
        zeta=_field(merged, "zeta", "array", where, 1.0),
        xi=_field(merged, "xi", "number", where, 1.0),
        gamma=_field(merged, "gamma", "number", where, 0.1),
        n_mc=iterations - burnin,
        n_burnin=burnin,
        seed=_field(merged, "seed", "count", where),
        inner_iters=_field(merged, "inner_iters", "count", where, 5),
        pi_override=None
        if merged.get("class_proportions") is None
        else _field(merged, "class_proportions", "array", where),
    )
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Scene bundles and result sets
# ---------------------------------------------------------------------------

BUNDLE_FILES = (
    "Y.hbm", "M.hbm", "A_true.hbm", "z_true.hbm", "omega_true.hbm",
    "labeled.hbm", "eta.hbm",
)


def write_manifest(path: str | Path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path: str | Path) -> dict:
    return _load_json(path, "manifest")


def write_bundle(
    out_dir: str | Path,
    Y: ObservationMatrix,
    M: EndmemberMatrix,
    a_true: AbundanceMatrix,
    z_true: LabelField,
    omega_true: LabelField,
    sup: SupervisionData,
    manifest: dict,
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "Y.hbm", Y.data)
    write_matrix(out / "M.hbm", M.data)
    write_matrix(out / "A_true.hbm", a_true.data)
    write_label_field(out / "z_true.hbm", z_true)
    write_label_field(out / "omega_true.hbm", omega_true)
    lat = Y.lattice
    labeled = np.zeros(lat.n_pixels, dtype=np.uint32)
    labeled[sup.labeled_idx] = sup.c.astype(np.int64) + 1
    eta = np.zeros(lat.n_pixels)
    eta[sup.labeled_idx] = sup.eta
    write_matrix(out / "labeled.hbm", labeled.reshape(lat.height, lat.width))
    write_matrix(out / "eta.hbm", eta.reshape(lat.height, lat.width))
    write_manifest(out / "scene_manifest.json", manifest)


@dataclass
class SceneBundle:
    Y: ObservationMatrix
    M: EndmemberMatrix
    a_true: AbundanceMatrix
    z_true: LabelField
    omega_true: LabelField
    sup: SupervisionData
    manifest: dict


def _manifest_counts(manifest: dict, where: Path) -> tuple[int, int]:
    try:
        counts = manifest["counts"]
        return int(counts["clusters"]), int(counts["classes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: manifest lacks a usable 'counts' section") from exc


def read_bundle(bundle_dir: str | Path) -> SceneBundle:
    bdir = Path(bundle_dir)
    manifest = read_manifest(bdir / "scene_manifest.json")
    n_clusters, n_classes = _manifest_counts(manifest, bdir)
    y_data = read_matrix(bdir / "Y.hbm")
    m_data = read_matrix(bdir / "M.hbm")
    a_data = read_matrix(bdir / "A_true.hbm")
    z_true = read_label_field(bdir / "z_true.hbm", n_clusters)
    omega_true = read_label_field(bdir / "omega_true.hbm", n_classes)
    lat = z_true.lattice
    if y_data.shape[1] != lat.n_pixels:
        raise DataFormatError(f"{bdir}: observation columns do not match the label grid")
    labeled = read_matrix(bdir / "labeled.hbm").ravel()
    eta = read_matrix(bdir / "eta.hbm").ravel()
    idx = np.flatnonzero(labeled > 0)
    if idx.size == 0:
        raise DataFormatError(f"{bdir}: bundle contains no labeled pixels")
    sup = SupervisionData.from_labels(
        idx, labeled[idx].astype(np.int64) - 1, eta[idx], n_classes, lat.n_pixels
    )
    Y = ObservationMatrix(y_data, lat)
    M = EndmemberMatrix(m_data)
    Y.validate()
    M.validate()
    return SceneBundle(Y, M, AbundanceMatrix(a_data), z_true, omega_true, sup, manifest)


RESULT_FILES = (
    "A_hat.hbm", "s2_hat.hbm", "psi_hat.hbm", "sigma2_hat.hbm", "Q_hat.hbm",
    "z_map.hbm", "omega_map.hbm", "omega_freq.hbm",
)


def write_results(out_dir: str | Path, estimates, omega_freq: np.ndarray, manifest: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "A_hat.hbm", estimates.A.data)
    write_matrix(out / "s2_hat.hbm", np.array([[estimates.noise.s2]]))
    write_matrix(out / "psi_hat.hbm", estimates.clusters.psi)
    write_matrix(out / "sigma2_hat.hbm", estimates.clusters.sigma2)
    write_matrix(out / "Q_hat.hbm", estimates.q.q)
    write_label_field(out / "z_map.hbm", estimates.z)
    write_label_field(out / "omega_map.hbm", estimates.omega)
    write_matrix(out / "omega_freq.hbm", omega_freq)
    write_manifest(out / "run_manifest.json", manifest)


@dataclass
class ResultSet:
    a_hat: AbundanceMatrix
    s2_hat: float
    psi_hat: np.ndarray
    sigma2_hat: np.ndarray
    q_hat: np.ndarray
    z_map: LabelField
    omega_map: LabelField
    omega_freq: np.ndarray
    manifest: dict


def read_results(results_dir: str | Path) -> ResultSet:
    rdir = Path(results_dir)
    manifest = read_manifest(rdir / "run_manifest.json")
    n_clusters, n_classes = _manifest_counts(manifest, rdir)
    return ResultSet(
        a_hat=AbundanceMatrix(read_matrix(rdir / "A_hat.hbm")),
        s2_hat=float(read_matrix(rdir / "s2_hat.hbm")[0, 0]),
        psi_hat=read_matrix(rdir / "psi_hat.hbm"),
        sigma2_hat=read_matrix(rdir / "sigma2_hat.hbm"),
        q_hat=read_matrix(rdir / "Q_hat.hbm"),
        z_map=read_label_field(rdir / "z_map.hbm", n_clusters),
        omega_map=read_label_field(rdir / "omega_map.hbm", n_classes),
        omega_freq=read_matrix(rdir / "omega_freq.hbm"),
        manifest=manifest,
    )
