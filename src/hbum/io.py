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

import contextlib
import json
import os
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError
from .lattice import Lattice
from .model import (
    AbundanceMatrix,
    ChainState,
    ClusterParams,
    EndmemberMatrix,
    InteractionMatrix,
    LabelField,
    ModelConfig,
    NoiseModel,
    ObservationMatrix,
    SupervisionData,
    require_finite,
)
from .synthgen import DEFAULT_BANDS, SceneSpec, TrainingSplit, default_cluster_means

MAGIC = b"HBUM1\n"
_DTYPES = {"f64": np.dtype("<f8"), "u32": np.dtype("<u4")}


# ---------------------------------------------------------------------------
# Matrix container
# ---------------------------------------------------------------------------


def write_matrix(path: str | Path, arr: np.ndarray) -> None:
    """Write a 2-D float64 or uint32 array to the checksummed container."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValidationError("only 2-D arrays are stored")
    _write_blocks(path, arr.dtype, arr.shape, [arr])


def _write_blocks(path: str | Path, dtype: np.dtype, shape: tuple, blocks) -> None:
    """Write the ``shape`` matrix whose consecutive row blocks ``blocks``
    yields. The CRC runs over the header and each block as it is written,
    and the footer follows the last block: a source that raises, as a file
    whose checksum fails does after its last block, leaves a file that fails
    its size check."""
    name = next((key for key, stored in _DTYPES.items() if stored == dtype), None)
    if name is None:
        raise ValidationError(f"unsupported dtype {dtype}; use float64 or uint32")
    header = json.dumps(
        {"dtype": name, "rows": shape[0], "cols": shape[1], "order": "row-major"}, sort_keys=True
    ).encode() + b"\n"
    crc = zlib.crc32(header)
    with open(path, "wb") as fh:
        fh.write(MAGIC + header)
        for block in blocks:  # a C-ordered little-endian block is written as it is
            stored = np.ascontiguousarray(block, dtype=_DTYPES[name])
            crc = zlib.crc32(stored, crc)
            fh.write(stored)
        fh.write(b"crc32:%08x\n" % (crc & 0xFFFFFFFF))


_FOOTER_LEN = len(b"crc32:%08x\n" % 0)


def read_matrix(path: str | Path, dtype: str | None = None) -> np.ndarray:
    """Read a container written by :func:`write_matrix`, verifying the
    checksum and the ``dtype`` ("f64" or "u32") if given. Raises
    :class:`DataFormatError` on any corruption or another dtype.

    The payload is read straight into the returned array, and the CRC32 runs
    over the header and that array, so the file is held in memory once.
    """
    path = Path(path)
    with _opened(path, dtype) as (fh, header_line, stored, rows, cols):
        arr = np.empty((rows, cols), dtype=stored)
        _check_footer(fh, path, _read_payload(fh, path, arr, zlib.crc32(header_line)))
    return arr if arr.dtype.isnative else arr.astype(arr.dtype.newbyteorder("="))


@contextlib.contextmanager
def _opened(path: Path, dtype: str | None):
    """The open container with its header line, dtype, rows and cols, once the
    header, of ``dtype`` if given, and the size check out; OSError becomes DataFormatError."""
    try:
        with open(path, "rb") as fh:
            yield fh, *_read_header(fh, path, dtype)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def _read_header(fh, path: Path, expected: str | None) -> tuple[bytes, np.dtype, int, int]:
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
    if not isinstance(header["dtype"], str) or header["dtype"] not in _DTYPES:
        raise DataFormatError(f"{path}: unsupported dtype {header['dtype']}")
    if expected not in (None, header["dtype"]):
        raise DataFormatError(f"{path}: must be stored as {expected}, not {header['dtype']}")
    dtype = _DTYPES[header["dtype"]]
    try:
        rows, cols = int(header["rows"]), int(header["cols"])
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: non-integer dimensions in header") from exc
    if rows < 0 or cols < 0:
        raise DataFormatError(f"{path}: negative dimensions")
    if file_size != len(MAGIC) + len(header_line) + rows * cols * dtype.itemsize + _FOOTER_LEN:
        raise DataFormatError(f"{path}: truncated or oversized payload")
    return header_line, dtype, rows, cols


def _read_payload(fh, path: Path, out: np.ndarray, crc: int) -> int:
    """Read the next ``out.nbytes`` payload bytes into ``out``; returns the CRC run on."""
    payload = memoryview(out.reshape(-1).view(np.uint8))
    if fh.readinto(payload) != out.nbytes:
        raise DataFormatError(f"{path}: truncated or oversized payload")
    return zlib.crc32(payload, crc)


def _check_footer(fh, path: Path, crc: int) -> None:
    footer = fh.read(_FOOTER_LEN + 1)
    if len(footer) != _FOOTER_LEN:
        raise DataFormatError(f"{path}: truncated or oversized payload")
    if not footer.startswith(b"crc32:") or not footer.endswith(b"\n"):
        raise DataFormatError(f"{path}: malformed checksum footer")
    try:
        expected = int(footer[6:-1], 16)
    except ValueError as exc:
        raise DataFormatError(f"{path}: malformed checksum footer") from exc
    if expected != crc:
        raise DataFormatError(
            f"{path}: checksum mismatch (stored {expected:08x}, computed {crc:08x})"
        )


@dataclass
class ObservationFile:
    """The d x P observations in a ``Y.hbm`` of which only the header has
    been read. Like ``ObservationMatrix``, it serves its rows through
    ``band_blocks``, here read from the file at each call."""

    path: Path
    n_bands: int
    lattice: Lattice

    @classmethod
    def open(cls, path: str | Path, lattice: Lattice) -> "ObservationFile":
        with _opened(Path(path), "f64") as (_, _, _, rows, cols):
            if cols != lattice.n_pixels:
                raise DataFormatError(f"{path}: observation columns do not match the label grid")
        return cls(Path(path), rows, lattice)

    def band_blocks(self, n_rows: int):
        """Yield ``(first band, block)`` for float64 blocks of ``n_rows``
        bands, read into one buffer, so a block lives until the next.
        ``read_matrix``'s checks run on the same bytes, the checksum after
        the last block: a caller must exhaust the blocks before it trusts
        what it formed from them."""
        with _opened(self.path, "f64") as (fh, header_line, dtype, rows, cols):
            if (rows, cols) != (self.n_bands, self.lattice.n_pixels):
                raise DataFormatError(f"{self.path}: changed since its header was read")
            buf, crc = np.empty((min(n_rows, rows), cols), dtype=dtype), zlib.crc32(header_line)
            for lo in range(0, rows, n_rows):
                block = buf[: min(n_rows, rows - lo)]
                crc = _read_payload(fh, self.path, block, crc)
                yield lo, block.astype(np.float64, copy=False)
            _check_footer(fh, self.path, crc)


def write_label_field(path: str | Path, field: LabelField) -> None:
    """Store a label field as a 1-based u32 grid."""
    grid = (field.grid().astype(np.int64) + 1).astype(np.uint32)
    write_matrix(path, grid)


def read_label_field(path: str | Path, domain_size: int) -> LabelField:
    grid = read_matrix(path, "u32")
    if grid.size == 0:
        raise DataFormatError(f"{path}: empty label grid ({grid.shape[0]}x{grid.shape[1]})")
    if grid.min() < 1 or grid.max() > domain_size:
        raise DataFormatError(f"{path}: stored labels outside 1..{domain_size}")
    lat = Lattice(grid.shape[0], grid.shape[1])
    return LabelField((grid.astype(np.int64) - 1).astype(np.int32).ravel(), domain_size, lat)


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

# The (JSON key, attribute, kind) of every plain field, one tuple per config
# section. The loaders parse the keys a file holds and leave the rest to the
# dataclass defaults; the manifest echoes read the same tuples back. Keys
# whose JSON form differs from the attribute's are handled by name below.
_SCENE_FIELDS = (
    ("height", "height", "count"), ("width", "width", "count"),
    ("clusters", "n_clusters", "count"), ("classes", "n_classes", "count"),
    ("endmembers", "n_endmembers", "count"), ("concentration", "concentration", "number"),
    ("potts_beta", "potts_beta", "number"), ("potts_sweeps", "potts_sweeps", "count"),
)
_TRAINING_FIELDS = (
    ("kind", "kind", "text"), ("fraction", "fraction", "number"), ("eta", "eta", "number"),
)
_GENERATE_FIELDS = (  # the top level, beside "scene", "training" and "seed"
    ("bands", "n_bands", "count"), ("endmember_file", "endmember_file", "path"),
    ("min_endmember_angle_deg", "min_endmember_angle_deg", "number"),
)
_MODEL_FIELDS = (
    ("clusters", "n_clusters", "count"), ("classes", "n_classes", "count"),
    ("endmembers", "n_endmembers", "count"), ("beta1", "beta1", "number"),
    ("beta2", "beta2", "number"), ("zeta", "zeta", "array"), ("xi", "xi", "number"),
    ("gamma", "gamma", "number"), ("seed", "seed", "count"),
)


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


def _field(mapping: dict, name: str, kind: str, where: str):
    """Config field ``name`` of ``mapping`` as ``kind``: "text" gives a
    string, "path" a string or None, "number" a float, "count" an int,
    "array" a float64 array and "count array" an int64 array. Counts must be
    integral (2.0 is 2, 2.5 is rejected). Any other value, such as null, a
    string, a bool or a ragged list where numbers are wanted, raises
    ValidationError naming the field."""
    value = mapping[name]
    if kind == "text":
        return str(value)
    if kind == "path":
        if value is not None and not isinstance(value, str):
            raise ValidationError(f"{where}: '{name}' must be a path or null")
        return value
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


def _keys(fields: tuple) -> set[str]:
    return {key for key, _, _ in fields}


def _parsed(mapping: dict, fields: tuple, where: str) -> dict:
    """The ``fields`` that ``mapping`` holds, parsed and keyed by attribute."""
    return {attr: _field(mapping, key, kind, where) for key, attr, kind in fields if key in mapping}


def _echoed(obj, fields: tuple) -> dict:
    """The ``fields`` of ``obj`` as JSON values, keyed as in a config file."""
    return {key: np.asarray(getattr(obj, attr)).tolist() for key, attr, _ in fields}


@dataclass
class GenerateConfig:
    """Everything ``hbum generate`` needs: the scene itself, the training
    split and the spectral setup."""

    scene: SceneSpec
    training: TrainingSplit
    n_bands: int = DEFAULT_BANDS
    endmember_file: str | None = None
    min_endmember_angle_deg: float = 15.0

    def validate(self) -> None:
        self.scene.validate()
        self.training.validate()
        if self.n_bands < 1:
            raise ValidationError("bands must be >= 1")
        require_finite(min_endmember_angle_deg=self.min_endmember_angle_deg)
        if self.min_endmember_angle_deg < 5.0:
            raise ValidationError("minimum endmember angle must be at least 5 degrees")


def load_generate_config(path: str | Path, seed_override: int | None = None) -> GenerateConfig:
    data = _load_json(path, "scene config")
    _check_keys(data, {"scene", "training", "seed"}, _keys(_GENERATE_FIELDS), str(path))
    scene_raw, training_raw = data["scene"], data["training"]
    for name, raw in (("scene", scene_raw), ("training", training_raw)):
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: '{name}' must be an object")
    where = f"{path}:scene"
    required = {"height", "width", "clusters", "classes", "endmembers", "cluster_to_class"}
    _check_keys(scene_raw, required, _keys(_SCENE_FIELDS) | {"dirichlet_means", "snr_db"}, where)
    scene = _parsed(scene_raw, _SCENE_FIELDS, where)
    cluster_to_class = _field(scene_raw, "cluster_to_class", "count array", where) - 1
    top = _parsed(data, _GENERATE_FIELDS, str(path))
    # Checked before "auto" means allocate a clusters x endmembers matrix.
    if cluster_to_class.shape != (scene["n_clusters"],):
        raise ValidationError("cluster_to_class needs one entry per cluster")
    if scene["n_endmembers"] > (n_bands := top.get("n_bands", DEFAULT_BANDS)):
        raise ValidationError("cannot place more endmembers than bands")
    # Y, M and the means each hold at most bands x widest entries: 2**31 is 16 GiB.
    widest = max(scene["height"] * scene["width"], scene["n_endmembers"], cluster_to_class.size)
    if n_bands * widest > 2**31:
        raise ValidationError(f"{path}: 'bands' x max(pixels, endmembers, clusters) > 2**31")
    if scene_raw.get("dirichlet_means") == "auto" or "dirichlet_means" not in scene_raw:
        means = default_cluster_means(scene["n_clusters"], scene["n_endmembers"])
    elif isinstance(scene_raw["dirichlet_means"], str):
        raise ValidationError(f"{path}: dirichlet_means must be a matrix or 'auto'")
    else:
        means = _field(scene_raw, "dirichlet_means", "array", where)
    snr = scene_raw.get("snr_db")
    if isinstance(snr, str):
        if snr.lower() not in ("inf", "+inf", "infinity"):
            raise ValidationError(f"snr_db string must be 'inf', got '{snr}'")
        scene["snr_db"] = np.inf
    elif "snr_db" in scene_raw:
        scene["snr_db"] = _field(scene_raw, "snr_db", "number", where)
        if np.isinf(scene["snr_db"]):
            raise ValidationError(f"{where}: 'snr_db' must be finite or 'inf': {json.dumps(snr)}")
    seed = _field(data, "seed", "count", str(path)) if seed_override is None else int(seed_override)
    spec = SceneSpec(
        **scene, dirichlet_means=means, seed=seed, cluster_to_class=cluster_to_class
    )
    where = f"{path}:training"
    _check_keys(training_raw, {"fraction"}, _keys(_TRAINING_FIELDS), where)
    training = TrainingSplit(**_parsed(training_raw, _TRAINING_FIELDS, where))
    cfg = GenerateConfig(spec, training, **top)
    cfg.validate()
    return cfg


def generate_config_echo(cfg: GenerateConfig) -> dict:
    """``cfg`` as a scene config that loads back to it, with the means
    matrix resolved: the inverse of :func:`load_generate_config`."""
    spec = cfg.scene
    scene = _echoed(spec, _SCENE_FIELDS)
    scene["cluster_to_class"] = (spec.cluster_to_class + 1).tolist()
    scene["dirichlet_means"] = spec.dirichlet_means.tolist()
    scene["snr_db"] = "inf" if np.isinf(spec.snr_db) else spec.snr_db
    training = _echoed(cfg.training, _TRAINING_FIELDS)
    return dict(_echoed(cfg, _GENERATE_FIELDS), scene=scene, training=training, seed=spec.seed)


def load_model_config(path: str | Path, overrides: dict | None = None) -> ModelConfig:
    """Load a model config; ``overrides`` maps field names (beta1, beta2,
    iterations, burnin, seed) to command-line values taking precedence."""
    data = _load_json(path, "model config")
    where = str(path)
    required = {"clusters", "classes", "endmembers", "iterations", "burnin", "seed"}
    _check_keys(data, required, _keys(_MODEL_FIELDS) | {"class_proportions"}, where)
    merged = dict(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    iterations = _field(merged, "iterations", "count", where)
    burnin = _field(merged, "burnin", "count", where)
    if iterations <= burnin:
        raise ValidationError(
            f"{path}: iterations ({iterations}) must exceed burnin ({burnin})"
        )
    pi = merged.get("class_proportions")  # null, like absent, keeps the bundle's pi
    if pi is not None:
        pi = _field(merged, "class_proportions", "array", where)
    config = ModelConfig(
        **_parsed(merged, _MODEL_FIELDS, where),
        n_mc=iterations - burnin, n_burnin=burnin, pi_override=pi,
    )
    config.validate()
    return config


def model_config_echo(config: ModelConfig) -> dict:
    """``config`` as a model config that loads back to it: the inverse of
    :func:`load_model_config`."""
    return dict(
        _echoed(config, _MODEL_FIELDS),
        iterations=config.n_mc + config.n_burnin,
        burnin=config.n_burnin,
        class_proportions=np.asarray(config.pi_override).tolist(),  # None stays None
    )


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


@dataclass
class SceneBundle:
    Y: ObservationMatrix | ObservationFile
    M: EndmemberMatrix
    a_true: AbundanceMatrix
    z_true: LabelField
    omega_true: LabelField
    sup: SupervisionData
    manifest: dict


def write_bundle(out_dir: str | Path, bundle: SceneBundle) -> None:
    """Write ``bundle`` as the files :func:`read_bundle` reads back."""
    out, Y = Path(out_dir), bundle.Y
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(Y, ObservationFile) and Y.path.resolve() == (out / "Y.hbm").resolve():
        raise ValidationError(f"{Y.path}: Y cannot be written onto the file it streams from")
    blocks = (block for _, block in Y.band_blocks(16))  # a file source holds one block
    _write_blocks(out / "Y.hbm", np.float64, (Y.n_bands, Y.lattice.n_pixels), blocks)
    write_matrix(out / "M.hbm", bundle.M.data)
    write_matrix(out / "A_true.hbm", bundle.a_true.data)
    write_label_field(out / "z_true.hbm", bundle.z_true)
    write_label_field(out / "omega_true.hbm", bundle.omega_true)
    lat, sup = Y.lattice, bundle.sup
    labeled = np.zeros(lat.n_pixels, dtype=np.uint32)
    labeled[sup.labeled_idx] = sup.c.astype(np.int64) + 1
    eta = np.zeros(lat.n_pixels)
    eta[sup.labeled_idx] = sup.eta
    write_matrix(out / "labeled.hbm", labeled.reshape(lat.height, lat.width))
    write_matrix(out / "eta.hbm", eta.reshape(lat.height, lat.width))
    write_manifest(out / "scene_manifest.json", bundle.manifest)


def _manifest_counts(manifest: dict, where: Path) -> tuple[int, int]:
    try:
        counts = manifest["counts"]
        return int(counts["clusters"]), int(counts["classes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: manifest lacks a usable 'counts' section") from exc


def _check_shape(path: Path, shape: tuple, expected: tuple) -> None:
    if shape != expected:
        raise DataFormatError(
            f"{path}: expected a {expected[0]}x{expected[1]} matrix, got {shape}"
        )


def read_bundle(bundle_dir: str | Path) -> SceneBundle:
    """Read a bundle, checking its files' format and shapes: every grid is
    z_true's, and A_true is (columns of M) x P, with finite entries. Of Y
    only the header is read: ``Y`` is an ObservationFile, whose payload and
    checksum are read, and whose values and M's are checked, where the chain
    forms its statistics, in ``_make_precomp``."""
    bdir = Path(bundle_dir)
    manifest = read_manifest(bdir / "scene_manifest.json")
    n_clusters, n_classes = _manifest_counts(manifest, bdir)
    m_data = read_matrix(bdir / "M.hbm", "f64")
    a_data = read_matrix(bdir / "A_true.hbm", "f64")
    z_true = read_label_field(bdir / "z_true.hbm", n_clusters)
    omega_true = read_label_field(bdir / "omega_true.hbm", n_classes)
    lat = z_true.lattice
    grid = (lat.height, lat.width)
    _check_shape(bdir / "omega_true.hbm", omega_true.grid().shape, grid)
    _check_shape(bdir / "A_true.hbm", a_data.shape, (m_data.shape[1], lat.n_pixels))
    if not np.isfinite(a_data).all():
        raise DataFormatError(f"{bdir / 'A_true.hbm'}: abundances contain non-finite entries")
    Y = ObservationFile.open(bdir / "Y.hbm", lat)
    labeled, eta = read_matrix(bdir / "labeled.hbm", "u32"), read_matrix(bdir / "eta.hbm", "f64")
    _check_shape(bdir / "labeled.hbm", labeled.shape, grid)
    _check_shape(bdir / "eta.hbm", eta.shape, grid)
    labeled, eta = labeled.ravel(), eta.ravel()
    idx = np.flatnonzero(labeled > 0)
    if idx.size == 0:
        raise DataFormatError(f"{bdir}: bundle contains no labeled pixels")
    sup = SupervisionData.from_labels(
        idx, labeled[idx].astype(np.int64) - 1, eta[idx], n_classes, lat.n_pixels
    )
    return SceneBundle(
        Y, EndmemberMatrix(m_data), AbundanceMatrix(a_data), z_true, omega_true, sup, manifest
    )


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


def read_results(results_dir: str | Path) -> tuple[ChainState, np.ndarray, dict]:
    """The ``(estimates, omega_freq, manifest)`` that :func:`write_results`
    wrote. The estimates must pass ``ChainState.validate`` and ``omega_freq``
    must be (J, P); otherwise DataFormatError names the set or the file."""
    rdir = Path(results_dir)
    manifest = read_manifest(rdir / "run_manifest.json")
    n_clusters, n_classes = _manifest_counts(manifest, rdir)
    chain = t.get("chain") if isinstance(t := manifest.get("timings_s", {}), dict) else "?"
    if chain is not None and not (type(chain) in (int, float) and abs(chain) <= sys.float_info.max):
        raise DataFormatError(f"{rdir / 'run_manifest.json'}: malformed 'timings_s'")
    s2_hat = read_matrix(rdir / "s2_hat.hbm", "f64")
    _check_shape(rdir / "s2_hat.hbm", s2_hat.shape, (1, 1))
    estimates = ChainState(
        AbundanceMatrix(read_matrix(rdir / "A_hat.hbm", "f64")),
        NoiseModel(float(s2_hat[0, 0])),
        ClusterParams(*(read_matrix(rdir / f"{n}_hat.hbm", "f64") for n in ("psi", "sigma2"))),
        read_label_field(rdir / "z_map.hbm", n_clusters),
        InteractionMatrix(read_matrix(rdir / "Q_hat.hbm", "f64")),
        read_label_field(rdir / "omega_map.hbm", n_classes),
    )
    try:
        estimates.validate()
    except ValidationError as exc:
        raise DataFormatError(f"{rdir}: result set fails its checks: {exc}") from exc
    omega_freq = read_matrix(rdir / "omega_freq.hbm", "f64")
    n_pixels = estimates.z.lattice.n_pixels
    _check_shape(rdir / "omega_freq.hbm", omega_freq.shape, (n_classes, n_pixels))
    return estimates, omega_freq, manifest
