"""Hexagonal self-organizing map: lattice geometry, codebook init, online training.

Training is the classic sequential scheme. For each sample the best
matching unit (BMU) is the codebook row nearest in Euclidean distance, and
every unit then moves toward the sample by a Gaussian factor of its lattice
distance to the BMU, scaled by the current learning rate. Learning rate and
neighborhood radius decay linearly inside each schedule phase.

Everything here is deterministic: sample order is a seeded shuffle per
epoch, initialization is seeded, and retraining the same model on the same
data reproduces the codebook bit for bit.
"""

from __future__ import annotations

import binascii
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from . import kernels, pca
from ._util import JSON_NUMBERS, atomic_write_text, is_json_int
from .incidence import IncidenceMatrix

_ROW_PITCH = math.sqrt(3.0) / 2.0
_RANK_TOL = 1e-9


@dataclass(frozen=True)
class MapGrid:
    """Hexagonal unit lattice; odd rows shift half a unit right, rows sqrt(3)/2 apart.

    Units are indexed row-major: unit ``(r, c)`` has flat index ``r * cols + c``.
    """

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column")

    @property
    def units(self) -> int:
        return self.rows * self.cols

    @cached_property
    def coords(self) -> np.ndarray:
        """(units, 2) plane positions of unit centers, adjacent centers distance 1."""
        flat = np.arange(self.units)
        rows = flat // self.cols
        cols = flat % self.cols
        x = cols + 0.5 * (rows % 2)
        y = rows * _ROW_PITCH
        out = np.column_stack([x, y])
        out.flags.writeable = False
        return out

    @cached_property
    def distance_sq(self) -> np.ndarray:
        """(units, units) squared plane distance between unit centers."""
        delta = self.coords[:, None, :] - self.coords[None, :, :]
        out = (delta * delta).sum(axis=2)
        out.flags.writeable = False
        return out

    @cached_property
    def neighbor_pairs(self) -> np.ndarray:
        """(n_pairs, 2) adjacent unit pairs (a < b), plane distance exactly 1."""
        a, b = np.nonzero(np.abs(self.distance_sq - 1.0) < 1e-9)
        keep = a < b
        out = np.column_stack([a[keep], b[keep]])
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class Phase:
    """One schedule leg; alpha and sigma interpolate linearly over its steps."""

    epochs: int
    alpha_start: float
    alpha_end: float
    sigma_start: float
    sigma_end: float

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("phase needs at least one epoch")
        if not 0.0 <= self.alpha_end <= self.alpha_start <= 1.0:
            raise ValueError("alpha must decay within [0, 1]")
        if not 0.0 <= self.sigma_end <= self.sigma_start < math.inf:
            raise ValueError("sigma must be finite, decay and stay non-negative")


@dataclass(frozen=True)
class TrainingSchedule:
    phases: tuple[Phase, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(self.phases))
        if self.phases and self.phases[-1].sigma_end > 1.0:
            raise ValueError("the last phase must end with sigma <= 1")

    @property
    def total_epochs(self) -> int:
        return sum(ph.epochs for ph in self.phases)

    def step_values(self, samples_per_epoch: int):
        """Per-step (alpha, sigma) arrays across all phases."""
        alphas = []
        sigmas = []
        for ph in self.phases:
            steps = ph.epochs * samples_per_epoch
            frac = np.arange(steps, dtype=np.float64) / max(steps - 1, 1)
            alphas.append(ph.alpha_start + (ph.alpha_end - ph.alpha_start) * frac)
            sigmas.append(ph.sigma_start + (ph.sigma_end - ph.sigma_start) * frac)
        return np.concatenate(alphas), np.concatenate(sigmas)


# training steps (epochs x parts) above which the schedule runs fewer epochs
STEP_BUDGET = 4000
# default map units per square root of the part count (see default_grid)
UNITS_PER_SQRT_PART = 3.5


def default_schedule(grid: MapGrid, parts: int) -> TrainingSchedule:
    """A rough ordering pass followed by a longer low-rate finetune pass.

    30 epochs, a third of them ordering, while that fits ``STEP_BUDGET``
    steps over ``parts`` samples (up to 133 parts); above that
    ``ceil(STEP_BUDGET / parts)`` epochs, at least 3, with the same split and
    the same alpha and sigma endpoints.
    """
    if parts < 1:
        raise ValueError("parts must be positive")
    epochs = min(30, max(3, math.ceil(STEP_BUDGET / parts)))
    ordering = round(epochs / 3)
    sigma0 = max(1.0, max(grid.rows, grid.cols) / 2.0)
    return TrainingSchedule(
        (
            Phase(epochs=ordering, alpha_start=0.5, alpha_end=0.05, sigma_start=sigma0, sigma_end=1.0),
            Phase(epochs=epochs - ordering, alpha_start=0.05, alpha_end=0.01, sigma_start=1.0, sigma_end=0.1),
        )
    )


def default_grid(parts: int) -> MapGrid:
    """Smallest near-square grid holding at least
    ceil(UNITS_PER_SQRT_PART * sqrt(parts)) = ceil(3.5 * sqrt(parts)) units:
    rows and columns differ by at most one, rows the larger. 400 parts get
    9x8 = 72 units, 250 parts 8x7 = 56.
    """
    if parts < 1:
        raise ValueError("parts must be positive")
    target = math.ceil(UNITS_PER_SQRT_PART * math.sqrt(parts))
    base = math.isqrt(target)
    if base * base >= target:
        rows, cols = base, base
    elif base * (base + 1) >= target:
        rows, cols = base + 1, base
    else:
        rows, cols = base + 1, base + 1
    return MapGrid(rows, cols)


@dataclass(frozen=True, eq=False)
class SomModel:
    """Immutable trained (or initialized) map: grid plus one reference vector per unit."""

    grid: MapGrid
    codebook: np.ndarray
    seed: int
    schedule: TrainingSchedule = TrainingSchedule(())  # every phase trained, in order

    def __post_init__(self):
        cb = np.ascontiguousarray(np.asarray(self.codebook, dtype=np.float64))
        if cb.ndim != 2 or cb.shape[0] != self.grid.units:
            raise ValueError("codebook must be 2-D with one row per grid unit")
        # also rejects NaN and inf; within 2**100 no norm, product or
        # distance taken from a codebook can overflow
        if not (np.abs(cb) <= 2.0**100).all():
            raise ValueError("codebook entries must be finite and at most 2**100 in magnitude")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        cb.flags.writeable = False
        object.__setattr__(self, "codebook", cb)

    @property
    def input_dim(self) -> int:
        """Features per sample (machines): the codebook's width."""
        return self.codebook.shape[1]

    @property
    def trained_epochs(self) -> int:
        """Epochs trained so far: the schedule's total."""
        return self.schedule.total_epochs


def _check_machines(model: SomModel, machines: int) -> None:
    """Reject data whose machine count is not the model's input width."""
    if machines != model.input_dim:
        raise ValueError(
            f"model expects {model.input_dim} machines but the data has {machines}; "
            "was it trained on a different instance?"
        )


def init_codebook(grid: MapGrid, data: IncidenceMatrix, seed: int) -> SomModel:
    """Deterministic codebook spanning the top two principal directions.

    Units are laid out linearly along the principal plane of the data, the
    longer grid side along the first component, scaled by the square roots
    of the eigenvalues and then shrunk, if needed, so every component stays
    inside the data's componentwise range. When the data has fewer than two
    informative directions the codebook falls back to a small seeded box
    around the data mean (every unit within 0.2 of it).
    """
    values = data.values
    dim = data.machines
    mean, _, lam, vecs = pca.principal_plane(values)
    # lam[1] <= lam[0], so this also catches a first eigenvalue within _RANK_TOL of 0
    if lam is None or lam[1] <= _RANK_TOL * max(lam[0], 1.0):
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(-0.1, 0.1, size=(grid.units, dim)) / math.sqrt(dim)
        codebook = mean + offsets
    else:
        flat = np.arange(grid.units)
        r = flat // grid.cols
        c = flat % grid.cols
        along_rows = 2.0 * r / (grid.rows - 1) - 1.0 if grid.rows > 1 else np.zeros(grid.units)
        along_cols = 2.0 * c / (grid.cols - 1) - 1.0 if grid.cols > 1 else np.zeros(grid.units)
        if grid.rows >= grid.cols:
            major, minor = along_rows, along_cols
        else:
            major, minor = along_cols, along_rows
        offsets = np.outer(major, math.sqrt(lam[0]) * vecs[0]) + np.outer(
            minor, math.sqrt(lam[1]) * vecs[1]
        )
        # shrink uniformly so no component leaves the data's hull
        lo = values.min(axis=0)
        hi = values.max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            room_up = np.where(offsets > 1e-9, (hi - mean) / offsets, np.inf)
            room_dn = np.where(offsets < -1e-9, (lo - mean) / offsets, np.inf)
        scale = min(1.0, float(room_up.min()), float(room_dn.min()))
        codebook = np.clip(mean + scale * offsets, lo, hi)
    return SomModel(grid=grid, codebook=codebook, seed=int(seed))


def train(model: SomModel, data: IncidenceMatrix, schedule: TrainingSchedule) -> SomModel:
    """Run the schedule over the data and return the trained model.

    The input model is untouched. Sample order is a fresh seeded shuffle per
    epoch derived from (model seed, epochs already trained), so repeated
    calls are deterministic and continued training does not replay the same
    shuffles. The returned model's schedule is the input's phases followed
    by this call's.
    """
    _check_machines(model, data.machines)
    if not schedule.phases:
        raise ValueError("empty schedule")
    n_samples = data.parts
    alphas, sigmas = schedule.step_values(n_samples)
    epochs = schedule.total_epochs
    rng = np.random.default_rng([model.seed, model.trained_epochs])
    orders = np.stack([rng.permutation(n_samples) for _ in range(epochs)]).astype(np.int64)
    codebook = kernels.train_run(
        model.codebook, data.values, orders, alphas, sigmas, model.grid.distance_sq
    )
    return replace(model, codebook=codebook, schedule=TrainingSchedule(model.schedule.phases + schedule.phases))


def quantization_error(model: SomModel, data: IncidenceMatrix) -> float:
    """Mean Euclidean distance from each sample to its BMU's codebook vector."""
    _check_machines(model, data.machines)
    bmus = kernels.batch_bmu(model.codebook, data.values)
    return float(np.linalg.norm(data.values - model.codebook[bmus], axis=1).mean())


def save_model(model: SomModel, path) -> None:
    """Serialize to JSON, the codebook as base64 float64 bytes; load_model reads it back bit for bit."""
    raw = model.codebook.astype("<f8", copy=False).tobytes()
    doc = {
        "format": "somcell-model",
        "version": 2,
        "grid": {"rows": model.grid.rows, "cols": model.grid.cols, "topology": "hexagonal"},
        "input_dim": model.input_dim,
        "seed": model.seed,
        "trained_epochs": model.trained_epochs,
        "schedule": [asdict(ph) for ph in model.schedule.phases] or None,
        "codebook": binascii.b2a_base64(raw, newline=False).decode("ascii"),
    }
    atomic_write_text(path, json.dumps(doc, indent=1))


def _load_phase(doc) -> Phase:
    if not isinstance(doc, dict):
        raise ValueError(f"schedule phase must be an object, got {json.dumps(doc)}")
    if not is_json_int(doc.get("epochs")):
        raise ValueError(f"phase epochs must be an integer, got {json.dumps(doc.get('epochs'))}")
    for name in ("alpha_start", "alpha_end", "sigma_start", "sigma_end"):
        if type(doc.get(name)) not in JSON_NUMBERS:
            raise ValueError(f"phase {name} must be a number, got {json.dumps(doc.get(name))}")
    return Phase(**doc)


def _base64_codebook(codebook, units: int, input_dim: int) -> np.ndarray:
    """The canonical base64 of the row-major little-endian float64 bytes."""
    if not isinstance(codebook, str):
        raise ValueError("codebook must be a base64 string")
    try:
        raw = binascii.a2b_base64(codebook)
    except ValueError:  # bad padding or a non-ASCII character
        raw = None
    # a2b_base64 skips stray characters, so only the exact re-encoding is accepted
    if raw is None or binascii.b2a_base64(raw, newline=False).decode("ascii") != codebook:
        raise ValueError("codebook must be canonical base64 with no line breaks")
    if len(raw) != units * input_dim * 8:
        raise ValueError(
            f"codebook has {len(raw)} bytes, but {units} units of input_dim {input_dim} "
            f"float64 values take {units * input_dim * 8}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(units, input_dim)


def load_model(path) -> SomModel:
    """Read a model written by save_model: a version 2 file, the only version read.

    A foreign or malformed document raises ValueError, KeyError or
    TypeError; messages leave naming the file to the caller.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "somcell-model":
        raise ValueError("not a somcell model file")
    version = doc.get("version")
    if not is_json_int(version) or version != 2:
        raise ValueError(f"unsupported model version {version!r}")
    if not isinstance(doc.get("grid"), dict) or doc["grid"].get("topology") != "hexagonal":
        raise ValueError("model grid topology must be 'hexagonal'")
    ints = {
        "grid.rows": doc["grid"]["rows"],
        "grid.cols": doc["grid"]["cols"],
        "input_dim": doc["input_dim"],
        "seed": doc["seed"],
        "trained_epochs": doc["trained_epochs"],
    }
    for name, value in ints.items():
        if not is_json_int(value):
            raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    if ints["input_dim"] < 1:
        raise ValueError(f"input_dim must be at least 1, got {ints['input_dim']}")
    schedule = TrainingSchedule(tuple(_load_phase(ph) for ph in doc["schedule"] or ()))
    if ints["trained_epochs"] != schedule.total_epochs:
        raise ValueError(f"trained_epochs is {ints['trained_epochs']} but the schedule lists {schedule.total_epochs} epochs")
    grid = MapGrid(ints["grid.rows"], ints["grid.cols"])
    return SomModel(
        grid=grid,
        codebook=_base64_codebook(doc["codebook"], grid.units, ints["input_dim"]),
        seed=ints["seed"],
        schedule=schedule,
    )
