"""What the lab reads and writes: config schemas, the strict loader, output files.

`from_json` builds each subcommand's config dataclass from its file, and
every file the lab writes goes through `write_json` or `write_csv`.
"""
from __future__ import annotations

import csv
import json
import os
import sys
import types
import typing
import zlib
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .hamiltonian import HamiltonianModel
from .loops import block_N, mode_numbers

# -- config schemas: one dataclass per subcommand; its fields are the config
# keys the subcommand reads, and `from_json` checks their names and types


@dataclass
class ModeEntry:
    """One Fourier coefficient of a loop: re + i im at mode n, coordinate coord."""

    n: int
    coord: int = 0
    re: float = 0.0
    im: float = 0.0


@dataclass(kw_only=True)
class Subcommand:
    model: HamiltonianModel = field(default_factory=HamiltonianModel)
    N: int = 32
    output_dir: str = "lab_out"


@dataclass(kw_only=True)
class Config(Subcommand):
    """Config of `lab verify`; identical configs produce byte-identical reports."""

    M_t: int = 64
    eps_list: tuple[float, ...] = (1.0, 0.5, 0.1, 0.01, 0.001)
    seed: int = 2026

    def __post_init__(self):
        if self.N < 4 or self.M_t < 8:
            raise ValueError("need N >= 4 and M_t >= 8")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # the aps sweeps take ratios and log-log slopes across eps
        eps = self.eps_list
        if not all(0 < e < np.inf for e in eps) or len(set(eps)) < 2:
            raise ValueError(
                f"eps_list needs finite positive values, at least two of them distinct; "
                f"got {list(eps)!r}"
            )

    def rng(self, label: str) -> np.random.Generator:
        return np.random.default_rng(
            (self.seed * 1000003 + zlib.crc32(label.encode())) % 2**63
        )


@dataclass(kw_only=True)
class SolveCylinder(Subcommand):
    beta_modes: list[ModeEntry]
    d: int = 1
    eps: float = 0.05
    tol: float = 1e-11
    M_t: int = 64
    write_field_csv: bool = False


@dataclass(kw_only=True)
class Flow(Subcommand):
    seed_modes: list[ModeEntry]
    d: int = 1
    T: float = 0.5
    dt: float | None = None  # None: the default step of flow_trajectory, 0.09 / N


@dataclass(kw_only=True)
class FindOrbit(Subcommand):
    seed_modes: list[ModeEntry] | None = None  # None: alpha times the winding mode
    winding: int = 1
    flow_time: float = 1.0
    newton_tol: float = 1e-10
    alpha: float | None = None  # None: 1.0; only without seed_modes


@dataclass(kw_only=True)
class CheckCycles(Subcommand):
    seed: int = 2026
    samples: int = 48
    descent_steps: int = 120


@dataclass(kw_only=True)
class ScanAlpha(CheckCycles):
    alphas: list[float] | None = None


def from_json(cls, obj, label: str):
    """Build the dataclass `cls` from the JSON object `obj` (`label` in errors).

    Keys must name fields, and fields without a default must be given.  Values
    must match the type hints: JSON integers for int, numbers for float (never
    booleans), null for `T | None`, arrays for lists, objects for dataclasses.
    A field the class reads off an array (init=False) must match that array.
    """
    if not isinstance(obj, dict):
        raise TypeError(f"{label} must be a JSON object, got {obj!r}")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {label} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    given = {key: _typed(hints[key], value, key) for key, value in obj.items()}
    derived = {f.name for f in fields(cls) if not f.init}
    out = cls(**{key: value for key, value in given.items() if key not in derived})
    wrong = sorted(key for key in derived & set(given) if given[key] != getattr(out, key))
    if wrong:
        raise ValueError(f"{label} keys {wrong} disagree with its array")
    return out


def _typed(hint, value, label: str):
    """`value` checked against `hint` as `from_json` describes."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if is_dataclass(hint):
        return from_json(hint, value, label)
    if origin is types.UnionType:  # T | None
        return None if value is None else _typed(args[0], value, label)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        return origin(_typed(args[0], v, f"{label}[{i}]") for i, v in enumerate(value))
    if hint is float and type(value) in (int, float):
        # false for NaN, the infinities and integers beyond the float range
        if not abs(value) <= sys.float_info.max:
            raise ValueError(f"{label} must be a finite float, got {value!r}")
        return float(value)
    if hint in (int, bool, str) and type(value) is hint:
        return value
    if hint is np.ndarray and isinstance(value, list):
        pairs = np.asarray(value, dtype=float)
        if pairs.ndim and pairs.shape[-1] == 2:  # the [re, im] pairs _json_default writes
            return pairs.view(complex)[..., 0]
    raise TypeError(f"{label} must be {getattr(hint, '__name__', hint)}, got {value!r}")


# -- output files: every file the lab writes goes through write_json or write_csv


def _json_default(obj):
    """A dataclass as its fields, a complex array as nested [re, im] pairs."""
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, np.ndarray) and obj.dtype == complex:
        return np.stack((obj.real, obj.imag), axis=-1).tolist()
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


# the settings of every JSON text the lab writes, files and reports alike
_JSON_FORMAT = dict(indent=2, sort_keys=True, default=_json_default)


def write_json(path, obj) -> None:
    """Write obj as indented, key-sorted JSON, streamed into the file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, **_JSON_FORMAT)


def write_csv(path, header, rows) -> None:
    """Write the header row, then the rows."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def flow_table(times, actions, energies, norms):
    """Header and rows of flow_trace.csv and flow_curve.csv."""
    rows = (
        [f"{t:.12g}", f"{a:.17g}", f"{e:.17g}", f"{v:.17g}"]
        for t, a, e, v in zip(times, actions, energies, norms)
    )
    return ["t", "action", "cumulative_energy", "norm"], rows


def mode_table(values: np.ndarray, times=None, coord: bool = True):
    """Header and rows `mode, [coord,] [t,] re, im` of loop coefficients
    (2N+1, d), or with `times` of node values (len(times), 2N+1, d).

    Rows run mode by mode, then coordinate, then time.
    """
    header = ["mode"] + (["coord"] if coord else [])
    if times is None:  # one node, no t column
        values, nodes = values[None], [[]]
        header += ["re", "im"]
    else:
        nodes = [[f"{t:.12g}"] for t in times]
        header += ["t", "re", "im"]
    rows = (
        [int(n)] + ([c] if coord else []) + node + [f"{z.real:.17g}", f"{z.imag:.17g}"]
        for i, n in enumerate(mode_numbers(block_N(values)))
        for c in range(values.shape[2])
        for node, z in zip(nodes, values[:, i, c])
    )
    return header, rows
