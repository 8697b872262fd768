"""Layer decomposition of a grid function by measure-halving thresholds.

A nonnegative function is cut into truncation layers: thresholds grow by
taking, at each step, the smallest value at which the super-level set
loses at least half its measure.  Signed functions are split into
positive and negative parts with disjoint supports first, and the two
layer sequences are interleaved.
"""

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .grid import GridFunction, lp_norm, save_grid_function, total_variation


@dataclass(frozen=True)
class Molecule:
    layer: GridFunction
    a_lo: float
    a_hi: float
    level_measure: float
    sign: int

    @cached_property
    def norms(self):
        """The layer's l1 and linf norms and its TV, computed once for the
        decomposition, both checks and the manifest."""
        return {"l1": lp_norm(self.layer, 1), "linf": lp_norm(self.layer, np.inf),
                "tv": total_variation(self.layer)}

    def l1(self):
        return self.norms["l1"]

    def linf(self):
        return self.norms["linf"]

    def tv(self):
        return self.norms["tv"]


@dataclass(frozen=True)
class Decomposition:
    molecules: tuple
    source: GridFunction
    alpha_observed: float


@dataclass(frozen=True)
class AdditivityReport:
    reconstruction_exact: bool
    l1_rel_error: float
    tv_rel_error: float
    halving_ok: bool

    @property
    def all_pass(self):
        return self.reconstruction_exact and self.l1_rel_error <= 1e-12 \
            and self.tv_rel_error <= 1e-12 and self.halving_ok


def _decompose_nonneg(part: np.ndarray, f: GridFunction, sign: int):
    cell_vol = f.cell_volume
    out = []
    a_n = 0.0
    distinct, counts = np.unique(part[part > 0.0], return_counts=True)
    measure_n = float(counts.sum()) * cell_vol
    # measure of {part > v} for every distinct v: a cell count times the cell volume
    above = (counts.sum() - np.cumsum(counts)) * cell_vol
    while measure_n > 0.0:
        # the first distinct value whose set keeps at most half the measure;
        # ``above`` does not increase, so those values form a suffix, which
        # starts past a_n (its set holds all of measure_n) and ends with the
        # top value (its set is empty)
        j = int(np.searchsorted(-above, -0.5 * measure_n))
        a_next, measure_next = float(distinct[j]), float(above[j])
        layer_vals = np.clip(part - a_n, 0.0, a_next - a_n)
        out.append(
            Molecule(
                layer=GridFunction(f.spacing, f.origin, layer_vals),
                a_lo=a_n,
                a_hi=a_next,
                level_measure=measure_n,
                sign=sign,
            )
        )
        a_n = a_next
        measure_n = measure_next
    return out


def decompose(f: GridFunction) -> Decomposition:
    """Split into signed parts and cut each into measure-halving layers."""
    pos = np.maximum(f.values, 0.0)
    neg = pos - f.values
    mols_pos = _decompose_nonneg(pos, f, +1)
    mols_neg = _decompose_nonneg(neg, f, -1)
    interleaved = []
    for i in range(max(len(mols_pos), len(mols_neg))):
        if i < len(mols_pos):
            interleaved.append(mols_pos[i])
        if i < len(mols_neg):
            interleaved.append(mols_neg[i])
    alpha = 0.0
    d = f.dim
    for m in interleaved:
        tv = m.tv()
        if tv > 0:
            alpha = max(alpha, m.linf() ** (1.0 / d) * m.l1() ** ((d - 1.0) / d) / tv)
    return Decomposition(tuple(interleaved), f, alpha)


def molecule_count_bound(dec: Decomposition) -> int:
    """2*ceil(log2(|A0| / h^d)) + 2 per sign class."""
    cell_vol = dec.source.cell_volume
    bound = 0
    for sign in (+1, -1):
        mols = [m for m in dec.molecules if m.sign == sign]
        if mols:
            a0 = mols[0].level_measure
            bound += 2 * math.ceil(math.log2(max(a0 / cell_vol, 1.0))) + 2
    return bound


def verify_r1_r2(dec: Decomposition) -> AdditivityReport:
    f = dec.source
    recon = np.zeros(f.shape)
    for m in dec.molecules:
        recon += m.sign * m.layer.values
    exact = bool(np.max(np.abs(recon - f.values)) <= 1e-12 * max(1.0, np.max(np.abs(f.values))))

    l1_f = lp_norm(f, 1)
    tv_f = total_variation(f)
    l1_sum = sum(m.l1() for m in dec.molecules)
    tv_sum = sum(m.tv() for m in dec.molecules)
    l1_err = abs(l1_sum - l1_f) / l1_f if l1_f > 0 else abs(l1_sum)
    tv_err = abs(tv_sum - tv_f) / tv_f if tv_f > 0 else abs(tv_sum)

    halving_ok = True
    for sign in (+1, -1):
        mols = [m for m in dec.molecules if m.sign == sign]
        for i in range(len(mols) - 1):
            if mols[i + 1].level_measure > 0.5 * mols[i].level_measure + 1e-12:
                halving_ok = False
    return AdditivityReport(exact, l1_err, tv_err, halving_ok)


def verify_r3(dec: Decomposition):
    """Per-molecule ratio of linf^(1/d) * l1^((d-1)/d) to the TV, plus the max."""
    if not dec.molecules:
        raise DomainError("empty decomposition")
    d = dec.source.dim
    rows = []
    for i, m in enumerate(dec.molecules):
        tv = m.tv()
        l1 = m.l1()
        if tv == 0.0 and l1 > 0.0:
            raise DomainError(f"molecule {i} has mass but zero variation")
        ratio = 0.0 if tv == 0.0 else m.linf() ** (1.0 / d) * l1 ** ((d - 1.0) / d) / tv
        rows.append((i, ratio))
    return max(r for _, r in rows), rows


def default_alpha_budget(d: int, c_iso_grid: float) -> float:
    return 2.0 ** (2.0 - 1.0 / d) * c_iso_grid


def write_decomposition(dec: Decomposition, directory: str) -> str:
    """Per-molecule grid files plus a JSON manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for i, m in enumerate(dec.molecules):
        name = f"molecule_{i:03d}.grid"
        save_grid_function(m.layer, os.path.join(directory, name))
        entries.append(
            {
                "file": name,
                "sign": m.sign,
                "a_lo": m.a_lo,
                "a_hi": m.a_hi,
                "level_measure": m.level_measure,
                "norms": m.norms,
            }
        )
    manifest = {
        "schema": "bol/1",
        "count": len(entries),
        "alpha_observed": dec.alpha_observed,
        "molecules": entries,
    }
    path = os.path.join(directory, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path
