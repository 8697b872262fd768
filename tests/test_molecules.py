import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bol.errors import DomainError
from bol.grid import GridFunction, load_grid_function, lp_norm, total_variation
from bol.corpus import make_corpus, random_piecewise_constant
from bol.molecules import (decompose, default_alpha_budget,
                           molecule_count_bound, verify_r1_r2, verify_r3,
                           write_decomposition)


def staircase():
    return GridFunction(1.0, (0.0,), np.array([1.0, 1.0, 2.0, 2.0, 1.0, 1.0]))


def test_staircase_has_two_layers():
    dec = decompose(staircase())
    assert len(dec.molecules) == 2
    m0, m1 = dec.molecules
    assert (m0.a_lo, m0.a_hi) == (0.0, 1.0)
    assert (m1.a_lo, m1.a_hi) == (1.0, 2.0)
    assert m0.level_measure == pytest.approx(6.0)
    assert m1.level_measure == pytest.approx(2.0)


def test_reconstruction_and_additivity_on_corpus():
    for f in make_corpus(seed=2, dim=2, n=24, size=8):
        dec = decompose(f)
        rep = verify_r1_r2(dec)
        assert rep.all_pass, rep
        assert len(dec.molecules) <= molecule_count_bound(dec)


def test_halving_invariant():
    rng = np.random.default_rng(12)
    f = random_piecewise_constant(rng, dim=2, n=20)
    dec = decompose(f)
    for sign in (+1, -1):
        mols = [m for m in dec.molecules if m.sign == sign]
        for a, b in zip(mols, mols[1:]):
            assert b.level_measure <= 0.5 * a.level_measure + 1e-12


def test_signed_split_disjoint_supports():
    v = np.array([2.0, -1.0, 0.0, 3.0, -2.0])
    dec = decompose(GridFunction(1.0, (0.0,), v))
    pos = sum(m.layer.values for m in dec.molecules if m.sign == +1)
    neg = sum(m.layer.values for m in dec.molecules if m.sign == -1)
    assert np.all(pos * neg == 0.0)
    assert np.allclose(pos - neg, v)


def test_balance_ratio_within_budget():
    budget = default_alpha_budget(2, 0.25)
    for f in make_corpus(seed=5, dim=2, n=24, size=6):
        dec = decompose(f)
        worst, rows = verify_r3(dec)
        assert worst <= budget * 1.05
        assert all(r >= 0 for _, r in rows)


def test_alpha_budget_formula():
    assert default_alpha_budget(2, 0.25) == pytest.approx(2 ** 1.5 * 0.25)
    assert default_alpha_budget(1, 0.5) == pytest.approx(2.0 * 0.5)


def test_l1_and_tv_additivity_is_exact_coarea():
    rng = np.random.default_rng(8)
    f = random_piecewise_constant(rng, dim=2, n=16, allow_negative=False)
    dec = decompose(f)
    l1_sum = sum(m.l1() for m in dec.molecules)
    tv_sum = sum(m.tv() for m in dec.molecules)
    assert l1_sum == pytest.approx(lp_norm(f, 1), rel=1e-14)
    assert tv_sum == pytest.approx(total_variation(f), rel=1e-14)


def test_empty_decomposition_rejected():
    z = GridFunction(1.0, (0.0,), np.zeros(4))
    dec = decompose(z)
    assert len(dec.molecules) == 0
    with pytest.raises(DomainError):
        verify_r3(dec)


def test_write_decomposition_manifest(tmp_path):
    dec = decompose(staircase())
    manifest_path = write_decomposition(dec, str(tmp_path / "out"))
    manifest = json.loads(open(manifest_path).read())
    assert manifest["schema"] == "bol/1"
    assert manifest["count"] == 2
    recon = None
    for entry in manifest["molecules"]:
        layer = load_grid_function(str(tmp_path / "out" / entry["file"]))
        part = entry["sign"] * layer.values
        recon = part if recon is None else recon + part
    assert np.allclose(recon, staircase().values)


def _candidate_search(part, f):
    """(a_lo, a_hi, level_measure, layer values) of each layer, from the
    former search that counts the set {part > v} afresh for every candidate v."""
    out, a_n = [], 0.0
    measure_n = float(np.count_nonzero(part > 0.0)) * f.cell_volume
    distinct = np.unique(part[part > 0.0])
    while measure_n > 0.0:
        for v in distinct[distinct > a_n]:
            m_v = float(np.count_nonzero(part > v)) * f.cell_volume
            if m_v <= 0.5 * measure_n:
                break
        out.append((a_n, float(v), measure_n, np.clip(part - a_n, 0.0, float(v) - a_n)))
        a_n, measure_n = float(v), m_v
    return out


@st.composite
def signed_grids(draw):
    dim = draw(st.integers(1, 3))
    shape = draw(st.tuples(*[st.integers(1, 7 - dim)] * dim))
    level = st.one_of(st.integers(-8, 8).map(lambda k: k / 4.0),
                      st.floats(-4.0, 4.0).filter(lambda x: abs(x) > 1e-3))
    values = draw(arrays(np.float64, shape, elements=level))
    return GridFunction(draw(st.sampled_from([1.0, 0.5, 0.3, 1.0 / 7.0])), (0.0,) * dim, values)


@settings(max_examples=150, deadline=None)
@given(f=signed_grids())
def test_thresholds_match_the_candidate_search(f):
    dec = decompose(f)
    pos = np.maximum(f.values, 0.0)
    for sign, part in ((+1, pos), (-1, pos - f.values)):
        mols = [m for m in dec.molecules if m.sign == sign]
        ref = _candidate_search(part, f)
        assert [(m.a_lo, m.a_hi, m.level_measure) for m in mols] == [r[:3] for r in ref]
        assert all(np.array_equal(m.layer.values, r[3]) for m, r in zip(mols, ref))
        # thresholds strictly increase, each layer starting where the last ended
        assert all(m.a_lo < m.a_hi for m in mols)
        assert all(a.a_hi == b.a_lo for a, b in zip(mols, mols[1:]))
        # each threshold keeps at most half the measure of the set above the last
        for m in mols:
            above = np.count_nonzero(part > m.a_hi) * f.cell_volume
            assert above <= 0.5 * m.level_measure
    recon = sum((m.sign * m.layer.values for m in dec.molecules), np.zeros(f.shape))
    assert np.allclose(recon, f.values, rtol=0.0, atol=1e-12 * max(1.0, np.abs(f.values).max()))
    l1, tv = lp_norm(f, 1), total_variation(f)
    assert sum(m.l1() for m in dec.molecules) == pytest.approx(l1, rel=1e-12, abs=0.0)
    assert sum(m.tv() for m in dec.molecules) == pytest.approx(tv, rel=1e-12, abs=0.0)
