"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion as it completes.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from epkit.cli import main as cli_main
from epkit.core import eigvalues_grid, eigvectors_grid
from epkit.crossing import overlap_peaks
from epkit.epfind import (cell_winding, equal_width_eps, grid_ep_search,
                          sample_points)
from epkit.sphere import PlanePoint, lift_cut, to_plane, to_sphere
from epkit.surface import (AnalyticOracle, CircleLoop, PolylineLoop,
                           build_surface, connected_components, encircle)
from epkit.toymodel import ToyParams, eigenpair_sampler, preset, scan_entries

DOUBLE_EP = ToyParams(g_c=0.05, beta=1.0, gamma1=1.05, gamma2=1.05)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def run_cli(*argv):
    return cli_main(list(argv))


def test_criterion_1_double_ep_roots(tmp_path):
    with criterion(1, "find-eps locates the double EPs at 0.454/0.621 "
                      "within 1e-3 in under 1 s"):
        start = time.perf_counter()
        code = run_cli("find-eps", "--g-c", "0.05", "--beta", "1.0",
                       "--gamma1", "1.05", "--gamma2", "1.05",
                       "--out", str(tmp_path))
        elapsed = time.perf_counter() - start
        assert code == 0
        eps = json.loads((tmp_path / "find_eps.json").read_text())["eps"]
        assert len(eps) == 2
        assert abs(eps[0]["p1"] - 0.454) <= 1e-3
        assert abs(eps[1]["p1"] - 0.621) <= 1e-3
        assert elapsed < 1.0


def test_criterion_2_beta_transition_window(tmp_path):
    with criterion(2, "beta-scan brackets the LZ/WB transition inside "
                      "[0.76, 0.78] in under 10 s"):
        start = time.perf_counter()
        code = run_cli("beta-scan", "--g-c", "0.043",
                       "--gamma1", "1.05", "--gamma2", "1.07",
                       "--beta-window", "0.7", "0.85", "--out", str(tmp_path))
        elapsed = time.perf_counter() - start
        assert code == 0
        beta_c = json.loads((tmp_path / "beta_scan.json").read_text())["beta_c"]
        assert 0.76 <= beta_c <= 0.78
        assert elapsed < 10.0


def test_criterion_3_crossing_classes(tmp_path):
    expected = {"class1": "LZ", "class2": "WB", "class3": "WB",
                "class4": "WB", "class5": "LZ"}
    with criterion(3, "the five representative presets classify as "
                      f"{expected} in under 10 s total"):
        start = time.perf_counter()
        got = {}
        for name in expected:
            out = tmp_path / name
            assert run_cli("toy-sweep", "--preset", name,
                           "--out", str(out)) == 0
            report = json.loads((out / "toy_sweep_report.json").read_text())
            got[name] = report["report"]["label"]
        elapsed = time.perf_counter() - start
        assert got == expected
        assert elapsed < 10.0


def test_criterion_4_monodromy():
    with criterion(4, "loops around EP1/EP2 swap, around both identity, "
                      "matching the analytic oracle, stable under 20 "
                      "random perturbations per case; discriminant windings "
                      "+1/-1/0 (toy) and +1/+1/2 (oracle)"):
        roots = equal_width_eps(DOUBLE_EP)
        assert all(r.residual < 1e-3 for r in roots)
        ep1, ep2 = roots[0].p1, roots[1].p1

        toy = eigenpair_sampler(DOUBLE_EP)
        oracle = AnalyticOracle.two_point(complex(ep1, 1.0),
                                          complex(ep2, 1.0)).sampler()
        rect = PolylineLoop(((0.40, 0.95), (0.68, 0.95),
                             (0.68, 1.05), (0.40, 1.05)))
        # the discriminant winds +1 and -1 around the toy EPs, but +1 and
        # +1 around the oracle's: the same permutations, other topologies
        cases = [
            (CircleLoop((ep1, 1.0), 0.05), "swap", 1, 1),
            (CircleLoop((ep2, 1.0), 0.05), "swap", -1, 1),
            (rect, "identity", 0, 2),
        ]
        for loop, expected, toy_winding, oracle_winding in cases:
            res = encircle(toy, loop, 128)
            assert (res.permutation, res.winding) == (expected, toy_winding)
            res = encircle(oracle, loop, 128)
            assert (res.permutation, res.winding) == (expected, oracle_winding)

        rng = np.random.default_rng(2024)
        for base, expected in ((ep1, "swap"), (ep2, "swap")):
            for _ in range(20):
                loop = CircleLoop(
                    (base + rng.uniform(-0.01, 0.01),
                     1.0 + rng.uniform(-0.01, 0.01)),
                    rng.uniform(0.02, 0.06),
                )
                assert encircle(toy, loop, 128).permutation == expected
                assert encircle(oracle, loop, 128).permutation == expected
        for _ in range(20):
            verts = tuple(
                (x + rng.uniform(-0.005, 0.005), y + rng.uniform(-0.005, 0.005))
                for x, y in ((0.40, 0.95), (0.68, 0.95), (0.68, 1.05),
                             (0.40, 1.05))
            )
            loop = PolylineLoop(verts)
            assert encircle(toy, loop, 128).permutation == "identity"
            assert encircle(oracle, loop, 128).permutation == "identity"


def lattice_charges(sampler, window, n=48):
    """The nonzero cell charges of an n x n grid over ``window``, row-major."""
    p1, p2 = np.meshgrid(np.linspace(*window[0], n), np.linspace(*window[1], n),
                         indexing="ij")
    va, vb, _ = sample_points(sampler, p1, p2)
    charge, _ = cell_winding(va - vb)
    return charge[charge != 0].tolist()


def test_criterion_4_preset_ep_charges():
    # (alpha, beta) and charge of each EP, as in the README's charge table
    table = {"transition": [((0.4813, 0.7645), 1), ((0.6272, 1.2403), -1)],
             "class4": [((0.4489, 1.2403), 1), ((0.5921, 0.7645), -1)]}
    window = ((0.3, 0.8), (0.6, 1.4))
    with criterion(4, "over [0.3, 0.8] x [0.6, 1.4] the transition and class4 "
                      "presets have one EP pair of charges +1/-1 (0.02 "
                      "circles, and one charged cell each at 48x48), and a "
                      "loop around both is the identity; at 48x48 double-ep "
                      "has cells +1/-1 there and the oracle +1/+1"):
        for name, expected in table.items():
            sampler = eigenpair_sampler(preset(name))
            assert lattice_charges(sampler, window) == [1, -1], name
            eps = grid_ep_search(sampler, window).locations
            got = [((round(e.p1, 4), round(e.p2, 4)),
                    encircle(sampler, CircleLoop((e.p1, e.p2), 0.02)).winding)
                   for e in eps]
            assert got == expected, name
            (a1, b1), (a2, b2) = [(e.p1, e.p2) for e in eps]
            lo, hi = min(b1, b2) - 0.05, max(b1, b2) + 0.05
            both = PolylineLoop(((a1 - 0.05, lo), (a2 + 0.05, lo),
                                 (a2 + 0.05, hi), (a1 - 0.05, hi)))
            res = encircle(sampler, both)
            assert (res.permutation, res.winding) == ("identity", 0), name
        assert lattice_charges(eigenpair_sampler(DOUBLE_EP), window) == [1, -1]
        oracle = AnalyticOracle.two_point(0.45 + 1j, 0.62 + 1j).sampler()
        assert lattice_charges(oracle, ((0.3, 0.8), (0.9, 1.1))) == [1, 1]


def test_criterion_5_branch_cut_topology():
    with criterion(5, "256x64 surface: real cut joins the EPs (endpoints "
                      "within 2 cells), two imaginary cuts leave outward"):
        ep1, ep2 = (ep.p1 for ep in equal_width_eps(DOUBLE_EP))
        grid = build_surface(eigenpair_sampler(DOUBLE_EP),
                             ((0.3, 0.8), (0.9, 1.0)), 256, 64)
        cell = grid.axis1[1] - grid.axis1[0]

        re_comps = connected_components(grid.cut_cells.re)
        assert len(re_comps) == 1
        alphas = sorted(grid.axis1[i] for i, j in re_comps[0])
        assert abs(alphas[0] - ep1) <= 2 * cell
        assert abs(alphas[-1] - ep2) <= 2 * cell

        im_comps = connected_components(grid.cut_cells.im)
        assert len(im_comps) == 2
        for comp in im_comps:
            a_vals = sorted(grid.axis1[i] for i, j in comp)
            touches = a_vals[0] == grid.axis1[0] or a_vals[-1] == grid.axis1[-1]
            near_ep = min(abs(a_vals[0] - ep1), abs(a_vals[-1] - ep1),
                          abs(a_vals[0] - ep2), abs(a_vals[-1] - ep2))
            assert touches
            assert near_ep <= 2 * cell


def test_criterion_6_width_bifurcation_structure():
    with criterion(6, "between the EPs Re(lambda) lock within 1e-10, widths "
                      "lock outside, overlap peaks within 0.01 of the roots"):
        ep1, ep2 = (ep.p1 for ep in equal_width_eps(DOUBLE_EP))

        inside = np.linspace(ep1 + 1e-5, ep2 - 1e-5, 1000)
        lp, lm = eigvalues_grid(*scan_entries(inside, DOUBLE_EP))
        assert np.max(np.abs(lp.real - lm.real)) < 1e-10

        outside = np.concatenate([
            np.linspace(0.30, ep1 - 1e-5, 500),
            np.linspace(ep2 + 1e-5, 0.80, 500),
        ])
        lp, lm = eigvalues_grid(*scan_entries(outside, DOUBLE_EP))
        assert np.max(np.abs(lp.imag - lm.imag)) < 1e-10

        alphas = np.linspace(0.3, 0.8, 2001)
        vp, vm = eigvectors_grid(*scan_entries(alphas, DOUBLE_EP))
        peaks = overlap_peaks(alphas, vp, vm)
        assert len(peaks) == 2
        assert abs(peaks[0] - ep1) <= 0.01
        assert abs(peaks[1] - ep2) <= 0.01


def test_criterion_7_projection_identities():
    with criterion(7, "projection round trip and unit norm at 1e-12 on 1e5 "
                      "points; EP2 image matches (0.5974, 0.1105, .)"):
        rng = np.random.default_rng(77)
        n = rng.normal(0.0, 3.0, 100_000)
        chi = rng.normal(0.0, 3.0, 100_000)
        tn, tchi, txi = lift_cut(n, chi).T
        norms = np.sqrt(tn**2 + tchi**2 + txi**2)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

        denom = 1.0 - txi
        back_n, back_chi = tn / denom, tchi / denom
        scale = 1.0 + np.abs(n) + np.abs(chi)
        assert np.max(np.abs(back_n - n) / scale) < 1e-12
        assert np.max(np.abs(back_chi - chi) / scale) < 1e-12

        # spot-check the scalar API on a random subsample
        for k in range(0, 100_000, 20_000):
            s = to_sphere(PlanePoint(n[k], chi[k]))
            p = to_plane(s)
            assert abs(p.n - n[k]) / scale[k] < 1e-12
            assert abs(p.chi - chi[k]) / scale[k] < 1e-12

        ep2 = to_sphere(PlanePoint(2.9036, 0.5372))
        assert abs(ep2.tn - 0.5974) < 1e-4
        assert abs(ep2.tchi - 0.1105) < 1e-4
        # the published third coordinate (0.8971) disagrees with the
        # projection formula, which gives:
        print(f"  note: third coordinate evaluates to {ep2.txi:.4f} "
              "(documented discrepancy; not asserted)")


def test_criterion_8_core_numerics_bulk():
    with criterion(8, "trace/det identities at 1e-12 and dense-eigensolver "
                      "agreement at 1e-10 on 1e6 random Hamiltonians"):
        rng = np.random.default_rng(8)
        n = 1_000_000
        xi1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        lp, lm = eigvalues_grid(xi1, xi2, g)
        scale = np.abs(xi1 * xi2) + np.abs(g) ** 2 + 1.0
        assert np.max(np.abs(lp + lm - (xi1 + xi2)) / scale) < 1e-12
        assert np.max(np.abs(lp * lm - (xi1 * xi2 - g * g)) / scale) < 1e-12

        mats = np.empty((n, 2, 2), dtype=complex)
        mats[:, 0, 0] = xi1
        mats[:, 0, 1] = g
        mats[:, 1, 0] = g
        mats[:, 1, 1] = xi2
        ev = np.linalg.eigvals(mats)
        keep = abs(lp - lm) > 2e-6  # |eta| > 1e-6
        direct = (np.abs(ev[:, 0] - lp) + np.abs(ev[:, 1] - lm))[keep]
        swapped = (np.abs(ev[:, 1] - lp) + np.abs(ev[:, 0] - lm))[keep]
        assert np.max(np.minimum(direct, swapped)) < 1e-10


def test_criterion_9_ingestion_substitute(tmp_path):
    with criterion(9, "cavity spectra are out of scope (external solver); "
                      "substituted by cut topology (criterion 5) plus the "
                      "ingestion round trip"):
        out = tmp_path / "sweep"
        assert run_cli("toy-sweep", "--preset", "double-ep",
                       "--out", str(out)) == 0
        assert run_cli("ingest-classify", "--input",
                       str(out / "toy_sweep.csv"),
                       "--meta", "n_in=2.74", "--meta", "chi_range=0.05:0.63",
                       "--out", str(out)) == 0
        sweep = json.loads((out / "toy_sweep_report.json").read_text())
        ingest = json.loads((out / "ingest_classify.json").read_text())
        assert ingest["report"] == sweep["report"]
        assert ingest["config"]["metadata"]["n_in"] == "2.74"
