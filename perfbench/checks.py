"""Reference checks on the CLI's outputs, and the metrics read from them.

A job fails when it raised, when its exit code differs from the one the
paper predicts, or when a check below finds a problem.  Checks use only the
references from ``reference.py`` and numpy; nothing here calls nilframe.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from reference import lattice_matrices

# relative tolerance for float fields of the window document
FLOAT_RTOL = 1e-9
# random probe points per window for the tiling and packing checks
PROBES = 48
# the config schema's defaults for the verifier's pass/fail tolerances
RATIO_TOL = 1e-2
DEFECT_TOL = 1e-3


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= FLOAT_RTOL * max(abs(x), abs(y), 1e-300)


def _inside(ref: str, lower: str, upper: str) -> bool:
    return Fraction(lower) <= Fraction(ref) <= Fraction(upper)


def check_report(job: dict, report: dict) -> list[str]:
    """Certificates and design parameters against the job's references."""
    problems = []
    ref = job["ref"]
    spectral = report.get("spectral")
    if spectral is None:
        return ["report has no spectral section"]
    if spectral["det_b"] != ref["det"]:
        problems.append(f"det_b {spectral['det_b']} != reference {ref['det']}")
    sup = spectral["sup_density"]
    if not _inside(ref["sup"], sup["lower"], sup["upper"]):
        problems.append(f"sup bracket [{sup['lower']}, {sup['upper']}] excludes {ref['sup']}")
    mu = spectral["measure"]
    if not _inside(ref["measure"], mu["lower"], mu["upper"]):
        problems.append(f"measure bracket [{mu['lower']}, {mu['upper']}] excludes {ref['measure']}")
    design = report.get("design")
    if design is None:
        problems.append("report has no design section")
    elif design["params"] != ref["params"]:
        problems.append(f"lattice params {design['params']} != reference {ref['params']}")
    verification = report.get("verification")
    if job["command"] == "verify" and job["expect_exit"] == 0:
        # a window exists, so the verifier must have run on it
        if verification is None:
            problems.append("verify report has no verification section")
        elif not verification["tiling"]["passed"]:
            problems.append(f"tiling check failed: {verification['tiling']}")
    return problems


def frame_oracle_failure(config: dict, report: dict) -> str | None:
    """Why a verify report failed, if the frame oracle alone failed it: no
    error was raised, the tiling check passed, and a reported frame ratio or
    fiber defect lies outside the config's tolerance.  None otherwise."""
    verification = report.get("verification")
    if "error" in report or verification is None or not verification["tiling"]["passed"]:
        return None
    ver = config.get("verification", {})
    ratio_tol = ver.get("ratio_tol", RATIO_TOL)
    defect_tol = ver.get("defect_tol", DEFECT_TOL)
    ratio_err = max(abs(r["ratio"] - 1.0) for r in verification["frame_ratios"])
    defect = verification["fiber_defects"]["max"]
    reasons = []
    if ratio_err > ratio_tol:
        reasons.append(f"max |frame ratio - 1| {ratio_err:.3g} > {ratio_tol:g}")
    if defect > defect_tol:
        reasons.append(f"max fiber defect {defect:.3g} > {defect_tol:g}")
    return "; ".join(reasons) or None


# ---------------------------------------------------------------------------
# window documents
# ---------------------------------------------------------------------------


def coverage_counts(points, shape, offsets, lattice) -> np.ndarray:
    """Per point, the number of pairs (piece, m) with point - lattice m in the
    piece shape [0,1)^d + offset."""
    shape_inv = np.linalg.inv(shape)
    lat_inv = np.linalg.inv(lattice)
    cell = lat_inv @ shape  # a piece in lattice coordinates, up to its offset
    lo = np.minimum(cell, 0).sum(axis=1)
    hi = np.maximum(cell, 0).sum(axis=1)
    span = np.ceil(hi - lo).astype(int) + 1
    rel = points[:, None, :] - offsets[None, :, :]
    base = np.floor(rel @ lat_inv.T - hi)
    counts = np.zeros(len(points), dtype=int)
    for delta in product(*[range(s + 1) for s in span]):
        m = base + np.array(delta)
        t = (rel - m @ lattice.T) @ shape_inv.T
        counts += np.all((t >= 0.0) & (t < 1.0), axis=2).sum(axis=1)
    return counts


def distinct_classes(offsets, lattice) -> bool:
    """No two offsets congruent modulo the lattice; congruent pieces overlap
    after translation, which breaks tiling (or packing) outright."""
    c = offsets @ np.linalg.inv(lattice).T
    keys = np.round((c % 1.0) * 1e7) % 1e7
    return len(np.unique(keys, axis=0)) == len(offsets)


def _node_problems(family, params, node, rng) -> list[str]:
    lam = [Fraction(x) for x in node["lam"]]
    trans, mod, volume, det_val = lattice_matrices(family, lam, params["q"], params["b"])
    d = len(trans)
    pieces = node["pieces"]
    shape = np.array([float(v) for v in pieces[0]["shape"]]).reshape(d, d)
    offsets = np.array([[float(v) for v in p["offset"]] for p in pieces])
    if any(p["shape"] != pieces[0]["shape"] for p in pieces):
        return [f"node {node['lam']}: pieces do not share one shape"]
    measure = len(pieces) * abs(np.linalg.det(shape))
    trans_f = np.array([[float(v) for v in row] for row in trans])
    covolume = abs(np.linalg.det(trans_f))
    problems = []
    if not _close(measure, covolume):
        problems.append(f"node {node['lam']}: support measure {measure} != covolume {covolume}")
    scale = float(node["scale"])
    if not _close(scale**2 * measure, float(volume)):
        problems.append(f"node {node['lam']}: |g|^2 {scale**2 * measure} != volume {float(volume)}")
    prod_a = math.prod(float(Fraction(x)) for x in params["a"])
    if not _close(float(node["normalization"]), 1.0 / math.sqrt(prod_a * abs(float(det_val)))):
        problems.append(f"node {node['lam']}: normalization {node['normalization']} is off")
    # tiling: translates of the support by the translation lattice cover a
    # cell exactly once; packing: translates by the dual modulation lattice
    # never overlap on the support
    if not distinct_classes(offsets, trans_f):
        problems.append(f"node {node['lam']}: two pieces coincide modulo the translation lattice")
    tile_pts = rng.random((PROBES, d)) @ trans_f.T
    tiles = coverage_counts(tile_pts, shape, offsets, trans_f)
    if not np.all(tiles == 1):
        problems.append(f"node {node['lam']}: tiling counts {sorted(set(tiles.tolist()))}")
    mod_f = np.array([[float(v) for v in row] for row in mod])
    dual = np.linalg.inv(mod_f.T)
    if not distinct_classes(offsets, dual):
        problems.append(f"node {node['lam']}: two pieces coincide modulo the modulation lattice")
    picks = rng.integers(0, len(pieces), PROBES)
    pack_pts = offsets[picks] + rng.random((PROBES, d)) @ shape.T
    packs = coverage_counts(pack_pts, shape, offsets, dual)
    if not np.all(packs == 1):
        problems.append(f"node {node['lam']}: packing counts {sorted(set(packs.tolist()))}")
    return problems


def check_field(job: dict, doc: dict, grid: list[int]) -> list[str]:
    """Every synthesized window: measure, norm, tiling and packing."""
    family = job["variant"]["family"]
    params = job["ref"]["params"]
    if doc["params"] != params:
        return [f"field params {doc['params']} != reference {params}"]
    problems = []
    if len(doc["nodes"]) + len(doc["skipped"]) != math.prod(grid):
        problems.append(f"{len(doc['nodes'])} nodes + {len(doc['skipped'])} skipped != grid {grid}")
    rng = np.random.default_rng(12345)
    for node in doc["nodes"]:
        problems.extend(_node_problems(family, params, node, rng))
        if len(problems) > 5:
            break
    for entry in doc["skipped"]:
        lam = [Fraction(x) for x in entry["lam"]]
        _, _, _, det_val = lattice_matrices(family, lam, params["q"], params["b"])
        if det_val != 0:
            problems.append(f"node {entry['lam']} skipped as {entry['reason']!r} but det = {det_val}")
    return problems


# ---------------------------------------------------------------------------
# metrics read from reports
# ---------------------------------------------------------------------------


def _width_rel(block: dict, tol: float) -> float:
    return float((Fraction(block["upper"]) - Fraction(block["lower"])) / Fraction(tol))


def report_metrics(config: dict, report: dict) -> dict:
    """Deterministic figures of one job's report.

    Evaluation counts are computed from the truncation and grid sizes, as
    the verifier's loops would run them; they are not read from the program.
    """
    spectrum = config["spectrum"]
    out = {}
    spectral = report.get("spectral")
    if spectral:
        out["cert_width_rel"] = max(
            _width_rel(spectral["sup_density"], spectrum["sup_tol"]),
            _width_rel(spectral["measure"], spectrum["measure_tol"]),
        )
    for cond in (report.get("design") or {}).get("conditions", []):
        if cond["condition"] == "wavelet_discretization":
            m = cond["margins"]
            tol = spectrum.get("sublevel_tol", 5e-2)
            out["sublevel_width_rel"] = (m["sublevel_measure_upper"] - m["sublevel_measure_lower"]) / tol
    verification = report.get("verification")
    if verification:
        ver = config["verification"]
        d = config["algebra"]["d"]
        nodes = report["synthesis"]["nodes"]
        ppc = ver.get("points_per_cell") or [52] * d
        cells = [
            b + a for b, a in zip(ver.get("cells_before") or [2] * d, ver.get("cells_after") or [3] * d)
        ]
        x_points = math.prod(p * c for p, c in zip(ppc, cells))
        default_kn = [16 if d == 1 else 4] * d
        gammas = math.prod(2 * k + 1 for k in ver.get("k_half") or default_kn) * math.prod(
            2 * n + 1 for n in ver.get("n_half") or default_kn
        )
        ratios = verification["frame_ratios"]
        out["max_fiber_defect"] = verification["fiber_defects"]["max"]
        out["max_ratio_err"] = max(abs(r["ratio"] - 1.0) for r in ratios)
        out["frame_ratios"] = [r["ratio"] for r in ratios]
        out["tail_fraction"] = max(r["tail_fraction"] for r in ratios)
        out["tiling_probes"] = min(nodes, 8) * (7 if d == 1 else 3) ** d * 2
        out["defect_evals"] = verification["fiber_defects"]["probed_nodes"] * gammas * x_points
        out["ratio_evals"] = len(ratios) * nodes * gammas * x_points
        gram = verification.get("gram")
        out["gram_entries"] = gram["entries"] if gram else 0
    return out
