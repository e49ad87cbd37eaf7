"""Batch experiment runner with reproducible seeds and bit-stable reports.

Every command resolves its parameters and tolerances against strict defaults,
derives all randomness from (seed, trial) substreams, and emits reports whose
bytes depend only on the config and seed: floats print at full precision,
keys are sorted, and wall time stays out of the files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .ball import br_experiment, coord_mult_sections, inv_kernel_mult_norm, \
    row_mult_norm
from .dbr import (
    KernelPositivityError,
    combo_to_poly,
    onb_defect,
    summation_partial,
    szego_residual,
)
from .kernels import (
    _KINDS,
    NEGATIVE,
    KernelSpec,
    check_psd,
    sample_point_set,
    substream,
)
from .operators import SpaceSpec, comp_matrix, comp_norm_bound, op_norm_lower, \
    weighted_comp_matrix
from .sampling import (
    random_ball_row_contraction,
    random_disk_symbol,
    random_kernel_combo,
)
from .series import (
    BallPoly,
    BallMap,
    DiskPoly,
    SelfMapDisk,
    _check_bytes,
    _circle_points,
    blaschke_factor,
)

__all__ = ["main", "run_experiment", "ExperimentConfig", "ConfigError",
           "Report", "CLAIM_ANCHORS", "COMMANDS"]


class ConfigError(Exception):
    """Malformed or unknown experiment configuration."""


# registry of claim identifiers; every record cites one so reports can be
# grouped by the statement they exercise
CLAIM_ANCHORS = frozenset({
    "hardy-composition-bound",
    "inner-symbol-sharpness",
    "weighted-composition-contraction",
    "szego-identity-residual",
    "partial-sum-monotone",
    "partial-sum-defect",
    "bergman-composition-bound",
    "bergman-weighted-contraction",
    "reciprocal-weight-estimate",
    "coordinate-multiplier-contraction",
    "row-multiplier-bound",
    "inverse-kernel-multiplier-bound",
    "ball-composition-bound",
    "kernel-positivity",
    "product-map-unbounded-growth",
    "product-map-negativity",
    "product-map-saturation",
})


def make_record(description: str, anchor: str, measured: float, bound: float,
                tolerance: float) -> dict:
    """One pass/fail line of a report, as the dict the JSON report holds:
    measured passes when it is at most bound plus tolerance.  The keys are
    in the column order of the CSV report."""
    if anchor not in CLAIM_ANCHORS:
        raise ValueError(f"unknown claim anchor {anchor!r}")
    measured = float(measured)
    bound = float(bound)
    tolerance = float(tolerance)
    return {"description": description, "paper_anchor": anchor,
            "measured": measured, "bound": bound, "tolerance": tolerance,
            "pass": bool(measured <= bound + tolerance)}


def _worst(values) -> float:
    """The largest of a check's values; a check over none would pass
    vacuously, so it is refused."""
    worst = max(values, default=None)
    if worst is None:
        raise ConfigError("a check has no values with these params")
    return worst


@dataclass
class Report:
    """Everything one run produced; wall time never reaches the files."""

    config: dict
    records: list
    trace: dict | None = None
    extras: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "version": __version__,
            "records": self.records,
            "trace": self.trace,
            "extras": self.extras,
        }


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(float(x), ".17g")


def stable_json(obj) -> str:
    """Deterministic JSON: sorted keys, full-precision floats, no whitespace
    variation; the same value always serializes to the same bytes."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        items = []
        for k in sorted(obj):
            if not isinstance(k, str):
                raise TypeError("json object keys must be strings")
            items.append(f"{json.dumps(k, ensure_ascii=True)}:{stable_json(obj[k])}")
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(stable_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        x = float(v)
        if math.isnan(x):
            return "NaN"
        return format(x, ".17g")
    if isinstance(v, str):
        if "," in v or "\n" in v:
            raise ValueError("csv cells must not contain commas or newlines")
        return v
    raise TypeError(f"cannot place {type(v).__name__} in csv")


def report_csv(report: Report) -> str:
    if report.trace is not None:
        lines = [",".join(report.trace["columns"])]
        for row in report.trace["rows"]:
            lines.append(",".join(_csv_cell(v) for v in row))
    else:
        lines = ["description,paper_anchor,measured,bound,tolerance,pass"]
        for r in report.records:
            lines.append(",".join(_csv_cell(v) for v in r.values()))
    return "\n".join(lines) + "\n"


def render_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return stable_json(report.to_json_dict()) + "\n"
    if fmt == "csv":
        return report_csv(report)
    raise ConfigError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# input parsers


def _require_keys(obj: dict, required: set, optional: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a json object")
    keys = set(obj)
    missing = required - keys
    extra = keys - required - optional
    if missing:
        raise ConfigError(f"{what} is missing keys {sorted(missing)}")
    if extra:
        raise ConfigError(f"{what} has unknown keys {sorted(extra)}")


def _as_complex(v, what: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ConfigError(f"{what} must be a [re, im] pair")
    return complex(_as_float(v[0], what), _as_float(v[1], what))


def _as_int(v, what: str) -> int:
    # json integers only: a bool or a float is refused, not rounded
    if not _same_type(v, 0):
        raise ConfigError(f"{what} must be an integer, got {v!r}")
    return v


def _as_float(v, what: str) -> float:
    # finite json numbers only: a bool or a string is refused, not converted
    if _same_type(v, 0.0):
        try:
            x = float(v)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{what} must be a finite number, got {v!r}")


def poly_from_json_dict(obj: dict) -> BallPoly:
    """Inverse of ``to_json_dict``, as a BallPoly in every dim.

    ``dim`` and the exponents must be json integers (a float or a bool is
    refused, not rounded), the coefficients finite json numbers, and no
    multi-index may appear twice.
    """
    _require_keys(obj, {"dim", "terms"}, set(), "polynomial json")
    dim = _as_int(obj["dim"], "polynomial dim")
    if not isinstance(obj["terms"], list):
        raise ConfigError("polynomial terms must be a list")
    pairs = {}
    for entry in obj["terms"]:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ConfigError("each term must be [multi_index, [re, im]]")
        m, c = entry
        if not (isinstance(m, list) and len(m) == dim
                and all(_same_type(e, 0) and e >= 0 for e in m)):
            raise ConfigError(f"a multi-index must hold {dim} nonnegative "
                              f"integers, got {m!r}")
        if max(m, default=0) >= 2**63:
            raise ConfigError(f"exponents must be below 2**63, got {m!r}")
        if tuple(m) in pairs:
            raise ConfigError(f"multi-index {m!r} appears more than once")
        pairs[tuple(m)] = _as_complex(c, "polynomial coefficient")
    return BallPoly(dim, pairs)


def _optional(obj: dict, key: str, parse, what: str) -> dict:
    # nothing when the config omits key, so the callee's own default applies
    return {key: parse(obj[key], what)} if key in obj else {}


def symbol_from_json(obj: dict) -> SelfMapDisk:
    """Disk symbols: explicit taylor coefficients, a disk automorphism
    factor, or a scaled monomial."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError("symbol must be an object with a 'type' key")
    kind = obj["type"]
    if kind == "taylor":
        _require_keys(obj, {"type", "coeffs"}, set(), "taylor symbol")
        if not isinstance(obj["coeffs"], list):
            raise ConfigError("taylor coefficients must be a list")
        coeffs = [_as_complex(c, "taylor coefficient") for c in obj["coeffs"]]
        return SelfMapDisk(DiskPoly(coeffs))
    if kind == "blaschke":
        _require_keys(obj, {"type", "a"}, {"tail_tol"}, "blaschke symbol")
        tail = _optional(obj, "tail_tol", _as_float, "blaschke tail_tol")
        return blaschke_factor(_as_complex(obj["a"], "blaschke parameter"), **tail)
    if kind == "monomial":
        _require_keys(obj, {"type", "degree"}, {"scale"}, "monomial symbol")
        scale = _optional(obj, "scale", _as_complex, "monomial scale")
        return SelfMapDisk(DiskPoly.monomial(_as_int(obj["degree"], "monomial degree"),
                                             **scale))
    raise ConfigError(f"unknown symbol type {kind!r}")


def ballmap_from_json(obj: dict) -> BallMap:
    _require_keys(obj, {"dim", "coords"}, set(), "ball map")
    dim = _as_int(obj["dim"], "ball map dim")
    if not isinstance(obj["coords"], list):
        raise ConfigError("ball map coords must be a list")
    coords = []
    for c in obj["coords"]:
        try:
            coords.append(poly_from_json_dict(c))
        except ValueError as exc:
            raise ConfigError(f"ball map coordinate: {exc}") from exc
    if len(coords) != dim:
        raise ConfigError("ball map needs one coordinate polynomial per dimension")
    return BallMap(coords)


# the parser of each type a kernel spec key takes
_FROM_JSON = {int: _as_int, float: _as_float,
              SelfMapDisk: lambda v, what: symbol_from_json(v),
              BallMap: lambda v, what: ballmap_from_json(v)}


def kernel_spec_from_json(obj: dict) -> KernelSpec:
    """A kernel spec from json holding ``kind`` and the keys that
    ``_KINDS[kind]`` names, parsed in its order."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("kernel spec must be an object with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    takes = _KINDS[kind]
    _require_keys(obj, {"kind", *takes}, set(), f"{kind} spec")
    return KernelSpec(kind, **{key: _FROM_JSON[typ](obj[key], f"{kind} {key}")
                               for key, typ in takes.items()})


# ---------------------------------------------------------------------------
# runners


H2 = SpaceSpec(1, 1.0)


def run_hardy_bound(params: dict, tol: dict, seed: int):
    b = symbol_from_json(params["symbol"])
    n = params["section_degree"]
    c = abs(b.center)
    bound = comp_norm_bound(c, 1.0)
    pairs = op_norm_lower(comp_matrix(b, H2, n),
                          trace_degrees=params["trace_degrees"]).trace
    records = [make_record(
        "certified lower bounds stay within the closed-form composition bound",
        "hardy-composition-bound", _worst(lo for _, lo in pairs), bound,
        tol["bound_slack"])]
    if params["check_sharp"]:
        records.append(make_record(
            "final section closes the gap to the closed-form value",
            "inner-symbol-sharpness", bound - pairs[-1][1], 0.0,
            tol["sharp_gap"]))
    trace = {"columns": ["N", "lower", "upper"],
             "rows": [[d, lo, bound] for d, lo in pairs]}
    return records, trace, {}


def _weighted_lower(rng, b: SelfMapDisk, alpha: int, space: SpaceSpec, n: int,
                    params: dict) -> float:
    """Certified lower bound for g -> f * (g o b) on the columns of degree
    <= n, with f a unit kernel combination drawn from ``rng``."""
    combo = random_kernel_combo(rng, b, alpha=alpha,
                                max_nodes=params["node_max"],
                                node_radius=params["node_radius"])
    f = combo_to_poly(combo, params["combo_degree"])
    return op_norm_lower(weighted_comp_matrix(f, b, space, n),
                         trace_degrees=[n]).lower


def run_theorem1(params: dict, tol: dict, seed: int):
    n = params["section_degree"]
    records = []
    rows = []
    for t in range(params["trials"]):
        rng = substream(seed, t)
        b = random_disk_symbol(rng, params["symbol_degree_max"],
                               params["boundary_max"])
        lower = _weighted_lower(rng, b, 1, H2, n, params)
        records.append(make_record(
            f"trial {t}: weighted section stays below the unit combo norm",
            "weighted-composition-contraction", lower, 1.0, tol["rel_slack"]))
        rows.append([t, lower, 1.0])
    trace = {"columns": ["trial", "lower", "bound"], "rows": rows}
    return records, trace, {}


def run_szego_identity(params: dict, tol: dict, seed: int):
    b = symbol_from_json(params["symbol"])
    degrees = params["degrees"]
    if len(degrees) < 2 or any(a >= b for a, b in zip(degrees, degrees[1:])):
        raise ConfigError("degrees must be at least two increasing values")
    pts = sample_point_set(substream(seed, 0), 1, params["point_radius"],
                           params["point_count"])
    residuals = []
    for d in degrees:
        onb = onb_defect(b, d, rank_tol=params["rank_tol"])
        residuals.append(szego_residual(onb, pts))
    records = [
        make_record("kernel identity residual at the largest section degree",
                    "szego-identity-residual", residuals[-1], 0.0,
                    tol["residual_max"]),
        make_record("residual does not grow from the smallest section degree",
                    "szego-identity-residual", residuals[-1] - residuals[0],
                    0.0, tol["monotone_slack"]),
    ]
    trace = {"columns": ["N", "residual"],
             "rows": [[d, r] for d, r in zip(degrees, residuals)]}
    return records, trace, {}


def run_summation(params: dict, tol: dict, seed: int):
    b = symbol_from_json(params["symbol"])
    partials, defects = summation_partial(b, params["section_degree"],
                                          mode_count=params["mode_count"],
                                          test_degree=params["test_degree"],
                                          rank_tol=params["rank_tol"])
    # zero stands for no drop and no rise, so a single mode, which has no
    # rise to measure, still runs
    drops = [0.0]
    prev = None
    rows = []
    for k, s in enumerate(partials):
        step = s if prev is None else s - prev
        drops.append(-float(np.linalg.eigvalsh(step)[0]))
        rows.append([k, float(np.linalg.eigvalsh(s)[-1]), defects[k]])
        prev = s
    rises = [0.0] + [d - c for c, d in zip(defects, defects[1:])]
    records = [
        make_record("partial sums increase in the positive order",
                    "partial-sum-monotone", _worst(drops), 0.0,
                    tol["monotone_slack"]),
        make_record("partial sums stay dominated by the identity",
                    "partial-sum-monotone", _worst(r[1] for r in rows), 1.0,
                    tol["upper_slack"]),
        make_record("identity defect at full mode count",
                    "partial-sum-defect", defects[-1], 0.0,
                    tol["defect_max"]),
        make_record("identity defects do not increase with added modes",
                    "partial-sum-defect", _worst(rises), 0.0,
                    tol["defect_monotone_slack"]),
    ]
    trace = {"columns": ["modes", "lambda_max", "defect"], "rows": rows}
    return records, trace, {}


def run_bergman_bound(params: dict, tol: dict, seed: int):
    n = params["section_degree"]
    records = []
    rows = []
    for ai, alpha in enumerate(params["alphas"]):
        space = SpaceSpec(1, float(alpha))
        alpha_rows = []
        for t in range(params["trials"]):
            rng = substream(seed, ai, t)
            b = random_disk_symbol(rng, params["symbol_degree_max"],
                                   params["boundary_max"])
            comp = comp_matrix(b, space, n)
            alpha_rows.append([alpha, t, op_norm_lower(comp, trace_degrees=[n]).lower,
                               comp_norm_bound(abs(b.center), space.alpha),
                               _weighted_lower(rng, b, alpha, space, n, params)])
        rows += alpha_rows
        records.append(make_record(
            f"composition sections respect the closed-form bound at alpha={alpha}",
            "bergman-composition-bound",
            _worst(lo - bound for _, _, lo, bound, _ in alpha_rows), 0.0,
            tol["bound_slack"]))
        records.append(make_record(
            f"weighted sections stay below the unit combo norm at alpha={alpha}",
            "bergman-weighted-contraction", _worst(r[4] for r in alpha_rows),
            1.0, tol["rel_slack"]))
    trace = {"columns": ["alpha", "trial", "comp_lower", "comp_upper",
                         "weighted_lower"], "rows": rows}
    return records, trace, {}


def run_inf_estimate(params: dict, tol: dict, seed: int):
    b = symbol_from_json(params["symbol"])
    n = params["section_degree"]
    nb = op_norm_lower(comp_matrix(b, H2, n), trace_degrees=[n])
    centers = [0.0 + 0.0j]
    extra = params["family_size"] - 1
    if extra > 0:
        pts = sample_point_set(substream(seed, 0), 1, params["family_radius"], extra)
        centers.extend(complex(z) for z in pts.points[:, 0])
    grid = params["grid_size"]
    # the circle, b on it and the weight's temporaries: six complex values a point
    _check_bytes(96 * grid, f"a {grid}-point circle grid")
    circle = _circle_points(grid)
    bz = b(circle)
    rows = []
    # the norm of the kernel k_w times the grid max of 1 / |k_w|: an estimate
    # of the reciprocal-weight bound, not a certificate
    for w in centers:
        # ||k_w||^2 = (1 - |b(w)|^2) / (1 - |w|^2), rounded as a pointwise
        # evaluation rounds it: the Gram assembly's rounding moves the report
        wv = np.array([w])
        bw = b(w)
        k_ww = (1.0 - bw * np.conj(bw)) / (1.0 - complex(np.sum(wv * wv.conj())))
        norm_w = math.sqrt(float(np.real(k_ww)))
        fv = (1.0 - np.conj(bw) * bz) / (1.0 - np.conj(w) * circle)
        low = float(np.min(np.abs(fv)))
        rows.append([float(w.real), float(w.imag), norm_w, 1.0 / low,
                     norm_w / low])
    records = [make_record(
        "final section lower bound stays below the best reciprocal-weight estimate",
        "reciprocal-weight-estimate", nb.lower, min(r[4] for r in rows),
        tol["bound_slack"])]
    trace = {"columns": ["w_re", "w_im", "weight_norm", "inv_sup", "estimate"],
             "rows": rows}
    return records, trace, {}


def run_ball_lemma(params: dict, tol: dict, seed: int):
    alphas = params["alphas"]
    dim = params["dim"]
    n = params["section_degree"]
    rows = []
    psd_gaps = []  # one per row: the tolerance is not a trace column
    for mi in range(params["maps"]):
        rng = substream(seed, mi)
        bmap = random_ball_row_contraction(rng, dim, params["coord_degree"],
                                           params["row_target"])
        for alpha in alphas:
            spec = KernelSpec("ball_map", alpha, bmap)
            pts = sample_point_set(rng, dim, params["cert_radius"],
                                   params["cert_points"])
            cert = check_psd(spec, pts)
            psd_gaps.append(-cert.min_eigenvalue - cert.tolerance)
            inv_lower, inv_upper = inv_kernel_mult_norm(bmap, alpha, n)
            # built once for every row point; rows past a coordinate's own
            # degree are zero and do not change op_norm_lower's bound
            sections = coord_mult_sections(bmap, alpha, n)
            coord_top = _worst(op_norm_lower(s, trace_degrees=[n]).lower
                               for s in sections)
            ws = sample_point_set(rng, dim, params["row_radius"],
                                  params["row_points"])
            lower, bound = row_mult_norm(bmap, ws, sections)
            # negated after the subtraction, so a zero margin keeps its sign
            min_margin = -_worst((-(bound - lower)).tolist())
            rows.append([mi, alpha, cert.min_eigenvalue, coord_top,
                         min_margin, inv_lower, inv_upper])
    records = []
    for alpha in alphas:
        mine = [i for i, row in enumerate(rows) if row[1] == alpha]
        records.append(make_record(
            f"map kernels certify positive for row contractions at alpha={alpha}",
            "kernel-positivity", _worst(psd_gaps[i] for i in mine), 0.0, 0.0))
        records.append(make_record(
            f"coordinate multiplier sections are contractions at alpha={alpha}",
            "coordinate-multiplier-contraction",
            _worst(rows[i][3] for i in mine), 1.0, tol["coord_slack"]))
        records.append(make_record(
            f"row multiplier margins stay nonnegative at alpha={alpha}",
            "row-multiplier-bound", _worst(-rows[i][4] for i in mine), 0.0,
            tol["margin_slack"]))
        records.append(make_record(
            f"inverse-kernel weight sections respect the closed form at alpha={alpha}",
            "inverse-kernel-multiplier-bound",
            _worst(rows[i][5] - rows[i][6] for i in mine), 0.0,
            tol["inv_slack"]))
    trace = {"columns": ["map", "alpha", "cert_min_eig", "coord_lower",
                         "row_margin", "inv_lower", "inv_upper"], "rows": rows}
    return records, trace, {}


def run_ball_bound(params: dict, tol: dict, seed: int):
    """Composition section lower bounds against ``comp_norm_bound``.

    The closed form bounds a ball map's composition operator only once the
    map's kernel is positive, and this runner certifies no kernel.  It rests
    on ``ball-lemma``: at the same seed and default parameters, map ``mi`` is
    drawn from the same substream (seed, mi) as there, where its kernel is
    certified positive at each alpha (``tests/test_cli.py`` pins that the
    maps are equal byte for byte).  A config that changes the map parameters
    here alone reports the closed form for maps nothing has certified.
    """
    dim = params["dim"]
    n = params["section_degree"]
    records = []
    rows = []
    maps = [random_ball_row_contraction(substream(seed, mi), dim,
                                        params["coord_degree"], params["row_target"])
            for mi in range(params["maps"])]
    for alpha in params["alphas"]:
        space = SpaceSpec(dim, float(alpha))
        alpha_rows = [[alpha, mi, op_norm_lower(comp_matrix(bmap, space, n),
                                                trace_degrees=[n]).lower,
                       comp_norm_bound(float(np.linalg.norm(bmap.center)), alpha)]
                      for mi, bmap in enumerate(maps)]
        rows += alpha_rows
        records.append(make_record(
            f"composition sections respect the closed-form bound at alpha={alpha}",
            "ball-composition-bound",
            _worst(lo - bound for _, _, lo, bound in alpha_rows), 0.0,
            tol["bound_slack"]))
    trace = {"columns": ["alpha", "map", "comp_lower", "bound"], "rows": rows}
    return records, trace, {}


def run_br(params: dict, tol: dict, seed: int):
    n = params["section_degree"]
    if n < 1:
        # the saturation check compares the last two of at least two degrees
        raise ConfigError("br needs a section_degree of at least 1")
    degrees = sorted(set(range(0, n + 1, params["trace_step"])) | {n})
    records = []
    rows = []
    certificates = []
    for idx, r in enumerate(params["r_values"]):
        bracket, cert = br_experiment(
            r, alpha=params["alpha"], section_degree=n, trace_degrees=degrees,
            witness_budget=params["witness_budget"], set_size=params["set_size"],
            radius=params["radius"], seed=(seed, idx))
        found = cert.verdict == NEGATIVE
        verdict = "certified-negative" if found else \
            f"no-counterexample-at-budget-{params['witness_budget']}"
        rows.extend([[r, nn, lo, verdict, cert.min_eigenvalue, seed]
                     for nn, lo in bracket.trace])
        certificates.append({**cert.to_json_dict(), "seed": (seed, idx)})
        if r == 1.0:
            diffs = [b2 - b1 for (_, b1), (_, b2)
                     in zip(bracket.trace, bracket.trace[1:])]
            records.append(make_record(
                "degenerate parameter: lower bounds strictly increase",
                "product-map-unbounded-growth", -min(diffs),
                -params["strict_increase_min"], 0.0))
            records.append(make_record(
                "degenerate parameter: final lower bound beats the frozen threshold",
                "product-map-unbounded-growth",
                params["growth_threshold"] - bracket.lower, 0.0, 0.0))
        else:
            last = bracket.trace[-1][1]
            prev = bracket.trace[-2][1]
            records.append(make_record(
                f"contractive parameter r={r}: trace saturates",
                "product-map-saturation", abs(last - prev), 0.0,
                tol["saturation_tol"]))
        if r >= params["negative_expect_min_r"]:
            measured = cert.min_eigenvalue if found else 1.0
            records.append(make_record(
                f"negativity witness found at r={r}",
                "product-map-negativity", measured,
                -tol["witness_level"], 0.0))
        else:
            records.append(make_record(
                f"no negativity witness within budget at r={r}",
                "product-map-negativity",
                1.0 if found else 0.0, 0.0, 0.0))
    trace = {"columns": ["r", "N", "comp_lower", "psd_verdict",
                         "min_eigenvalue", "seed"], "rows": rows}
    return records, trace, {"certificates": certificates}


def run_psd(params: dict, tol: dict, seed: int):
    spec = kernel_spec_from_json(params["spec"])
    expect = params["expect"]
    if expect not in ("psd", "negative", "any"):
        raise ConfigError("expect must be one of psd, negative, any")
    cert = check_psd(spec, sample_point_set(substream(seed, 0), spec.dim,
                                            params["radius"], params["point_count"]))
    if expect == "psd":
        records = [make_record(
            "sampled Gram certifies positive semidefinite",
            "kernel-positivity", -cert.min_eigenvalue, 0.0, cert.tolerance)]
    elif expect == "negative":
        records = [make_record(
            "sampled Gram certifies negative",
            "kernel-positivity", cert.min_eigenvalue, -cert.tolerance, 0.0)]
    else:
        rec = make_record("sampled Gram verdict recorded", "kernel-positivity",
                          cert.min_eigenvalue, cert.min_eigenvalue, 0.0)
        records = [rec]
    return records, None, {"certificate": {**cert.to_json_dict(), "seed": seed}}


# ---------------------------------------------------------------------------
# registry and entry point


@dataclass(frozen=True)
class Command:
    name: str
    description: str
    defaults: dict
    tol_defaults: dict
    runner: object


_BLASCHKE_HALF = {"type": "blaschke", "a": [0.5, 0.0], "tail_tol": 1e-13}
_SQUARE = {"type": "monomial", "degree": 2, "scale": [1.0, 0.0]}

COMMANDS = {
    c.name: c for c in [
        Command(
            "hardy-bound",
            "composition sections against the closed-form norm bound",
            {"symbol": _BLASCHKE_HALF, "section_degree": 256,
             "trace_degrees": None, "check_sharp": True},
            {"bound_slack": 1e-9, "sharp_gap": 1e-2},
            run_hardy_bound),
        Command(
            "theorem1",
            "weighted composition sections against unit-norm kernel combos",
            {"trials": 100, "symbol_degree_max": 4, "boundary_max": 0.95,
             "node_max": 5, "node_radius": 0.6, "section_degree": 32,
             "combo_degree": 72},
            {"rel_slack": 1e-8},
            run_theorem1),
        Command(
            "szego-identity",
            "orthonormal modes reproduce the kernel identity",
            {"symbol": _SQUARE, "degrees": [16, 64], "point_count": 50,
             "point_radius": 0.5, "rank_tol": None},
            {"residual_max": 1e-6, "monotone_slack": 0.0},
            run_szego_identity),
        Command(
            "summation",
            "mode-wise partial sums resolve the identity",
            {"symbol": _SQUARE, "section_degree": 64, "test_degree": 8,
             "mode_count": None, "rank_tol": None},
            {"monotone_slack": 1e-10, "upper_slack": 1e-8,
             "defect_max": 1e-5, "defect_monotone_slack": 1e-10},
            run_summation),
        Command(
            "bergman-bound",
            "weighted-space composition and weighted sections at integer alpha",
            {"alphas": [2, 3], "trials": 20, "symbol_degree_max": 4,
             "boundary_max": 0.95, "node_max": 3, "node_radius": 0.5,
             "section_degree": 48, "combo_degree": 72},
            {"bound_slack": 1e-9, "rel_slack": 1e-8},
            run_bergman_bound),
        Command(
            "inf-estimate",
            "norm lower bounds against reciprocal-weight upper estimates",
            {"symbol": _BLASCHKE_HALF, "section_degree": 128,
             "family_size": 5, "family_radius": 0.5, "grid_size": 4096},
            {"bound_slack": 1e-6},
            run_inf_estimate),
        Command(
            "ball-lemma",
            "row contraction consequences: positivity, contractive "
            "coordinates, row margins, inverse-kernel weights",
            {"maps": 10, "alphas": [1, 2], "dim": 2, "coord_degree": 2,
             "row_target": 0.9, "section_degree": 8, "row_points": 10,
             "row_radius": 0.6, "cert_points": 40, "cert_radius": 0.6},
            {"coord_slack": 1e-8, "margin_slack": 1e-8, "inv_slack": 1e-9},
            run_ball_lemma),
        Command(
            "ball-bound",
            "ball composition sections against the closed-form bound",
            {"maps": 10, "alphas": [1, 2], "dim": 2, "coord_degree": 2,
             "row_target": 0.9, "section_degree": 8},
            {"bound_slack": 1e-9},
            run_ball_bound),
        Command(
            "br",
            "product-map experiment: growth traces and positivity scans",
            {"r_values": [0.5, 0.95, 1.0], "alpha": 1.0,
             "section_degree": 60, "trace_step": 4, "witness_budget": 10000,
             "set_size": 8, "radius": 0.95, "growth_threshold": 3.353367,
             "negative_expect_min_r": 0.75, "strict_increase_min": 1e-12},
            {"witness_level": 1e-6, "saturation_tol": 1e-3},
            run_br),
        Command(
            "psd",
            "one-shot positivity certificate for a kernel spec",
            {"spec": {"kind": "szego"}, "point_count": 50, "radius": 0.95,
             "expect": "psd"},
            {},
            run_psd),
    ]
}


# the documented type of each parameter whose default is None
_NONE_DEFAULT_LIKE = {"trace_degrees": [0], "mode_count": 0, "rank_tol": 0.0}

_NONZERO = {"point_count", "cert_points", "row_points", "symbol_degree_max", "alphas",
            "node_max", "grid_size", "trace_step", "family_size"}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", dict: "a json object", list: "a list"}


def _same_type(value, like) -> bool:
    """Whether ``value`` has the json type of ``like``: a bool is not a
    number, an int stands in for a float, and list items match like[0]."""
    if isinstance(value, bool) or isinstance(like, bool):
        return isinstance(value, bool) and isinstance(like, bool)
    if isinstance(like, float):
        return isinstance(value, (int, float))
    if not isinstance(value, type(like)):
        return False
    if isinstance(like, list) and like:
        return all(_same_type(v, like[0]) for v in value)
    return True


def _check_type(what: str, value, default, key: str):
    """``value`` with the json type of the default, numbers as floats where
    the default is a float; anything else is a ConfigError."""
    like = _NONE_DEFAULT_LIKE[key] if default is None else default
    if value is None and default is None:
        return None
    if _same_type(value, like):
        if isinstance(like, float):
            x = _as_float(value, f"{what} {key!r}")
            # every sampling radius (radius, point_radius, ...) lies in (0, 1)
            if key.endswith("radius") and not 0.0 < x < 1.0:
                need = "lie strictly between 0 and 1"
            elif key == "alpha" and not x >= 1.0:
                need = "be at least 1"
            else:
                return x
            raise ConfigError(f"{what} {key!r} must {need}, got {value!r}")
        if isinstance(like, list) and like and isinstance(like[0], float):
            return [_as_float(v, f"{what} {key!r}") for v in value]
        # no count, degree or size is negative; no sample size, node count, grid,
        # trace step, family, top degree or alpha is 0
        least, need = (1, "at least 1") if key in _NONZERO else (0, "nonnegative")
        for v in value if isinstance(like, list) else [value]:
            if _same_type(v, 0) and v < least:
                raise ConfigError(f"{what} {key!r} must be {need}, got {v!r}")
        return value
    expect = _TYPE_NAMES[type(like)]
    if isinstance(like, list) and like:
        expect += " of " + _TYPE_NAMES[type(like[0])].split()[-1] + "s"
    if default is None:
        expect += " or null"
    raise ConfigError(f"{what} {key!r} must be {expect}, got {value!r}")


@dataclass
class ExperimentConfig:
    name: str
    params: dict
    seed: int
    tolerances: dict
    output_path: str | None = None

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        _require_keys(obj, {"name"},
                      {"params", "seed", "tolerances", "output_path"},
                      "config")
        name = obj["name"]
        if not isinstance(name, str) or name not in COMMANDS:
            raise ConfigError(
                f"unknown experiment {name!r}; see 'kernelcomp list'")
        cmd = COMMANDS[name]
        resolved = {}
        for key, what, defaults in (("params", "parameter", cmd.defaults),
                                    ("tolerances", "tolerance", cmd.tol_defaults)):
            given = {} if obj.get(key) is None else obj[key]
            if not isinstance(given, dict):
                raise ConfigError(f"{key} must be a json object, got {given!r}")
            resolved[key] = dict(defaults)
            for k, v in given.items():
                if k not in defaults:
                    raise ConfigError(f"unknown {what} {k!r} for {name}")
                resolved[key][k] = _check_type(f"{name} {what}", v, defaults[k], k)
        seed = obj.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        out = obj.get("output_path")
        if out is not None and not isinstance(out, str):
            raise ConfigError("output_path must be a string")
        return cls(name=name, seed=seed, output_path=out, **resolved)


def run_experiment(cfg: ExperimentConfig) -> Report:
    cmd = COMMANDS[cfg.name]
    start = time.perf_counter()
    records, trace, extras = cmd.runner(cfg.params, cfg.tolerances, cfg.seed)
    wall = time.perf_counter() - start
    if not records:
        # a report with no checks would pass vacuously
        raise ConfigError(f"{cfg.name} ran no checks with these params")
    # the config echo deliberately omits output_path so identical experiments
    # emit identical bytes regardless of where they are written
    config_echo = {"name": cfg.name, "params": cfg.params, "seed": cfg.seed,
                   "tolerances": cfg.tolerances}
    return Report(config=config_echo, records=records, trace=trace,
                  extras=extras, wall_time=wall)


def _print_listing(stream) -> None:
    for name in sorted(COMMANDS):
        cmd = COMMANDS[name]
        print(f"{name}: {cmd.description}", file=stream)
        print(f"  params     {stable_json(cmd.defaults)}", file=stream)
        print(f"  tolerances {stable_json(cmd.tol_defaults)}", file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kernelcomp",
        description="reproducible kernel and composition-operator experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a json config")
    runp.add_argument("--config", required=True, help="path to a json config")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    runp.add_argument("--out", default=None,
                      help="override the config output path")
    runp.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_parser("list", help="list experiments with defaults")
    args = parser.parse_args(argv)

    if args.command == "list":
        _print_listing(sys.stdout)
        return 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if args.seed is not None and isinstance(raw, dict):
            raw["seed"] = args.seed
        cfg = ExperimentConfig.from_dict(raw)
        if args.out is not None:
            cfg.output_path = args.out
        report = run_experiment(cfg)
        payload = render_report(report, args.format)
        if cfg.output_path is not None:
            with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
            summary_stream = sys.stdout
            print(f"report written to {cfg.output_path}", file=summary_stream)
        else:
            sys.stdout.write(payload)
            summary_stream = sys.stderr
        for r in report.records:
            tag = "PASS" if r["pass"] else "FAIL"
            print(f"[{tag}] {r['description']} "
                  f"(measured={r['measured']:.6g}, bound={r['bound']:.6g}, "
                  f"tol={r['tolerance']:.3g})", file=summary_stream)
        passed = sum(1 for r in report.records if r["pass"])
        print(f"{cfg.name}: {passed}/{len(report.records)} checks passed "
              f"in {report.wall_time:.2f} s", file=summary_stream)
        return 0 if report.all_pass() else 1
    except (ConfigError, OSError, json.JSONDecodeError, ValueError, OverflowError,
            KernelPositivityError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
