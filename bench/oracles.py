"""Correctness oracles for benchmark reports.

Each check reads the serialized report (the JSON a ``casoratiq run``
user receives, parsed back) together with the scenario document that
produced it.  None of the expected values depends on the seed: they are
closed forms or invariants that hold for every generated scene.
"""

from __future__ import annotations

import numpy as np

# The combined inequality holds only for a deltaN chosen to close it; the
# workloads pass deltaN = "zero", so its verdict is free and only its two
# assemblies are compared.
NEVER_VIOLATED = (
    "map_3_2",
    "vertical_5_2",
    "horizontal_6_2",
    "lemma_map_3_1",
    "lemma_vertical_5_1",
    "lemma_horizontal_6_1",
)
ASSEMBLY_TOL = 1e-9
SKEW_EXTREMA_RTOL = 1e-9
RADIAL_SLACK_TOL = 1e-6


def skew_extrema(A: np.ndarray) -> tuple[float, float]:
    """Exact (inf C^L, sup C^L) of skew slices A[a] (each s x s).

    For skew slices phi(u) = |A|^2 - 2 u^T M u with M = sum_a A_a^T A_a,
    so the extrema over unit normals come from the extreme eigenvalues
    of M.
    """
    s = A.shape[-1]
    M = np.einsum("aji,ajk->ik", A, A)
    lam = np.linalg.eigvalsh(M)
    norm_sq = float(np.sum(A * A))
    return (norm_sq - 2.0 * lam[-1]) / (s - 1), (norm_sq - 2.0 * lam[0]) / (s - 1)


def _known_skew_tensor(workload: str, doc: dict, rep: dict):
    """The A tensor of a horizontal report when the scene fixes it, else None."""
    if doc["mode"] == "pointwise":
        return np.asarray(doc["tensors"]["A"], dtype=float)
    if workload == "chart-product":
        # flat product projection: the horizontal distribution is integrable
        n = len(doc["points"][0])
        return np.zeros((n - 4, 4, 4))
    if doc["name"].startswith("chart-curved:hopf-radial"):
        # one 3 x 3 skew slice: A^T A has eigenvalues |A|^2/2, |A|^2/2, 0,
        # so any skew slice with the reported norm has the same extrema
        a = rep["extras"]["A_norm"] / np.sqrt(2.0)
        return np.array([[[0.0, a, 0.0], [-a, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    return None


def check_report(workload: str, doc: dict, report: dict) -> list[str]:
    """Failed checks of one scene's report; empty when the report is correct."""
    problems = []
    if report["aggregate"]["point_errors"] != 0:
        problems.append(f"point_errors = {report['aggregate']['point_errors']}")
    theorems = doc["theorems"]
    for point in report["points"]:
        if point["errors"]:
            problems.append(f"point {point['index']} errors: {point['errors']}")
            continue
        reps = point["reports"]
        if len(reps) != 2 * len(theorems):
            problems.append(
                f"point {point['index']}: {len(reps)} reports for {len(theorems)} theorems"
            )
        for rep in reps:
            tid = rep["theorem_id"]
            where = f"point {point['index']} {tid}/{rep['variant']}"
            if rep["verdict"] == "violated" and tid in NEVER_VIOLATED:
                problems.append(f"{where}: violated (slack {rep['slack']!r})")
            if workload == "chart-product" and rep["verdict"] != "equality":
                problems.append(f"{where}: verdict {rep['verdict']!r}, expected equality")
            if tid in ("combined_7_2", "lemma_combined_7_1"):
                agreement = rep["extras"]["assembly_agreement"]
                if not agreement < ASSEMBLY_TOL:
                    problems.append(f"{where}: assembly_agreement {agreement!r}")
            if tid in ("horizontal_6_2", "lemma_horizontal_6_1"):
                A = _known_skew_tensor(workload, doc, rep)
                if A is not None:
                    want = skew_extrema(A)
                    s = A.shape[-1]
                    scale = max(1.0, float(np.sum(A * A)) / (s - 1))
                    got = (rep["extras"]["inf_CL"], rep["extras"]["sup_CL"])
                    for label, g, w in zip(("inf_CL", "sup_CL"), got, want):
                        if not abs(g - w) <= SKEW_EXTREMA_RTOL * scale:
                            problems.append(f"{where}: {label} {g!r}, closed form {w!r}")
            if (
                doc["name"].startswith("chart-curved:radial")
                and tid == "vertical_5_2"
                and rep["variant"] == "delta"
            ):
                r_sq = float(np.sum(np.square(point["point"])))
                want = 1.0 / (6.0 * r_sq)
                if not abs(rep["slack"] - want) <= RADIAL_SLACK_TOL:
                    problems.append(f"{where}: slack {rep['slack']!r}, expected {want!r}")
    return problems
