"""Post-hoc analysis of trained adapters.

breakdown() compares checkpoints of per-task adapters the way one compares
fine-tuned modules: flatten every A and B submodule, compute pairwise
distances, embed in 2-D with PCA (power iteration on the covariance), and
summarize how much further apart the B group sits than the A group. Group
divergences are normalized by the group's mean Frobenius norm so the
comparison is fair even though B matrices start at zero norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adapters as ad_mod
from .errors import UsageError
from .linalg import SeededRng

@dataclass
class Submodule:
    adapter_id: str
    proj: str
    role: str          # "A" or "B"
    index: str         # expert index, "" for plain pairs
    matrix: np.ndarray

    def label(self) -> str:
        return f"{self.adapter_id}:{self.proj}.{self.role}{self.index}"


@dataclass
class EmbeddingReport:
    labels: list[str]
    roles: list[str]
    distances: np.ndarray        # raw pairwise Frobenius distances
    coords: np.ndarray           # (n, 2) PCA embedding
    d_a: float                   # normalized divergence of the A group
    d_b: float
    ratio: float                 # d_b / d_a (1.0 when degenerate)
    degenerate: bool             # both groups effectively identical

    def distance_csv(self) -> str:
        lines = ["id_a,id_b,dist"]
        n = len(self.labels)
        for i in range(n):
            for j in range(i + 1, n):
                lines.append(f"{self.labels[i]},{self.labels[j]},{float(self.distances[i, j])!r}")
        return "\n".join(lines) + "\n"

    def embedding_csv(self) -> str:
        lines = ["id,role,layer,x,y"]
        for label, role, (x, y) in zip(self.labels, self.roles, self.coords):
            lines.append(f"{label},{role},0,{float(x)!r},{float(y)!r}")
        return "\n".join(lines) + "\n"


def group_divergence(mats: list[np.ndarray]) -> float:
    """Mean pairwise Frobenius distance over mean group Frobenius norm."""
    if len(mats) < 2:
        return 0.0
    dists = []
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            d = mats[i] - mats[j]
            dists.append(float(np.sqrt((d * d).sum())))
    norms = [float(np.sqrt((m * m).sum())) for m in mats]
    scale = max(float(np.mean(norms)), 1e-12)
    return float(np.mean(dists)) / scale


def _power_top2(x: np.ndarray) -> np.ndarray:
    """Top-2 principal directions of the rows of x via power iteration with
    Gram-Schmidt deflation (until no entry moves by 1e-9, at most 10000 steps);
    start vectors are seeded so output is stable."""
    n, p = x.shape
    center = x - x.mean(axis=0, keepdims=True)
    if n < 2 or float(np.abs(center).max()) == 0.0:
        return np.zeros((n, 2))
    rng = SeededRng(0x9C0FFEE).derive("pca")
    comps = []
    for c in range(2):
        v = rng.normal(p)
        v /= np.sqrt((v * v).sum())
        for _ in range(10000):
            w = center.T @ (center @ v)
            for q in comps:
                w -= (w @ q) * q
            norm = np.sqrt((w * w).sum())
            if norm <= 1e-300:
                w = np.zeros(p)
                break
            w /= norm
            if w @ v < 0:
                w = -w
            if float(np.abs(w - v).max()) < 1e-9:
                v = w
                break
            v = w
        comps.append(v)
    return np.stack([center @ comps[0], center @ comps[1]], axis=1)


def parse_checkpoint_submodules(adapter_id: str,
                                tensors: dict[str, np.ndarray]) -> list[Submodule]:
    """Pull A/B submodules out of checkpoint tensors (router and base
    weights are not part of the A-vs-B story and are skipped)."""
    subs = []
    for name, arr in tensors.items():
        parsed = ad_mod.parse_param_name(name)
        if parsed and parsed[1] in ("A", "B"):
            subs.append(Submodule(adapter_id, *parsed, arr))
    return subs


def breakdown(checkpoints: list[tuple[str, dict[str, np.ndarray]]]) -> EmbeddingReport:
    """Distance/embedding analysis across >= 2 adapter checkpoints.

    `checkpoints` pairs an id with a checkpoint's tensors by name, as
    adapters.read_checkpoint returns them; names that are not an adapter's A
    or B (Wg, base.*) are skipped. All submodules must flatten to one common
    length (true whenever the adapted matrices are square, as here).
    """
    if len(checkpoints) < 2:
        raise UsageError(f"breakdown needs >= 2 checkpoints, got {len(checkpoints)}")
    subs: list[Submodule] = []
    for adapter_id, tensors in checkpoints:
        got = parse_checkpoint_submodules(adapter_id, tensors)
        if not got:
            raise UsageError(f"checkpoint {adapter_id!r} has no adapter submodules")
        subs.extend(got)
    sizes = {s.matrix.size for s in subs}
    if len(sizes) != 1:
        raise UsageError(f"submodules do not share a flattened size: {sorted(sizes)}")
    flat = np.stack([s.matrix.ravel() for s in subs])
    n = flat.shape[0]
    dists = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = flat[i] - flat[j]
            dists[i, j] = dists[j, i] = np.sqrt((d * d).sum())

    # group stats: same submodule across different checkpoints, per role
    d_as, d_bs = [], []
    keys = sorted({(s.proj, s.role, s.index) for s in subs})
    for proj, role, idx in keys:
        group = [s.matrix for s in subs if (s.proj, s.role, s.index) == (proj, role, idx)]
        if len(group) < 2:
            continue
        (d_as if role == "A" else d_bs).append(group_divergence(group))
    d_a = float(np.mean(d_as)) if d_as else 0.0
    d_b = float(np.mean(d_bs)) if d_bs else 0.0
    degenerate = d_a < 1e-12 and d_b < 1e-12
    ratio = 1.0 if degenerate else d_b / max(d_a, 1e-12)
    return EmbeddingReport(labels=[s.label() for s in subs],
                           roles=[s.role for s in subs],
                           distances=dists, coords=_power_top2(flat),
                           d_a=d_a, d_b=d_b, ratio=ratio, degenerate=degenerate)


def scatter_svg(report: EmbeddingReport) -> str:
    """Static SVG scatter of the embedding, colored by role."""
    width, height = 480, 360
    coords = report.coords
    span = max(float(np.abs(coords).max()), 1e-12)
    pad = 24
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" '
             f'stroke="black"/>']
    for (x, y), role, label in zip(coords, report.roles, report.labels):
        px = pad + (x / span + 1.0) * (width - 2 * pad) / 2.0
        py = pad + (1.0 - y / span) * (height - 2 * pad) / 2.0
        color = "#1f6fb4" if role == "A" else "#d1342f"
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{color}">'
                     f'<title>{label}</title></circle>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
