"""Synthetic trajectory generators, noise injection, and the
pairwise-comparison baseline.

Curves
------
half-circle   X(t) = (cos t, sin t),                        t in [0, pi]
cardioid      X(t) = (2cos t - 1 - cos 2t, 2sin t - sin 2t), t in [0, 8pi/5]
circle        X(t) = (cos t, sin t),                        t in [0, 2pi), closed
embedded:<d>  unit circle mapped into R^d by a seeded random
              orthonormal 2-frame (isometric, so recovery behaves like
              the planar circle after denoising)

Labels are drawn i.i.d. uniform on the curve's domain.  Every generator
is a pure function of (spec, n, seed).

The baseline turns column norms (distances from the origin) into a
comparison matrix C(i,j) = sign(||Z_j|| - ||Z_i||) and ranks the points
as SerialRank does: by the Fiedler vector of the similarity
S = (N + C C^T) / 2 under the unnormalized Laplacian D - S, the standard
spectral treatment of pairwise-comparison seriation.  On comparisons of
a total preorder that Fiedler order is the Borda count, the row sums of
C (Atkins, Boman & Hendrickson 1998; Fogel, d'Aspremont & Vojnovic,
NeurIPS 2014), and a row sum strictly decreases as the norm grows, so
the baseline is a sort of the norms: O(N) memory, no N x N array.
``ComparisonMatrix`` keeps the norms and builds C only when asked; the
spectral form is kept in the tests as its oracle.  Norm comparisons
ignore the curve's geodesic structure, which is exactly the failure mode
the spectral method avoids.

The generators and the noise functions hand the arrays they allocate to
``DataMatrix`` uncopied (noise is added in the noise array's own buffer),
so each holds one d x N array per output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, CurveKind, DataMatrix, Ranking, TimeLabels
from .errors import ConfigError, DegenerateBaselineError, ZeroSignalError


@dataclass(frozen=True)
class CurveSpec:
    """One of the built-in synthetic trajectories."""

    name: str
    embed_dim: int | None = None

    _SPANS = {
        "half-circle": math.pi,
        "cardioid": 8.0 * math.pi / 5.0,
        "circle": TWO_PI,
        "embedded": TWO_PI,
    }

    def __post_init__(self):
        if self.name not in self._SPANS:
            raise ConfigError(f"unknown curve {self.name!r}")
        if self.name == "embedded":
            if self.embed_dim is None or int(self.embed_dim) < 2:
                raise ConfigError("embedded curve needs an ambient dimension >= 2")
            object.__setattr__(self, "embed_dim", int(self.embed_dim))
        elif self.embed_dim is not None:
            raise ConfigError(f"curve {self.name!r} does not take a dimension")

    @classmethod
    def parse(cls, text: str) -> "CurveSpec":
        """Parse CLI syntax: half-circle | cardioid | circle | embedded:<d>."""
        if text.startswith("embedded:"):
            return cls("embedded", int(text.split(":", 1)[1]))
        return cls(text)

    def __str__(self) -> str:
        if self.name == "embedded":
            return f"embedded:{self.embed_dim}"
        return self.name

    @property
    def span(self) -> float:
        return self._SPANS[self.name]

    @property
    def kind(self) -> CurveKind:
        if self.name in ("circle", "embedded"):
            return CurveKind.CLOSED_LOOP
        return CurveKind.OPEN_CURVE

    def canonical_labels(self, t: TimeLabels) -> TimeLabels:
        """Rescale labels onto [0, 2pi], the scale recovery estimates live on."""
        if self.span == TWO_PI:
            return t
        return TimeLabels(t.angles * (TWO_PI / self.span))


def _positions(spec: CurveSpec, t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if spec.name == "half-circle":
        return np.vstack([np.cos(t), np.sin(t)])
    if spec.name == "cardioid":
        return np.vstack(
            [2.0 * np.cos(t) - 1.0 - np.cos(2.0 * t), 2.0 * np.sin(t) - np.sin(2.0 * t)]
        )
    if spec.name == "circle":
        return np.vstack([np.cos(t), np.sin(t)])
    # embedded circle: orthonormal 2-frame drawn after the labels
    frame, _ = np.linalg.qr(rng.standard_normal((spec.embed_dim, 2)))
    return frame @ np.vstack([np.cos(t), np.sin(t)])


def generate(spec: CurveSpec, n: int, seed: int) -> tuple[DataMatrix, TimeLabels]:
    """Draw n uniform labels on the curve's domain and evaluate the curve."""
    if n < 2:
        raise ConfigError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, spec.span, n)
    if spec.kind is CurveKind.CLOSED_LOOP:
        t = np.mod(t, TWO_PI)
    return DataMatrix._adopt(_positions(spec, t, rng)), TimeLabels(t)


def add_noise(x: DataMatrix, eps: float, seed: int) -> DataMatrix:
    """Z = X + E with i.i.d. N(0, eps^2) entries."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return x
    e = np.random.default_rng(seed).standard_normal(x.values.shape)
    e *= eps
    e += x.values  # the same sums as x + eps * e: IEEE products and sums commute
    return DataMatrix._adopt(e)


def noise_for_snr(x: DataMatrix, target_snr: float, seed: int) -> DataMatrix:
    """Z = X + E with the realized noise rescaled so that
    ||X||_F^2 / ||E||_F^2 equals target_snr exactly."""
    if target_snr <= 0:
        raise ValueError("target SNR must be positive")
    signal = float(np.linalg.norm(x.values))
    if signal == 0.0:
        raise ZeroSignalError("cannot scale noise against an all-zero signal")
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(x.values.shape)
    e *= signal / (math.sqrt(target_snr) * np.linalg.norm(e))
    e += x.values  # the same sums as x + e: IEEE addition commutes
    return DataMatrix._adopt(e)


def noisy_sample(
    spec: CurveSpec, n: int, seed: int, snr: float | None = None, eps: float | None = None
) -> tuple[DataMatrix, TimeLabels, DataMatrix]:
    """(x, t, z): ``generate(spec, n, seed)``, then z = x plus noise drawn
    from seed + 1, scaled to an exact ``snr`` or i.i.d. N(0, eps^2); z is x
    when neither is given."""
    if snr is not None and eps is not None:
        raise ConfigError("give either snr or eps, not both")
    x, t = generate(spec, n, seed)
    if snr is not None:
        z = noise_for_snr(x, snr, seed + 1)
    elif eps is not None:
        z = add_noise(x, eps, seed + 1)
    else:
        z = x
    return x, t, z


@dataclass(frozen=True)
class ComparisonMatrix:
    """Pairwise norm comparisons C(i,j) = sign(norms[j] - norms[i]), kept as
    the N norms; ``c`` builds the antisymmetric N x N matrix on demand."""

    norms: np.ndarray

    @property
    def c(self) -> np.ndarray:
        """C(i,j) = +1 if norms[i] < norms[j], -1 if greater, 0 on ties."""
        return np.sign(self.norms[None, :] - self.norms[:, None])


def comparison_matrix(z: DataMatrix) -> ComparisonMatrix:
    """Compare the points by their norms ||Z_i|| (the reference point is
    the origin)."""
    return ComparisonMatrix(norms=np.linalg.norm(z.values, axis=0))


def serialrank_baseline(c: ComparisonMatrix) -> Ranking:
    """SerialRank seriation of a comparison matrix, by its Borda count.

    Row i of C sums to #(points compared larger) - #(points compared
    smaller), and sorting by that count gives the order of the Fiedler
    vector of D - S, S = (N + C C^T) / 2, up to reflection and the order
    within ties (tied points have equal Fiedler entries); C holds the
    comparisons of a total preorder, so the equivalence is exact.  The
    row sum strictly decreases as the norm grows and ties with it, so
    the stable sort of the norms is the stable sort of minus the row
    sums, entry for entry, and C is never formed.  The orientation is
    fixed: ascending norm, ties by index.  A Fiedler vector's sign, and
    so its order's orientation, is arbitrary, which is why the metrics
    applied to the baseline are reflection-invariant.
    """
    if c.norms.min() == c.norms.max():
        raise DegenerateBaselineError("all comparisons tie; similarity is constant")
    return Ranking(np.argsort(c.norms, kind="stable"))
