"""Geometric microbenchmarks of the paper's Table 2 (RQ1).

Each subject is a solid whose volume has a closed-form analytical value; the
solid is described by a conjunction of (mostly non-linear) constraints over a
bounded bounding box, and qCORAL estimates its volume as ``probability ×
bounding-box volume``.  The paper groups the subjects into convex polyhedra,
solids of revolution, and intersections of solids; the same thirteen subjects
are reproduced here.

The paper does not publish its exact parameterisations, so canonical
parameterisations are used and the analytical volume of *these* instances is
computed from the standard closed-form formulas.  Where the paper's reported
analytical value corresponds to a standard instance (cube of edge 2, unit
sphere, unit cylinder, ...), the same instance is used so the values match the
paper exactly; the remaining instances are documented in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.profiles import UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.lang import ast
from repro.lang.parser import parse_path_condition

#: Golden ratio, used by the icosahedron face planes.
_PHI = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class Solid:
    """One Table 2 subject: constraints, bounding box, analytical volume."""

    name: str
    group: str
    constraint: ast.PathCondition
    bounds: Dict[str, Tuple[float, float]]
    analytical_volume: float
    description: str = ""

    def profile(self) -> UsageProfile:
        """Uniform profile over the bounding box."""
        return UsageProfile.uniform(self.bounds)

    def bounding_volume(self) -> float:
        """Volume of the bounding box."""
        volume = 1.0
        for low, high in self.bounds.values():
            volume *= high - low
        return volume

    def constraint_set(self) -> ast.ConstraintSet:
        """The solid's constraints as a single-path constraint set."""
        return ast.ConstraintSet.of([self.constraint], name=self.name)


@dataclass(frozen=True)
class VolumeEstimate:
    """Volume estimate produced by qCORAL for one solid."""

    solid: Solid
    volume: float
    std: float
    analysis_time: float

    @property
    def error(self) -> float:
        """Absolute error against the analytical volume."""
        return abs(self.volume - self.solid.analytical_volume)

    @property
    def relative_error(self) -> float:
        """Relative error against the analytical volume."""
        if self.solid.analytical_volume == 0.0:
            return self.error
        return self.error / abs(self.solid.analytical_volume)


def _solid(
    name: str,
    group: str,
    constraint_text: str,
    bounds: Dict[str, Tuple[float, float]],
    analytical_volume: float,
    description: str = "",
) -> Solid:
    return Solid(
        name=name,
        group=group,
        constraint=parse_path_condition(constraint_text),
        bounds=bounds,
        analytical_volume=analytical_volume,
        description=description,
    )


# --------------------------------------------------------------------------- #
# Convex polyhedra
# --------------------------------------------------------------------------- #
def tetrahedron() -> Solid:
    """Corner tetrahedron ``x, y, z >= 0, x + y + z <= 1.5`` (V = 1.5^3 / 6)."""
    side = 1.5
    return _solid(
        "Tetrahedron",
        "Convex Polyhedra",
        f"x >= 0 && y >= 0 && z >= 0 && x + y + z <= {side}",
        {"x": (0.0, side), "y": (0.0, side), "z": (0.0, side)},
        side ** 3 / 6.0,
        "Right tetrahedron at the origin.",
    )


def cube() -> Solid:
    """Axis-aligned cube of edge 2 (V = 8, matching the paper)."""
    return _solid(
        "Cube",
        "Convex Polyhedra",
        "abs(x) <= 1 && abs(y) <= 1 && abs(z) <= 1",
        {"x": (-1.5, 1.5), "y": (-1.5, 1.5), "z": (-1.5, 1.5)},
        8.0,
        "Cube of edge 2 centred at the origin; ICP identifies it exactly.",
    )


def icosahedron() -> Solid:
    """Regular icosahedron of edge 1 (V = 5 (3 + sqrt 5) / 12, matching the paper)."""
    offset = _PHI * _PHI / 2.0
    normals: List[Tuple[float, float, float]] = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                normals.append((sx, sy, sz))
    for sa in (1.0, -1.0):
        for sb in (1.0, -1.0):
            normals.append((0.0, sa / _PHI, sb * _PHI))
            normals.append((sa / _PHI, sb * _PHI, 0.0))
            normals.append((sb * _PHI, 0.0, sa / _PHI))
    conjuncts = []
    for nx, ny, nz in normals:
        terms = []
        for coefficient, variable in ((nx, "x"), (ny, "y"), (nz, "z")):
            if coefficient != 0.0:
                terms.append(f"{coefficient!r} * {variable}")
        conjuncts.append(" + ".join(terms) + f" <= {offset!r}")
    volume = 5.0 * (3.0 + math.sqrt(5.0)) / 12.0
    return _solid(
        "Icosahedron",
        "Convex Polyhedra",
        " && ".join(conjuncts),
        {"x": (-1.0, 1.0), "y": (-1.0, 1.0), "z": (-1.0, 1.0)},
        volume,
        "Intersection of the 20 face half-spaces of a regular icosahedron (edge 1).",
    )


def rhombicuboctahedron() -> Solid:
    """Rhombicuboctahedron of edge 2 (vertices: permutations of (±1, ±1, ±(1+√2)))."""
    sqrt2 = math.sqrt(2.0)
    axis_bound = 1.0 + sqrt2
    pair_bound = 2.0 + sqrt2
    corner_bound = 3.0 + sqrt2
    conjuncts = [
        f"abs(x) <= {axis_bound!r}",
        f"abs(y) <= {axis_bound!r}",
        f"abs(z) <= {axis_bound!r}",
        f"abs(x) + abs(y) <= {pair_bound!r}",
        f"abs(y) + abs(z) <= {pair_bound!r}",
        f"abs(x) + abs(z) <= {pair_bound!r}",
        f"abs(x) + abs(y) + abs(z) <= {corner_bound!r}",
    ]
    # The half-space representation above has vertices at the permutations of
    # (±1, ±1, ±(1+√2)), i.e. edge length 2; the closed form for edge a is
    # V = (2/3) (6 + 5√2) a³.
    edge = 2.0
    volume = 2.0 / 3.0 * (6.0 + 5.0 * sqrt2) * edge ** 3
    return _solid(
        "Rhombicuboctahedron",
        "Convex Polyhedra",
        " && ".join(conjuncts),
        {"x": (-2.5, 2.5), "y": (-2.5, 2.5), "z": (-2.5, 2.5)},
        volume,
        "26-face Archimedean solid as an intersection of half-spaces.",
    )


# --------------------------------------------------------------------------- #
# Solids of revolution
# --------------------------------------------------------------------------- #
def cone() -> Solid:
    """Unit cone (base radius 1, height 1): V = pi / 3, matching the paper."""
    return _solid(
        "Cone",
        "Solids of Revolution",
        "x * x + y * y <= (1 - z) * (1 - z) && z >= 0 && z <= 1",
        {"x": (-1.0, 1.0), "y": (-1.0, 1.0), "z": (0.0, 1.0)},
        math.pi / 3.0,
    )


def conical_frustum() -> Solid:
    """Frustum with radii 1 and 0.5, height 1: V = pi (1 + 0.5 + 0.25) / 3 ≈ 1.8326."""
    return _solid(
        "Conical frustrum",
        "Solids of Revolution",
        "x * x + y * y <= (1 - 0.5 * z) * (1 - 0.5 * z) && z >= 0 && z <= 1",
        {"x": (-1.0, 1.0), "y": (-1.0, 1.0), "z": (0.0, 1.0)},
        math.pi / 3.0 * (1.0 + 0.5 + 0.25),
    )


def cylinder() -> Solid:
    """Unit cylinder: V = pi, matching the paper."""
    return _solid(
        "Cylinder",
        "Solids of Revolution",
        "x * x + y * y <= 1 && z >= 0 && z <= 1",
        {"x": (-1.0, 1.0), "y": (-1.0, 1.0), "z": (0.0, 1.0)},
        math.pi,
    )


def oblate_spheroid() -> Solid:
    """Oblate spheroid with semi-axes (2, 2, 1): V = 16/3 pi ≈ 16.755, matching the paper."""
    return _solid(
        "Oblate spheroid",
        "Solids of Revolution",
        "x * x / 4 + y * y / 4 + z * z <= 1",
        {"x": (-2.0, 2.0), "y": (-2.0, 2.0), "z": (-1.0, 1.0)},
        4.0 / 3.0 * math.pi * 2.0 * 2.0 * 1.0,
    )


def sphere() -> Solid:
    """Unit sphere: V = 4/3 pi, matching the paper."""
    return _solid(
        "Sphere",
        "Solids of Revolution",
        "x * x + y * y + z * z <= 1",
        {"x": (-1.0, 1.0), "y": (-1.0, 1.0), "z": (-1.0, 1.0)},
        4.0 / 3.0 * math.pi,
    )


def spherical_segment() -> Solid:
    """Segment of a radius-4 sphere between z = 1 and z = 3: V = 70 pi / 3."""
    return _solid(
        "Spherical segment",
        "Solids of Revolution",
        "x * x + y * y + z * z <= 16 && z >= 1 && z <= 3",
        {"x": (-4.0, 4.0), "y": (-4.0, 4.0), "z": (1.0, 3.0)},
        70.0 * math.pi / 3.0,
    )


def torus() -> Solid:
    """Torus with major radius 1 and minor radius 0.25: V = 2 pi^2 R r^2 ≈ 1.2337."""
    return _solid(
        "Torus",
        "Solids of Revolution",
        "(sqrt(x * x + y * y) - 1) * (sqrt(x * x + y * y) - 1) + z * z <= 0.0625",
        {"x": (-1.25, 1.25), "y": (-1.25, 1.25), "z": (-0.25, 0.25)},
        2.0 * math.pi ** 2 * 1.0 * 0.25 ** 2,
    )


# --------------------------------------------------------------------------- #
# Intersections of solids
# --------------------------------------------------------------------------- #
def two_spheres_intersection() -> Solid:
    """Lens of two radius-3 spheres with centres 2 apart: V = pi (4r + d)(2r - d)^2 / 12."""
    radius = 3.0
    distance = 2.0
    volume = math.pi * (4.0 * radius + distance) * (2.0 * radius - distance) ** 2 / 12.0
    return _solid(
        "Two spheres intersection",
        "Intersection",
        "x * x + y * y + z * z <= 9 && x * x + y * y + (z - 2) * (z - 2) <= 9",
        {"x": (-3.0, 3.0), "y": (-3.0, 3.0), "z": (-1.0, 3.0)},
        volume,
    )


def cone_cylinder_intersection() -> Solid:
    """Cone ``x^2 + y^2 <= z^2`` (0 <= z <= 2) meets the unit cylinder: V = 4 pi / 3."""
    return _solid(
        "Cone-cylinder intersection",
        "Intersection",
        "x * x + y * y <= z * z && x * x + y * y <= 1 && z >= 0 && z <= 2",
        {"x": (-1.0, 1.0), "y": (-1.0, 1.0), "z": (0.0, 2.0)},
        math.pi / 3.0 + math.pi,
    )


def all_solids() -> Tuple[Solid, ...]:
    """The thirteen Table 2 subjects, in the paper's order."""
    return (
        tetrahedron(),
        cube(),
        icosahedron(),
        rhombicuboctahedron(),
        cone(),
        conical_frustum(),
        cylinder(),
        oblate_spheroid(),
        sphere(),
        spherical_segment(),
        torus(),
        two_spheres_intersection(),
        cone_cylinder_intersection(),
    )


def solid_by_name(name: str) -> Solid:
    """Look up a Table 2 subject by its (case-insensitive) name."""
    for solid in all_solids():
        if solid.name.lower() == name.lower():
            return solid
    raise KeyError(f"unknown solid {name!r}")


def estimate_volume(
    solid: Solid,
    samples: int,
    seed: Optional[int] = None,
    config: Optional[QCoralConfig] = None,
) -> VolumeEstimate:
    """Estimate the volume of ``solid`` with qCORAL.

    The probability estimate returned by the analyzer is rescaled by the
    bounding-box volume; the reported standard deviation is rescaled the same
    way so it is directly comparable to the paper's Table 2 columns.
    """
    analysis_config = replace(config if config is not None else QCoralConfig(), samples_per_query=samples, seed=seed)
    analyzer = QCoralAnalyzer(solid.profile(), analysis_config)
    result = analyzer.analyze(solid.constraint_set())
    scale = solid.bounding_volume()
    return VolumeEstimate(
        solid=solid,
        volume=result.mean * scale,
        std=result.std * scale,
        analysis_time=result.analysis_time,
    )
