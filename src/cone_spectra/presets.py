"""Built-in cones covering the worked examples: Harvey-Lawson T^2-cone,
single SL plane, transverse SL plane pair, and synthetic flat-torus links."""

from __future__ import annotations

from .indicial import SLConeSpec
from .spectra import (
    LinkTopology,
    TorusMetric,
    clifford_torus_metric,
    sphere_spectrum,
    torus_spectrum,
)
from .stability import ConeComponent, ConeData

DEFAULT_CUTOFF = 12.0

#: dim of the G2 symmetry groups of the built-in links
HL_SYMMETRY_DIM = 2  # H = U(1)^2
PLANE_SYMMETRY_DIM = 6  # H = SO(4)


def hl_cone_spec(cutoff: float = DEFAULT_CUTOFF) -> SLConeSpec:
    """The Harvey-Lawson T^2-cone: flat Clifford-torus link, genus 1."""
    return torus_cone_spec(clifford_torus_metric(), cutoff)


def plane_cone_spec(cutoff: float = DEFAULT_CUTOFF) -> SLConeSpec:
    """A single SL 3-plane: totally geodesic S^2 link."""
    return SLConeSpec(
        spectrum=sphere_spectrum(cutoff),
        topology=LinkTopology(b0=1, b1=0),
    )


def torus_cone_spec(metric: TorusMetric, cutoff: float = DEFAULT_CUTOFF) -> SLConeSpec:
    """Synthetic cone with a flat-torus link of the given metric."""
    return SLConeSpec(
        spectrum=torus_spectrum(metric, cutoff),
        topology=LinkTopology(b0=1, b1=2),
    )


def hl_cone(cutoff: float = DEFAULT_CUTOFF) -> ConeData:
    return ConeData(
        components=(
            ConeComponent(hl_cone_spec(cutoff), symmetry_group_dim=HL_SYMMETRY_DIM),
        )
    )


def plane_cone(cutoff: float = DEFAULT_CUTOFF) -> ConeData:
    return ConeData(
        components=(
            ConeComponent(
                plane_cone_spec(cutoff), symmetry_group_dim=PLANE_SYMMETRY_DIM, is_plane=True
            ),
        )
    )


def plane_pair_cone(cutoff: float = DEFAULT_CUTOFF) -> ConeData:
    """A transverse pair of SL planes: two totally geodesic S^2 components."""
    return ConeData(components=plane_cone(cutoff).components * 2)


def torus_cone(metric: TorusMetric, cutoff: float = DEFAULT_CUTOFF) -> ConeData:
    return ConeData(components=(ConeComponent(torus_cone_spec(metric, cutoff)),))


#: the named presets of the CLI's --cone and --end: builder and provenance
PRESETS = {
    "hl": (hl_cone, "Harvey-Lawson T^2-cone, Clifford-torus link, H = U(1)^2"),
    "plane": (plane_cone, "special Lagrangian 3-plane, totally geodesic S^2 link, H = SO(4)"),
    "plane-pair": (plane_pair_cone, "transverse pair of SL planes (two S^2 link components)"),
}
