"""epkit: exceptional-point analysis for 2x2 non-Hermitian Hamiltonians."""

from .core import (
    DEGENERACY_THRESHOLD,
    Hamiltonian2,
    Spectrum2,
    diagonalize,
    principal_sqrt,
    splitting,
)
from .crossing import (
    ClassReport,
    ScanTrajectory,
    UnclassifiableScanError,
    beta_transition,
    classify,
    match_branches,
    overlap_peaks,
    sweep_toy,
)
from .epfind import (
    EPLocation,
    GridSearchResult,
    equal_width_eps,
    grid_ep_search,
)
from .sphere import PlanePoint, SpherePoint, lift_cut, to_plane, to_sphere
from .surface import (
    AnalyticOracle,
    CircleLoop,
    CutSet,
    LoopResult,
    PolylineLoop,
    SheetGrid,
    build_surface,
    connected_components,
    encircle,
    oracle_eval,
)
from .toymodel import (
    PRESETS,
    ToyParams,
    build_hamiltonian,
    coupling,
    eigenpair_sampler,
    preset,
    xi,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticOracle",
    "CircleLoop",
    "ClassReport",
    "CutSet",
    "DEGENERACY_THRESHOLD",
    "EPLocation",
    "GridSearchResult",
    "Hamiltonian2",
    "LoopResult",
    "PRESETS",
    "PlanePoint",
    "PolylineLoop",
    "ScanTrajectory",
    "SheetGrid",
    "Spectrum2",
    "SpherePoint",
    "ToyParams",
    "UnclassifiableScanError",
    "beta_transition",
    "build_hamiltonian",
    "build_surface",
    "classify",
    "connected_components",
    "coupling",
    "diagonalize",
    "encircle",
    "eigenpair_sampler",
    "equal_width_eps",
    "grid_ep_search",
    "lift_cut",
    "match_branches",
    "oracle_eval",
    "overlap_peaks",
    "preset",
    "principal_sqrt",
    "splitting",
    "sweep_toy",
    "to_plane",
    "to_sphere",
    "xi",
]
