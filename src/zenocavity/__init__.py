"""Quantum Zeno dynamics of a driven atom-cavity-fiber network.

A six-level control atom sits in one cavity, two three-level storage atoms
in another, and the cavities talk through a short optical fiber carrying
two polarization modes.  When the cavity and fiber couplings dominate the
classical drives, the driven dynamics is pinned to the dark subspace of the
strong Hamiltonian and reduces to an exactly solvable three-state rotation
per polarization sector.  This package builds the full bosonic model,
extracts the Zeno structure (clustered eigenprojections, dark/bright bases,
effective generators), and runs the entanglement protocols that live on top
of it.
"""

from .spaces import (
    DensityOp,
    HilbertSpace,
    InvalidSubsystemError,
    RestrictedSpace,
    SpaceMismatchError,
    State,
    SubsystemSpec,
    embed,
    fidelity,
    negativity,
    partial_trace,
)
from .model import (
    Branch,
    BranchModel,
    HamiltonianParts,
    UniformParams,
    build_branch_model,
    build_hamiltonian,
    full_space,
    restrict,
    sector_kets,
)
from .zeno import (
    ClusterAmbiguityError,
    DarkBrightBasis,
    DegenerateStructureError,
    ZenoDecomposition,
    analytic_dark_bright,
    decompose,
    predicted_strong_spectrum,
    principal_angles,
    sector_dark_columns,
    zeno_hamiltonian,
)
from .dynamics import (
    HALF_PI,
    PI,
    DriveAngles,
    Propagator,
    compare_full_vs_effective,
    effective_generator,
    effective_matrix,
    solve_timing,
    zeno_ratio,
)
from .protocols import (
    Engine,
    GateConvention,
    Interpretation,
    Protocol,
    ProtocolResult,
    ProtocolSpec,
    default_spec,
    hadamard_and_reduce,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchModel",
    "ClusterAmbiguityError",
    "DarkBrightBasis",
    "DegenerateStructureError",
    "DensityOp",
    "DriveAngles",
    "Engine",
    "GateConvention",
    "HALF_PI",
    "HamiltonianParts",
    "HilbertSpace",
    "Interpretation",
    "InvalidSubsystemError",
    "PI",
    "Propagator",
    "Protocol",
    "ProtocolResult",
    "ProtocolSpec",
    "RestrictedSpace",
    "SpaceMismatchError",
    "State",
    "SubsystemSpec",
    "UniformParams",
    "ZenoDecomposition",
    "analytic_dark_bright",
    "build_branch_model",
    "build_hamiltonian",
    "compare_full_vs_effective",
    "decompose",
    "default_spec",
    "effective_generator",
    "effective_matrix",
    "embed",
    "fidelity",
    "full_space",
    "hadamard_and_reduce",
    "negativity",
    "partial_trace",
    "predicted_strong_spectrum",
    "principal_angles",
    "restrict",
    "run",
    "sector_dark_columns",
    "sector_kets",
    "solve_timing",
    "zeno_hamiltonian",
    "zeno_ratio",
]
