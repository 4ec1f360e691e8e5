"""Executable cell-space machinery: right semi-actions over concrete groups,
Folner boundary ratios, doubling sets, Hall harem matchings, paradoxical
decompositions, and semi-invariance checks of finitely additive measures."""

from .errors import (
    BackendMismatchError,
    CellSpacesError,
    ConstructionError,
    IntegrityError,
    ScopeMismatchError,
    UncertifiedWindowError,
)
from .folner import (
    DoublingConstruction,
    DoublingReport,
    ExpansionSet,
    FolnerSearchResult,
    RatioRecord,
    check_doubling,
    doubling_from_failure,
    folner_search,
    ratios,
)
from .groups import (
    FreeAbelianGroup,
    FreeGroup,
    Group,
    GroupElement,
    PermutationGroup,
    SemidirectProduct,
    SignedPermutationGroup,
    hyperoctahedral_tau,
    reduce_word,
)
from .matching import HaremMatching, HaremViolation, solve_harem
from .measures import (
    BoundedFn,
    FAMeasure,
    MeanVector,
    check_semi_invariance,
    empirical_mean_defect,
    funcamact,
    indicator,
    mean_from_measure,
    measure_from_mean,
    measure_semiaction,
)
from .paradox import (
    BipartiteGraph,
    Decomposition,
    TwoToOneMap,
    build_graph,
    canonical_free_decomposition,
    certified_interior,
    decomposition_from_json,
    decomposition_from_map,
    decomposition_to_json,
    harem_matching,
    tarski_contradiction,
    two_to_one_from_matching,
    verify_decomposition,
)
from .spaces import (
    CellSpace,
    Coset,
    FiniteSpace,
    GroupAsSpace,
    SemidirectCellSpace,
    Window,
    point_key,
    verify_axioms,
)
from .transfer import (
    SubgroupSample,
    TransferReport,
    affine_dilations,
    affine_space,
    affine_translations,
    check_transfer_conditions,
    hyperoct_space,
    inverse_pair_witness,
    space_by_name,
    subgroup_sample,
    transfer_invariance_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
