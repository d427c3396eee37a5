"""streamcolor: one-pass streaming edge colouring under a small space budget.

Two colourers cover the two arrival models: :class:`ChunkColorer` buffers a
random-order stream into fixed-size chunks and colours each offline under a
fresh palette; :class:`BipartiteColorer` routes each edge of an adversarial
stream into one of s bipartite slices by random node signatures and colours
it from a pair of per-node counters.  Both, and the greedy baseline, are
:class:`StreamColorer` subclasses: one feed/finish contract, checked in one
place, that :func:`run_stream` drives.  Stream generators, a worst-case
adversary with access to the colourer's randomness, a transcript verifier,
and a space meter round out the toolkit.
"""

from .adversary import WorstCaseResult, recommended_vertex_count, worst_case_stream
from .bipartite import BipartiteColorer
from .chunked import ChunkColorer, ChunkConfig
from .core import (
    ChunkColour,
    ColourId,
    ConfigurationError,
    ContractViolation,
    Edge,
    OverflowColour,
    SpaceMeter,
    StreamColorer,
    StreamHeader,
    Transcript,
    TranscriptParseError,
    TripleColour,
    ValidationError,
    WrongAlgorithmError,
    parse_colour,
    read_edge_list,
    read_transcript,
    run_stream,
    write_edge_list,
    write_transcript,
)
from .generators import (
    AdversarialSorted,
    AsGiven,
    CompleteBipartite,
    CompleteGraph,
    FromFile,
    GnpRandom,
    RandomRegular,
    Star,
    UniformRandomPermutation,
    default_alpha,
    default_signature_bits,
    generate,
    parse_family,
    parse_order,
)
from .harness import ExperimentSpec, run_experiment, run_single
from .offline import (
    AdjacencyGraph,
    GreedyStreamColorer,
    chromatic_index_bruteforce,
    color_greedy,
    color_vizing,
    colours_used,
    is_k_edge_colourable,
    is_proper,
)
from .verify import (
    BudgetCheck,
    ConcentrationSummary,
    VerificationReport,
    check_bipartition,
    chunk_concentration,
    colour_budget,
    verify,
)

__version__ = "0.1.0"
