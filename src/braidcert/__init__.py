"""Exact expansion cocycles on braid groups and independence certificates."""

from .braids import (
    BraidWord,
    artin_action,
    full_twist,
    parse_braid,
    permutation,
    pure_gen_braid,
)
from .certify import (
    Certificate,
    certificate,
    exact_rank,
    partition_cycles,
    partitions,
)
from .cochains import (
    BlockEmbedding,
    Cochain,
    block_layout,
    coboundary,
    coeff_action,
    composite_cochain,
    hbar_cochain,
    hp_cochain,
    projection_pullback,
    tau1,
    tau1_cochain,
)
from .magnus import MagnusExpansion, series_inverse
from .suites import SUITES, SuiteReport, run_suite
from .tensors import (
    ExteriorElement,
    HomTensor,
    TruncatedTensor,
    alt_project,
    compose_maps,
    exterior_basis,
)
from .words import (
    EndoMap,
    FreeWord,
    GrammarError,
    format_word,
    parse_word,
)

__version__ = "0.1.0"

# the bar complex, which only `braidcert pair` uses, loads on first use
_CHAINS = ("BarChain", "embed_chain", "pair", "parse_cycle", "shuffle", "torus_cycle")


def __getattr__(name: str) -> object:
    if name in _CHAINS:
        from . import chains

        return getattr(chains, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
