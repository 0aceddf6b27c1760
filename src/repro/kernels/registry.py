"""Kernel registry: Table I workload names -> traced kernel factories.

The five applications of the paper's Table I, with the option sets used
by the reproduction suite.  Two calibration choices (documented in
DESIGN.md / EXPERIMENTS.md) compensate for the synthetic database and
the leaner per-hit bookkeeping of the reimplementations so that the
*relative* trace sizes land near Table III:

* BLAST runs with neighborhood threshold 9 (instead of NCBI's 11),
  giving ~46 neighborhood words per query position — about what real
  BLAST sees on SwissProt;
* FASTA runs with opt threshold 16 so the banded optimization stage
  runs for most database sequences, as it does in real fasta34 runs
  that report optimized scores.
"""

from __future__ import annotations

from typing import Callable

from repro.align.blast.engine import BlastOptions
from repro.align.fasta.engine import FastaOptions
from repro.kernels.base import TracedKernel
from repro.kernels.blast_kernel import BlastKernel
from repro.kernels.fasta_kernel import FastaKernel
from repro.kernels.ssearch_kernel import SsearchKernel
from repro.kernels.sw_vmx_kernel import SwVmxKernel

#: Neighborhood threshold used by the reproduction suite's BLAST runs.
SUITE_BLAST_THRESHOLD = 9
#: FASTA opt threshold used by the reproduction suite.
SUITE_FASTA_OPT_THRESHOLD = 16

KERNEL_FACTORIES: dict[str, Callable[[], TracedKernel]] = {
    "ssearch34": SsearchKernel,
    "sw_vmx128": lambda: SwVmxKernel(128),
    "sw_vmx256": lambda: SwVmxKernel(256),
    "fasta34": lambda: FastaKernel(
        FastaOptions(opt_threshold=SUITE_FASTA_OPT_THRESHOLD)
    ),
    "blast": lambda: BlastKernel(
        BlastOptions(threshold=SUITE_BLAST_THRESHOLD)
    ),
}

#: Table I order.
WORKLOAD_NAMES: tuple[str, ...] = (
    "ssearch34",
    "sw_vmx128",
    "sw_vmx256",
    "fasta34",
    "blast",
)


def create_kernel(name: str) -> TracedKernel:
    """Instantiate a traced kernel by its Table I name."""
    try:
        factory = KERNEL_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(KERNEL_FACTORIES)}"
        ) from None
    return factory()
