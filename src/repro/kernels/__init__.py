"""Instrumented workload kernels emitting dynamic instruction traces."""

from repro.kernels.base import KernelRun, TracedKernel
from repro.kernels.blast_kernel import BlastKernel
from repro.kernels.dp_emit import banded_dp_traced
from repro.kernels.fasta_kernel import FastaKernel
from repro.kernels.registry import (
    KERNEL_FACTORIES,
    WORKLOAD_NAMES,
    create_kernel,
)
from repro.kernels.ssearch_kernel import SsearchKernel
from repro.kernels.sw_vmx_kernel import SwVmxKernel

__all__ = [
    "KernelRun",
    "TracedKernel",
    "BlastKernel",
    "banded_dp_traced",
    "FastaKernel",
    "KERNEL_FACTORIES",
    "WORKLOAD_NAMES",
    "create_kernel",
    "SsearchKernel",
    "SwVmxKernel",
]
