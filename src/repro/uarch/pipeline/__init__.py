"""Out-of-order pipeline model."""

from repro.uarch.pipeline.core import OutOfOrderCore

__all__ = ["OutOfOrderCore"]
