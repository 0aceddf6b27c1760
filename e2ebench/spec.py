"""The benchmark definition (``BENCHMARK.json``).

Every run checks that the metrics it is about to print are exactly the
ones ``BENCHMARK.json`` declares for its mode, so the definition and
the code cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class SpecError(ValueError):
    """BENCHMARK.json, or the output about to be printed, is malformed."""


def load_spec(path: Path = SPEC_PATH) -> dict:
    """Read ``BENCHMARK.json``."""
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise SpecError(f"cannot read {path}: {error}") from None
    return spec


def declared(spec: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit for one mode (traced: per_layer)."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def check_metrics(spec: dict, trace: bool, values: dict[str, float]) -> None:
    """Raise unless ``values`` names exactly the declared metrics."""
    wanted = set(declared(spec, trace))
    missing = sorted(wanted - set(values))
    extra = sorted(set(values) - wanted)
    if missing or extra:
        raise SpecError(f"metrics differ from BENCHMARK.json: "
                        f"missing {missing}, undeclared {extra}")
