"""Unit tests for sweep specs: parsing, validation, expansion, knees."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.context import ExperimentContext
from repro.analysis.sweeps import (
    fig3_fig4_memory_sweep,
    fig5_cache_size,
    fig9_branch_prediction,
)
from repro.runtime.keys import config_key
from repro.sweep import (
    SweepSpecError,
    detect_knee,
    expand_spec,
    load_spec,
    parse_spec,
)
from repro.sweep.plan import build_config, point_id
from repro.uarch.config import (
    BP_PERFECT,
    KB,
    ME1,
    ME3,
    PROC_4WAY,
    PROC_8WAY,
    memory_with_dl1,
)


def minimal(**overrides) -> dict:
    data = {
        "sweep": {"name": "unit", "description": "unit grid"},
        "axes": {"width": ["4-way", "8-way"]},
        "workloads": {"names": ["ssearch34"]},
    }
    data.update(overrides)
    return data


class TestParse:
    def test_minimal_spec_and_defaults(self):
        spec = parse_spec(minimal())
        assert spec.name == "unit"
        assert spec.axis_names() == ("width",)
        assert spec.workloads == ("ssearch34",)
        assert spec.point_count == 2
        assert spec.metrics  # defaults applied
        assert spec.knee_axes == ()

    def test_workloads_default_to_the_full_suite(self):
        from repro.kernels.registry import WORKLOAD_NAMES

        data = minimal()
        del data["workloads"]
        assert parse_spec(data).workloads == tuple(WORKLOAD_NAMES)

    def test_knee_axes_default_to_swept_numeric_axes(self):
        data = minimal(axes={"dl1_size_kb": [8, 16, 32, 64]})
        assert parse_spec(data).knee_axes == ("dl1_size_kb",)
        # Two points cannot bend.
        data = minimal(axes={"dl1_size_kb": [8, 16]})
        assert parse_spec(data).knee_axes == ()

    def test_digest_ignores_report_section(self):
        plain = parse_spec(minimal())
        reported = parse_spec(minimal(report={"metrics": ["cycles"]}))
        assert plain.digest() == reported.digest()
        widened = parse_spec(
            minimal(axes={"width": ["4-way", "8-way", "16-way"]})
        )
        assert widened.digest() != plain.digest()

    def test_digest_is_stable_across_processes(self):
        # Pure function of the grid contents: documented by pinning.
        spec = parse_spec(minimal())
        assert spec.digest() == parse_spec(minimal()).digest()
        assert len(spec.digest()) == 16


class TestValidation:
    def check(self, data, *needles):
        with pytest.raises(SweepSpecError) as error:
            parse_spec(data)
        text = str(error.value)
        for needle in needles:
            assert needle in text
        return text

    def test_unknown_axis(self):
        self.check(minimal(axes={"frequency": [1, 2]}), "frequency")

    def test_unknown_axis_value(self):
        self.check(minimal(axes={"width": ["4-way", "64-way"]}), "64-way")

    def test_empty_axis(self):
        self.check(minimal(axes={"width": []}), "width")

    def test_unknown_workload(self):
        self.check(minimal(workloads={"names": ["hmmer"]}), "hmmer")

    def test_unknown_metric(self):
        self.check(
            minimal(report={"metrics": ["flops"]}), "flops"
        )

    def test_memory_preset_crossed_with_parametric_axis(self):
        self.check(minimal(axes={
            "memory": ["me1", "me2"],
            "dl1_size_kb": [16, 32],
        }), "memory")

    def test_missing_name(self):
        self.check({"axes": {"width": ["4-way"]}})

    def test_error_lists_every_violation(self):
        text = self.check(minimal(
            axes={"width": ["64-way"], "frequency": [1]},
            workloads={"names": ["hmmer"]},
        ))
        assert text.count("SW") >= 3


class TestLoadSpec:
    def test_toml_roundtrip(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            '[sweep]\nname = "t"\n[axes]\nwidth = ["4-way"]\n'
            '[workloads]\nnames = ["blast"]\n'
        )
        spec = load_spec(path)
        assert spec.name == "t"
        assert spec.source == str(path)

    def test_json_spec(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(minimal()))
        assert load_spec(path).name == "unit"

    def test_yaml_spec(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(minimal()))
        assert load_spec(path).name == "unit"

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text("x")
        with pytest.raises(SweepSpecError, match="unknown spec format"):
            load_spec(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SweepSpecError, match="cannot read"):
            load_spec(tmp_path / "absent.toml")

    def test_parse_error_rejected(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text("[sweep\nname=")
        with pytest.raises(SweepSpecError, match="parse error"):
            load_spec(path)

    def test_committed_specs_are_valid(self):
        root = Path(__file__).resolve().parents[1] / "examples" / "sweeps"
        specs = sorted(root.glob("*.toml"))
        assert len(specs) >= 4
        for path in specs:
            spec = load_spec(path)
            assert spec.point_count > 0


class TestExpansion:
    def test_deterministic_order_and_ids(self):
        spec = parse_spec(minimal(
            axes={"width": ["4-way", "8-way"], "memory": ["me1", "me3"]},
            workloads={"names": ["ssearch34", "blast"]},
        ))
        points = expand_spec(spec)
        assert len(points) == 8
        assert points[0].point_id == "ssearch34|width=4-way|memory=me1"
        assert points[1].point_id == "ssearch34|width=4-way|memory=me3"
        assert points[-1].point_id == "blast|width=8-way|memory=me3"
        assert points[0].coord("memory") == "me1"
        assert expand_spec(spec) == points  # stable

    def test_point_id_format(self):
        assert point_id(
            "blast", (("width", "8-way"), ("dl1_size_kb", 32))
        ) == "blast|width=8-way|dl1_size_kb=32"


class TestBuildConfig:
    def test_preset_axes_match_figure_construction(self):
        # Figures 3/4: width.with_memory(memory preset).
        assert build_config(
            {"width": "8-way", "memory": "me3"}
        ) == PROC_8WAY.with_memory(ME3)

    def test_parametric_axes_match_memory_with_dl1_defaults(self):
        # Figure 5: PROC_4WAY with memory_with_dl1(size), defaults.
        assert build_config(
            {"dl1_size_kb": 32}
        ) == PROC_4WAY.with_memory(memory_with_dl1(32 * KB))
        # Figure 7: latency sweep against a 1 MB L2.
        assert build_config(
            {"dl1_latency": 4, "dl1_size_kb": 32, "l2_mb": 1}
        ) == PROC_4WAY.with_memory(
            memory_with_dl1(32 * KB, latency=4, l2_mb=1)
        )

    def test_inf_values_build_ideal_levels(self):
        config = build_config({"dl1_size_kb": "inf"})
        assert config == PROC_4WAY.with_memory(memory_with_dl1(None))

    def test_predictor_axis_matches_fig9(self):
        real = build_config({"width": "4-way", "memory": "me1"})
        perfect = build_config(
            {"width": "4-way", "memory": "me1", "predictor": "perfect"}
        )
        assert real == PROC_4WAY.with_memory(ME1)
        assert perfect == PROC_4WAY.with_memory(ME1).with_branch(BP_PERFECT)

    def test_defaults_are_the_paper_baseline(self):
        assert build_config({}) == PROC_4WAY.with_memory(ME1)


class TestKneeDetection:
    def test_saturating_curve_knees_at_the_bend(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        ys = [0.2, 0.4, 0.8, 0.95, 0.97, 0.98]
        assert detect_knee(xs, ys) == 8.0

    def test_straight_line_has_no_knee(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert detect_knee(xs, [2 * x for x in xs]) is None

    def test_flat_series_has_no_knee(self):
        assert detect_knee([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None

    def test_short_series_has_no_knee(self):
        assert detect_knee([1.0, 2.0], [1.0, 9.0]) is None


class _StubResult:
    """Stands in for a simulation result: the grid tests need only keys."""

    ipc = 1.0
    cycles = 1


class TestFigureGridsMatchCommittedSpecs:
    """The Table IV-VI specs are the figures' grids, point for point.

    Each driver's ``simulate_many`` requests are recorded and compared
    with the committed spec's expansion, so the spec files cannot drift
    from the figures they claim to reproduce.
    """

    @pytest.mark.parametrize("driver, spec_file", [
        (fig3_fig4_memory_sweep, "table4_memory.toml"),
        (fig5_cache_size, "table5_cache.toml"),
        (fig9_branch_prediction, "table6_predictor.toml"),
    ])
    def test_driver_grid_equals_committed_spec(
        self, driver, spec_file, small_suite, monkeypatch
    ):
        requested: list[tuple[str, tuple]] = []

        def record(self, requests):
            requests = list(requests)
            requested.extend(
                (trace.name, config_key(config))
                for trace, config, *_ in requests
            )
            return [_StubResult()] * len(requests)

        monkeypatch.setattr(ExperimentContext, "simulate_many", record)
        driver(ExperimentContext(suite=small_suite))
        spec = load_spec(
            Path(__file__).resolve().parents[1] / "examples" / "sweeps"
            / spec_file
        )
        expected = {
            (point.workload, config_key(point.config))
            for point in expand_spec(spec)
        }
        assert len(requested) == len(expected)
        assert set(requested) == expected
