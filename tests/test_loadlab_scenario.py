"""Scenario specs: validation, serialization, fingerprints, the catalog."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import LoadLabError
from repro.loadlab import (
    ArrivalModel,
    LoadProfile,
    Scenario,
    ServerSpec,
    WorkloadMix,
    builtin_scenarios,
    get_scenario,
    load_scenario,
)

SCENARIOS_DIR = Path(__file__).parent.parent / "benchmarks" / "scenarios"


class TestProfiles:
    def test_constant_levels(self):
        levels = LoadProfile(kind="constant", base=3.0, steps=2).levels()
        assert [lvl.intensity for lvl in levels] == [3.0, 3.0]

    def test_ramp_levels(self):
        levels = LoadProfile(kind="ramp", base=1.0, peak=7.0, steps=4).levels()
        assert [lvl.intensity for lvl in levels] == [1.0, 3.0, 5.0, 7.0]

    def test_geometric_levels_double_exactly(self):
        levels = LoadProfile(kind="geometric", base=64.0, peak=512.0,
                             steps=4).levels()
        assert [lvl.intensity for lvl in levels] == pytest.approx(
            [64.0, 128.0, 256.0, 512.0]
        )

    def test_geometric_requires_positive_peak(self):
        with pytest.raises(LoadLabError, match="requires a peak"):
            LoadProfile(kind="geometric", base=2.0)
        with pytest.raises(LoadLabError, match="peak must be > 0"):
            LoadProfile(kind="geometric", base=2.0, peak=-1.0)

    def test_spike_levels(self):
        levels = LoadProfile(kind="spike", base=2.0, peak=9.0, steps=5).levels()
        assert [lvl.intensity for lvl in levels] == [2.0, 2.0, 9.0, 2.0, 2.0]

    def test_diurnal_levels_bounded_and_cyclic(self):
        profile = LoadProfile(kind="diurnal", base=2.0, peak=10.0, steps=8,
                              periods=2)
        intensities = [lvl.intensity for lvl in profile.levels()]
        assert all(2.0 <= value <= 10.0 for value in intensities)
        assert intensities[0] == pytest.approx(2.0)  # troughs at cycle start
        # Two periods over eight steps: the wave repeats after four.
        assert intensities[:4] == pytest.approx(intensities[4:])

    def test_rejects_unknown_kind_and_missing_peak(self):
        with pytest.raises(LoadLabError, match="unknown profile kind"):
            LoadProfile(kind="sawtooth")
        with pytest.raises(LoadLabError, match="requires a peak"):
            LoadProfile(kind="ramp", base=1.0)
        with pytest.raises(LoadLabError, match="steps >= 3"):
            LoadProfile(kind="spike", base=1.0, peak=2.0, steps=2)


class TestValidation:
    def test_rejects_bad_arrival(self):
        with pytest.raises(LoadLabError, match="unknown arrival kind"):
            ArrivalModel(kind="open")

    def test_rejects_all_zero_mix(self):
        with pytest.raises(LoadLabError, match="must not all be zero"):
            WorkloadMix(benign=0.0)

    def test_rejects_negative_mix_weight(self):
        with pytest.raises(LoadLabError, match=">= 0"):
            WorkloadMix(benign=1.0, garbage=-0.1)

    def test_rejects_tiny_holdout(self):
        with pytest.raises(LoadLabError, match="holdout"):
            ServerSpec(holdout=5)

    def test_rejects_removed_frontend_and_transport_keys(self):
        """Specs written when the server had two front ends and two
        transports are refused by name, not silently run on the one left."""
        for key, value in (("frontend", "eventloop"), ("transport", "shm")):
            payload = Scenario(name="old-spec").as_dict()
            payload["server"][key] = value
            with pytest.raises(LoadLabError, match=f"'{key}'"):
                Scenario.from_dict(payload)

    def test_rejects_empty_name_and_bad_knobs(self):
        with pytest.raises(LoadLabError, match="non-empty"):
            Scenario(name="")
        with pytest.raises(LoadLabError, match="sample_period_s"):
            Scenario(name="x", sample_period_s=0.0)
        with pytest.raises(LoadLabError, match="warmup_requests"):
            Scenario(name="x", warmup_requests=-1)

    def test_probabilities_normalize(self):
        mix = WorkloadMix(benign=3.0, garbage=1.0)
        probs = mix.probabilities()
        assert probs["benign"] == pytest.approx(0.75)
        assert probs["garbage"] == pytest.approx(0.25)
        assert sum(probs.values()) == pytest.approx(1.0)


class TestSerialization:
    def test_json_round_trip_is_exact(self):
        scenario = get_scenario("adversarial-mix")
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_fingerprint_ignores_description_only(self):
        base = get_scenario("ramp")
        import dataclasses

        renamed = dataclasses.replace(base, description="something else")
        reseeded = base.with_seed(base.seed + 1)
        assert renamed.fingerprint() == base.fingerprint()
        assert reseeded.fingerprint() != base.fingerprint()

    def test_scaled_changes_durations_not_shape(self):
        base = get_scenario("ramp")
        scaled = base.scaled(0.5)
        assert scaled.profile.level_duration_s == pytest.approx(
            base.profile.level_duration_s * 0.5
        )
        assert [lvl.intensity for lvl in scaled.profile.levels()] == [
            lvl.intensity for lvl in base.profile.levels()
        ]
        with pytest.raises(LoadLabError, match="duration_scale"):
            base.scaled(0.0)

    def test_malformed_payloads_raise_loadlab_error(self):
        with pytest.raises(LoadLabError, match="not valid JSON"):
            Scenario.from_json("{nope")
        with pytest.raises(LoadLabError, match="malformed scenario"):
            Scenario.from_dict({"name": "x", "bogus_field": 1})
        with pytest.raises(LoadLabError, match="cannot read"):
            load_scenario("/nonexistent/spec.json")


class TestCatalog:
    def test_unknown_scenario_lists_the_builtins(self):
        with pytest.raises(LoadLabError, match="smoke-ramp"):
            get_scenario("nope")

    def test_checked_in_specs_match_builtins(self):
        """The JSON specs under benchmarks/scenarios/ are serialized copies
        of the catalog entries — neither representation may drift."""
        specs = sorted(SCENARIOS_DIR.glob("*.json"))
        assert specs, f"no scenario specs in {SCENARIOS_DIR}"
        for path in specs:
            scenario = load_scenario(path)
            builtin = get_scenario(path.stem)
            assert scenario == builtin, f"{path.name} drifted from the catalog"
            assert scenario.fingerprint() == builtin.fingerprint()

    def test_cli_list_prints_every_builtin(self, capsys):
        assert main(["loadlab", "list"]) == 0
        out = capsys.readouterr().out
        for name in builtin_scenarios():
            assert name in out

    def test_cli_unknown_scenario_is_a_clean_error(self, capsys):
        assert main(["loadlab", "run", "definitely-not-a-scenario"]) == 2
        assert "error:" in capsys.readouterr().err
