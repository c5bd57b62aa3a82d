"""The streaming generator: equivalence with the batch pipeline + CLI."""

from __future__ import annotations

import pytest

from repro.datagen import (
    SyntheticConfig,
    build_synthetic_dataset,
    build_synthetic_ott_streamed,
    stream_synthetic_records,
)
from repro.datagen.__main__ import main
from repro.tracking import load_ott_csv


TINY = SyntheticConfig(num_objects=12, duration=400.0, rooms_per_side=6, seed=5)


class TestStreamEquivalence:
    def test_streamed_table_is_identical_to_batch(self):
        batch = build_synthetic_dataset(TINY).ott
        streamed = build_synthetic_ott_streamed(TINY)
        assert list(streamed) == list(batch)  # record ids included

    def test_records_arrive_in_table_order(self):
        previous = None
        seen_ids = set()
        for record in stream_synthetic_records(TINY):
            assert record.record_id not in seen_ids
            seen_ids.add(record.record_id)
            key = (str(record.object_id), record.t_s)
            if previous is not None:
                assert key >= previous
            previous = key

    def test_population_scales_without_rebuilding_earlier_objects(self):
        # Per-object RNG streams: a prefix population is a prefix of the
        # larger population's records (object-wise).
        small = {
            record.object_id: record
            for record in stream_synthetic_records(TINY)
            if record.record_id < 10**9
        }
        bigger_config = SyntheticConfig(
            num_objects=TINY.num_objects + 5,
            duration=TINY.duration,
            rooms_per_side=TINY.rooms_per_side,
            seed=TINY.seed,
        )
        bigger_first = {}
        for record in stream_synthetic_records(bigger_config):
            bigger_first.setdefault(record.object_id, record)
        for object_id, record in small.items():
            assert object_id in bigger_first

    def test_zero_objects_is_empty(self):
        config = SyntheticConfig(
            num_objects=0, duration=100.0, rooms_per_side=6, seed=1
        )
        assert list(stream_synthetic_records(config)) == []


class TestCli:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "ott.csv"
        code = main(
            [
                "--objects",
                "8",
                "--duration",
                "200",
                "--rooms-per-side",
                "6",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "record_id,object_id,device_id,t_s,t_e"
        assert len(lines) > 1
        summary = capsys.readouterr().err
        assert "objects=8" in summary
        assert f"records={len(lines) - 1}" in summary

    def test_csv_loads_back_exactly(self, tmp_path, capsys):
        # Past 10**6 seconds the times need more than six significant
        # digits, so any shortened float format shifts them.
        config = SyntheticConfig(
            num_objects=1, duration=1_001_000.0, rooms_per_side=4, seed=5
        )
        out = tmp_path / "ott.csv"
        argv = ["--objects", "1", "--duration", "1001000", "--rooms-per-side", "4"]
        assert main(argv + ["--seed", "5", "--out", str(out)]) == 0
        expected = list(stream_synthetic_records(config))
        assert expected[-1].t_e > 1e6
        assert list(load_ott_csv(out)) == expected

        tiny = ["--objects", "1", "--duration", "200", "--rooms-per-side", "4"]
        assert main(tiny + ["--seed", "5", "--out", "-"]) == 0
        stdout = tmp_path / "stdout.csv"
        stdout.write_text(capsys.readouterr().out)
        assert list(load_ott_csv(stdout)) == list(
            stream_synthetic_records(
                SyntheticConfig(
                    num_objects=1, duration=200.0, rooms_per_side=4, seed=5
                )
            )
        )

    def test_summary_only_run(self, capsys):
        assert main(
            [
                "--objects",
                "4",
                "--duration",
                "100",
                "--rooms-per-side",
                "6",
            ]
        ) == 0
        assert "objects=4" in capsys.readouterr().err

    def test_scale_knob(self, capsys):
        assert main(
            [
                "--scale",
                "0.004",
                "--duration",
                "100",
                "--rooms-per-side",
                "6",
            ]
        ) == 0
        # 1000 * 0.004 = 4 objects
        assert "objects=4" in capsys.readouterr().err

    def test_rejects_negative_objects(self):
        with pytest.raises(SystemExit):
            main(["--objects", "-1"])
