"""CLI behaviour: knob validation and the fuzz subcommand.

Regression (fuzz PR): ``--workers 0`` / ``--partitions 0`` used to reach the
executor/pool constructors and die with a traceback; they must fail at
argument parsing with a usage error (SystemExit 2) instead.
"""

import os

import pytest

from repro.__main__ import main


def _usage_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


class TestKnobValidation:
    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_run_rejects_bad_workers(self, value, capsys):
        _usage_error(["run", "Q10", "--workers", value])
        err = capsys.readouterr().err
        assert "--workers" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_fuzz_rejects_bad_workers(self, value, capsys):
        _usage_error(["fuzz", "--workers", value])
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "1,0,3", "-7", ""])
    def test_fuzz_rejects_bad_partitions(self, value, capsys):
        _usage_error(["fuzz", "--partitions", value])
        err = capsys.readouterr().err
        assert "--partitions" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag", ["--cases", "--depth", "--rows", "--ops"]
    )
    def test_fuzz_rejects_non_positive_counts(self, flag, capsys):
        _usage_error(["fuzz", flag, "0"])
        assert flag in capsys.readouterr().err

    def test_table7_rejects_bad_workers(self, capsys):
        _usage_error(["table7", "--workers", "0"])
        assert "--workers" in capsys.readouterr().err


class TestFuzzCommand:
    def test_small_serial_sweep_exits_zero(self, capsys):
        code = main(
            ["fuzz", "--seed", "4", "--cases", "5", "--backend", "serial"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz sweep seed=4" in out and "OK" in out

    def test_partition_list_is_parsed(self, capsys):
        code = main(
            [
                "fuzz",
                "--seed",
                "1",
                "--cases",
                "3",
                "--backend",
                "serial",
                "--partitions",
                "2,5",
                "--no-questions",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "partitions=2,5" in out

    def test_corpus_dir_written_only_on_divergence(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main(
            [
                "fuzz",
                "--seed",
                "2",
                "--cases",
                "3",
                "--backend",
                "serial",
                "--no-questions",
                "--corpus-dir",
                str(corpus),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert not os.path.exists(corpus)  # clean sweep writes nothing


class TestRunCommand:
    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["run", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == (
            "error: no scenario named 'NOPE' (see `python -m repro list`)"
        )

    def test_mutation_fuzz_reports_service_checks(self, capsys):
        code = main(
            ["fuzz", "--mutations", "--seed", "4", "--cases", "3",
             "--backend", "serial", "--mutation-steps", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "steps=2" in out
        assert "service result checks" in out and "OK" in out


class TestListCommand:
    def test_list_prints_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Q10" in out


class TestServeCommand:
    """The serve subcommand validates its knobs before binding a socket."""

    def test_rejects_bad_cache_size(self, capsys):
        _usage_error(["serve", "--cache-size", "0"])
        err = capsys.readouterr().err
        assert "--cache-size" in err and "Traceback" not in err

    def test_rejects_bad_workers(self, capsys):
        _usage_error(["serve", "--workers", "0"])
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_rejects_bad_processes(self, value, capsys):
        _usage_error(["serve", "--processes", value])
        err = capsys.readouterr().err
        assert "--processes" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_rejects_bad_queue_depth(self, value, capsys):
        _usage_error(["serve", "--queue-depth", value])
        err = capsys.readouterr().err
        assert "--queue-depth" in err and "Traceback" not in err

    def test_rejects_negative_cache_size(self, capsys):
        _usage_error(["serve", "--cache-size", "-1"])
        assert "--cache-size" in capsys.readouterr().err

    def test_help_documents_endpoints_doc(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--port" in out and "--cache-size" in out
        assert "--processes" in out and "--queue-depth" in out
        assert "SERVING.md" in out
