"""Config contract, expression fields, experiment dispatch, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from koblab.cli import (
    ConfigError,
    ExperimentConfig,
    RunReport,
    emit_config,
    emit_plot_data,
    experiment_rng,
    field_from_spec,
    main,
    parse_config,
    parse_field_expression,
    run,
)


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config({"experiment": "verify-ladder", "N": 20})
        assert cfg.depth == 20
        assert cfg.margin == 1e-3
        assert cfg.seed == 0

    def test_cauchy_default_depth(self):
        cfg = parse_config({"experiment": "cauchy-demo"})
        assert cfg.depth == 40

    def test_bad_experiment_names_key(self):
        with pytest.raises(ConfigError, match=r"\$\.experiment"):
            parse_config({"experiment": "bogus"})

    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError, match=r"\$\.frobnicate"):
            parse_config({"experiment": "verify-ladder", "frobnicate": 1})

    def test_json_text_accepted(self):
        cfg = parse_config('{"experiment": "slice-check", "pairs": 3}')
        assert cfg.pairs == 3

    def test_round_trip(self):
        cfg = parse_config(
            {
                "experiment": "visibility-demo",
                "seed": 7,
                "r_nbhd": 0.1,
                "n_curves": 12,
                "lambda": 1.5,
                "kappa": 0.3,
            }
        )
        assert parse_config(emit_config(cfg)) == cfg

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigError, match=r"\$\.N"):
            parse_config({"experiment": "verify-ladder", "N": 0})
        with pytest.raises(ConfigError, match=r"\$\.margin"):
            parse_config({"experiment": "verify-ladder", "margin": 1.5})
        with pytest.raises(ConfigError, match=r"\$\.lambda"):
            parse_config({"experiment": "visibility-demo", "lambda": 0.5})

    def test_domain_key_rejected(self):
        with pytest.raises(ConfigError, match=r"\$\.domain"):
            parse_config({"experiment": "verify-ladder", "domain": {"kind": "ball"}})

    def test_bad_fault_rejected(self):
        with pytest.raises(ConfigError, match=r"\$\.fault"):
            parse_config({"experiment": "verify-ladder", "fault": "gremlins"})


class TestExperimentRng:
    def test_deterministic_and_keyed(self):
        a = experiment_rng(0, "slice-check", 3).uniform()
        b = experiment_rng(0, "slice-check", 3).uniform()
        c = experiment_rng(0, "slice-check", 4).uniform()
        d = experiment_rng(1, "slice-check", 3).uniform()
        assert a == b
        assert a != c and a != d


class TestExpressionFields:
    def test_norm_expression(self):
        field = parse_field_expression("abs2(z1) + abs2(z2)", 2)
        assert field([0.3, 0.4j]) == pytest.approx(0.25)

    def test_conj_and_product(self):
        field = parse_field_expression("z1 * conj(z1)", 1)
        assert field([0.5 + 0.5j]) == pytest.approx(0.5)

    def test_exp_log(self):
        field = parse_field_expression("exp(abs2(z1)) - 1", 1)
        assert field([1.0]) == pytest.approx(math.e - 1)

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigError):
            parse_field_expression("__import__('os')", 2)
        with pytest.raises(ConfigError):
            parse_field_expression("open('x')", 2)
        with pytest.raises(ConfigError):
            parse_field_expression("z3", 2)

    def test_rejects_attribute_access(self):
        with pytest.raises(ConfigError):
            parse_field_expression("z1.real", 1)

    def test_non_real_value_raises_at_evaluation(self):
        field = parse_field_expression("z1", 1)
        with pytest.raises(ConfigError):
            field([0.5j])


class TestFieldSpecs:
    def test_norm2(self):
        assert field_from_spec({"kind": "norm2", "dim": 2})([0.5, 0]) == 0.25

    def test_quadratic(self):
        field = field_from_spec({"kind": "quadratic", "coeffs": [1.0, -1.0]})
        assert field([1.0, 1.0]) == 0.0

    def test_lift(self):
        field = field_from_spec(
            {"kind": "lift", "dim": 3, "base": {"kind": "norm2", "dim": 2}}
        )
        assert field([0, 0, 0.5]) == 0.25

    def test_custom(self):
        field = field_from_spec({"kind": "custom", "dim": 1, "expr": "abs2(z1)"})
        assert field([0.5]) == 0.25

    def test_unknown(self):
        with pytest.raises(ConfigError):
            field_from_spec({"kind": "septic"})


class TestRunExperiments:
    def test_verify_ladder_passes(self, tmp_path):
        cfg = parse_config({"experiment": "verify-ladder", "N": 20})
        report = run(cfg, out_dir=tmp_path, quiet=True)
        assert report.exit_code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "chain_table.csv").exists()
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["chain_table.csv"]

    def test_mutated_ladder_fails(self):
        cfg = parse_config({"experiment": "verify-ladder", "N": 15, "fault": "ladder-base3"})
        report = run(cfg, quiet=True)
        assert report.exit_code == 1
        failing = {c.name for c in report.checks if c.status == "fail"}
        assert "ladder-c" in failing

    def test_zero_budget_indeterminate(self):
        cfg = parse_config({"experiment": "slice-check", "pairs": 2, "budget": 0})
        report = run(cfg, quiet=True)
        assert report.exit_code == 2

    def test_psh_verify_negative_control(self):
        cfg = parse_config(
            {"experiment": "psh-verify", "field": {"kind": "norm2", "dim": 2}, "N": 6}
        )
        report = run(cfg, quiet=True)
        assert report.exit_code == 1
        failed = {c.name for c in report.checks if c.status == "fail"}
        assert "value-at-origin" in failed

    def test_cauchy_demo_sanity(self):
        cfg = parse_config({"experiment": "cauchy-demo", "N": 10})
        report = run(cfg, quiet=True)
        assert report.exit_code == 0
        assert "cauchy_table" in report.artifacts

    def test_cauchy_demo_rejected_candidate(self):
        cfg = parse_config(
            {"experiment": "cauchy-demo", "N": 8, "field": {"kind": "norm2", "dim": 2}}
        )
        report = run(cfg, quiet=True)
        assert report.exit_code == 1
        bad = [c for c in report.checks if c.status == "fail"]
        assert bad and bad[0].name == "u-candidate"
        assert "value-at-origin" in bad[0].detail

    def test_candidate_domain_pipeline(self):
        # the sublevel construction itself works in C^3 even for a field the
        # property suite rejects; the escape table certifies through it
        from koblab.cli import _build_candidate_domain
        from koblab.kobayashi import cauchy_table
        from koblab.ladder import DyadicLadder
        from koblab.psh import norm_squared

        cfg = parse_config({"experiment": "cauchy-demo", "N": 5, "dim": 3})
        ladder = DyadicLadder(5)
        domain, tail_radius = _build_candidate_domain(cfg, norm_squared(2), ladder)
        assert domain.dim == 3 and tail_radius > 1.0
        assert domain.contains([1 / 16, 1 / 256, 0])
        table = cauchy_table(domain, ladder, n=3, depth=5, margin=1e-3)
        assert table.rows[0].upper <= 0.19283124040599234 * (1 + 2e-3)

    @pytest.mark.parametrize("field, names", [
        ({"kind": "norm2", "dim": 2},
         ["u-candidate", "enclosing-radius", "membership", "upper-vs-term",
          "tails-decreasing", "norms-decreasing"]),
        ({"kind": "custom", "dim": 2, "expr": "abs2(z1) + abs2(z2)"},
         ["u-candidate", "enclosing-radius", "lipschitz"]),
    ], ids=["analytic-bound", "no-bound"])
    def test_candidate_sampled_evidence_indeterminate(self, monkeypatch, field, names):
        # the suite rejects every field shipped today, so stub it to accept:
        # the sampled tail radius and a missing Lipschitz bound must never pass
        import koblab.cli as cli
        from types import SimpleNamespace

        monkeypatch.setattr(
            cli, "verify_defining_candidate", lambda u, ladder: SimpleNamespace(accepted=True)
        )
        cfg = parse_config({"experiment": "cauchy-demo", "N": 6, "field": field})
        checks, artifacts = cli._run_cauchy_demo(cfg)
        status = {c.name: c.status for c in checks}
        assert list(status) == names
        assert status["enclosing-radius"] == "indeterminate"
        assert ("cauchy_table" in artifacts) == ("membership" in status)
        if "lipschitz" in status:
            assert status["lipschitz"] == "indeterminate"
        else:
            assert {status[n] for n in names[2:]} == {"pass"}
        report = RunReport(cfg.experiment, tuple(checks), artifacts, cfg, wall_time=0.0)
        assert report.exit_code == 2

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config({"experiment": "slice-check", "pairs": 3, "seed": 11})
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            run(cfg, out_dir=d, quiet=True)
        for name in ("report.json", "slice_pairs.csv"):
            blobs = [(d / name).read_bytes() for d in dirs]
            assert blobs[0] == blobs[1]


class TestEmitPlotData:
    def test_chain_table_contract(self, tmp_path):
        cfg = parse_config({"experiment": "verify-ladder", "N": 40})
        report = run(cfg, quiet=True)
        paths = emit_plot_data(report, tmp_path)
        table = (tmp_path / "chain_table.csv").read_text().splitlines()
        assert table[0] == "nu,term,partial_sum,tail_bound"
        assert len(table) == 41
        assert any(p.name == "chain_table.csv" for p in paths)

    def test_visibility_contract(self, tmp_path):
        cfg = parse_config(
            {"experiment": "visibility-demo", "n_curves": 3, "budget": 20000}
        )
        report = run(cfg, quiet=True)
        emit_plot_data(report, tmp_path)
        lines = (tmp_path / "visibility.csv").read_text().splitlines()
        assert lines[0] == "curve,max_delta"
        assert len(lines) == 4

    def test_empty_report_errors(self, tmp_path):
        report = RunReport(
            experiment="verify-ladder",
            checks=(),
            artifacts={},
            config=ExperimentConfig(experiment="verify-ladder"),
            wall_time=0.0,
        )
        with pytest.raises(ValueError, match="no tabular artifacts"):
            emit_plot_data(report, tmp_path)


class TestMain:
    def test_verify_ladder_exit_zero(self, capsys):
        assert main(["verify-ladder", "--N", "12", "--quiet"]) == 0

    def test_fault_exit_one(self):
        assert main(["verify-ladder", "--N", "12", "--fault", "ladder-base3", "--quiet"]) == 1

    def test_usage_error_exit_three(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 3

    def test_config_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "slice-check", "pairs": 9}))
        code = main(
            ["slice-check", "--config", str(path), "--pairs", "2", "--quiet",
             "--out", str(tmp_path / "out")]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["pairs"] == 2

    def test_experiment_mismatch_exit_three(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "verify-ladder"}))
        assert main(["slice-check", "--config", str(path), "--quiet"]) == 3

    def test_missing_config_file_exit_three(self):
        assert main(["verify-ladder", "--config", "/nonexistent.json", "--quiet"]) == 3

    def test_report_json_excludes_wall_time(self, tmp_path):
        main(["verify-ladder", "--N", "10", "--quiet", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert "wall_time" not in json.dumps(report)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert "wall_time" in meta

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; a fresh interpreter shows
        # what importing the CLI really pulls in
        src = Path(__file__).resolve().parent.parent / "src"
        probe = "import sys, koblab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"
