"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestEntryPoint:
    def test_console_script_is_named_like_the_parser(self):
        """``pip install .`` must create the command every doc tells users to run."""
        tomllib = pytest.importorskip("tomllib")
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {build_parser().prog: "repro.cli:main"}
        assert build_parser().prog == "repro-amoeba"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--output", "out.jsonl"])
        assert args.dataset == "tor"
        assert args.flows == 200

    def test_attack_arguments(self):
        args = build_parser().parse_args(
            ["attack", "--dataset", "v2ray", "--censor", "RF", "--timesteps", "500"]
        )
        assert args.censor == "RF"
        assert args.timesteps == 500
        assert args.workers == 0  # in-process collection by default

    def test_attack_workers_flag(self):
        args = build_parser().parse_args(["attack", "--workers", "2"])
        assert args.workers == 2

    def test_attack_has_no_pipeline_flag(self):
        # Training is synchronous PPO; there is no double-buffered schedule.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["attack", "--workers", "2", "--pipeline"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "--workers", "2", "--transport", "tcp"],
            ["worker-host", "--bind", "127.0.0.1:0"],
        ],
    )
    def test_no_tcp_worker_tier(self, argv):
        # Workers are forks of the driver; there is no TCP placement.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "--telemetry-port", "0"],
            ["serve", "--policy", "p.npz", "--telemetry-port", "0"],
            ["top"],
            ["telemetry"],
            ["telemetry", "--mode", "serve"],
        ],
    )
    def test_no_live_telemetry_service(self, argv):
        # There is no telemetry tier: no driver serves /metrics, no terminal
        # view polls it and no subcommand renders a summary of it.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_invalid_censor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--censor", "XGB"])

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--policy", "p.npz", "--sessions", "12", "--max-batch", "4"]
        )
        assert args.policy == "p.npz"
        assert args.sessions == 12
        assert args.max_batch == 4
        assert args.deadline_ms is None

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--transport", "tcp"]])
    def test_serve_has_no_worker_flags(self, flag):
        # One process serves; scale-out is independent serve processes.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--policy", "p.npz", *flag])
        assert excinfo.value.code == 2

    def test_serve_requires_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    @pytest.mark.parametrize("deadline", ["-1", "nan"])
    def test_serve_refuses_a_bad_deadline_before_loading(self, tmp_path, deadline):
        # Refused while building the config, before the checkpoint is read.
        missing = str(tmp_path / "missing.npz")
        with pytest.raises(SystemExit, match="deadline_ms"):
            main(["serve", "--policy", missing, "--deadline-ms", deadline])

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["--sessions", "0"], "n_sessions"),
            (["--max-packets", "-3"], "max_packets"),
            (["--max-packets", "0"], "max_packets"),
            (["--arrival-rate", "nan"], "arrival_rate_pps"),
        ],
    )
    def test_serve_refuses_a_bad_workload_before_loading(self, tmp_path, argv, name):
        # A message, not a traceback, and before the checkpoint is read.
        missing = str(tmp_path / "missing.npz")
        with pytest.raises(SystemExit, match=f"serve: {name}"):
            main(["serve", "--policy", missing, *argv])

    @pytest.mark.parametrize(
        "content,message",
        [
            (None, "No such file or directory"),
            ('{"sizes": [100.0], "delays": [0.0]}\n{not json\n', ":2: Expecting property name"),
            ('{"delays": [0.0]}\n', ":1: a flow needs the key 'sizes'"),
            ('{"sizes": [100.0, -5.0], "delays": [0.0]}\n', ":1: sizes and delays must have equal length"),
        ],
    )
    def test_serve_refuses_bad_profiles_before_loading(self, tmp_path, content, message):
        # A message, not a traceback, and before the checkpoint is read.
        profiles = tmp_path / "profiles.jsonl"
        if content is not None:
            profiles.write_text(content)
        missing = str(tmp_path / "missing.npz")
        with pytest.raises(SystemExit, match=f"^serve: .*{re.escape(message)}"):
            main(["serve", "--policy", missing, "--profiles", str(profiles)])

    @pytest.mark.parametrize("rate", ["-0.5", "nan", "1.5"])
    def test_generate_refuses_a_bad_drop_rate(self, tmp_path, rate):
        output = tmp_path / "flows.jsonl"
        with pytest.raises(SystemExit, match="generate: drop_rate"):
            main(["generate", "--flows", "4", "--drop-rate", rate, "--output", str(output)])
        assert not output.exists()

    def test_serve_has_no_backend_flag(self):
        # There is one executor; nothing selects another.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--policy", "p.npz", "--backend", "blocked"])
        assert excinfo.value.code == 2

    def test_subcommands_are_pinned(self, capsys):
        import argparse

        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(subparsers.choices) == [
            "attack", "backends", "evaluate-censors", "generate", "info", "serve",
        ]
        with pytest.raises(SystemExit):
            parser.parse_args(["--help"])
        assert "telemetry" not in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0


class TestCommands:
    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Amoeba" in out
        assert "CUMUL" in out

    def test_info_points_at_files_that_exist(self, capsys):
        import re
        from pathlib import Path

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        paths = re.findall(r"[\w./-]+\.md\b", out)
        assert paths, "info names no document"
        root = Path(__file__).resolve().parents[1]
        assert [p for p in paths if not (root / p).is_file()] == []
        for pattern in re.findall(r"benchmarks/[\w*]+\.py", out):
            assert list(root.glob(pattern)), pattern

    def test_generate_command_writes_file(self, tmp_path, capsys):
        output = tmp_path / "flows.jsonl"
        code = main(
            ["generate", "--dataset", "tor", "--flows", "10", "--max-packets", "15", "--output", str(output)]
        )
        assert code == 0
        assert output.exists()
        assert "wrote 20 flows" in capsys.readouterr().out

    def test_evaluate_censors_command(self, capsys):
        code = main(
            [
                "evaluate-censors",
                "--dataset",
                "tor",
                "--flows",
                "30",
                "--max-packets",
                "16",
                "--censors",
                "DT",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DT" in out and "accuracy" in out

    def test_attack_command_small(self, tmp_path, capsys):
        policy_path = tmp_path / "policy.npz"
        adversarial_path = tmp_path / "adv.jsonl"
        code = main(
            [
                "attack",
                "--dataset",
                "tor",
                "--flows",
                "30",
                "--max-packets",
                "16",
                "--censor",
                "DT",
                "--timesteps",
                "150",
                "--eval-flows",
                "3",
                "--workers",
                "2",
                "--save-policy",
                str(policy_path),
                "--save-adversarial",
                str(adversarial_path),
            ]
        )
        assert code == 0
        assert adversarial_path.exists()
        out = capsys.readouterr().out
        assert "asr" in out

    @staticmethod
    def _policy(path, metadata=None):
        import numpy as np

        from repro.core import GaussianActor, StateEncoder
        from repro.nn.serialization import save_state_dict

        rng = np.random.default_rng(0)
        encoder = StateEncoder(hidden_size=8, num_layers=2, rng=rng)
        actor = GaussianActor(state_dim=16, hidden_dims=(16,), rng=rng)
        state = {}
        for prefix, module in (("actor", actor), ("encoder", encoder)):
            for name, value in module.state_dict().items():
                state[f"{prefix}.{name}"] = value
        save_state_dict(state, path, metadata=metadata)

    def test_serve_command_small(self, tmp_path, capsys):
        policy_path = tmp_path / "policy.npz"
        self._policy(policy_path)

        code = main(
            [
                "serve",
                "--policy",
                str(policy_path),
                "--sessions",
                "6",
                "--max-packets",
                "8",
                "--max-batch",
                "4",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decisions_per_s" in out and "fallback_rate" in out

    def test_serve_reports_a_missing_checkpoint(self, tmp_path):
        missing = tmp_path / "missing.npz"
        with pytest.raises(SystemExit, match="^serve: .*No such file or directory"):
            main(["serve", "--policy", str(missing), "--sessions", "2", "--max-packets", "4"])

    @pytest.mark.parametrize("damage", ["truncated", "empty", "nan"])
    def test_serve_reports_an_unservable_checkpoint_in_one_line(self, tmp_path, damage):
        import numpy as np

        from repro.nn.serialization import load_state_dict, save_state_dict

        policy_path = tmp_path / "policy.npz"
        self._policy(policy_path)
        data = policy_path.read_bytes()
        if damage == "truncated":
            policy_path.write_bytes(data[: len(data) // 2])
        elif damage == "empty":
            policy_path.write_bytes(b"")
        else:
            state = load_state_dict(policy_path)
            state["actor.log_std"] = np.full_like(state["actor.log_std"], np.nan)
            save_state_dict(state, policy_path)
        with pytest.raises(SystemExit) as raised:
            main(["serve", "--policy", str(policy_path), "--sessions", "2", "--max-packets", "4"])
        message = str(raised.value.code)
        assert message.startswith("serve: ") and "\n" not in message
        expected = "actor.log_std is not finite" if damage == "nan" else "is not a readable checkpoint"
        assert expected in message

    def test_serve_reads_generate_output_as_profiles(self, tmp_path, capsys):
        # ``generate --output`` writes a dataset header line first.
        flows_path = tmp_path / "flows.jsonl"
        assert main(["generate", "--flows", "6", "--output", str(flows_path), "--seed", "3"]) == 0
        policy_path = tmp_path / "policy.npz"
        self._policy(policy_path)
        argv = ["serve", "--policy", str(policy_path), "--sessions", "2", "--max-packets", "4"]
        assert main([*argv, "--profiles", str(flows_path)]) == 0
        assert f"profiles from {flows_path}" in capsys.readouterr().out

    def test_serve_refuses_truncated_generate_output(self, tmp_path):
        # 20 flows cut to a header and four flows: a message before the
        # checkpoint is read, not a four-profile database.
        flows_path = tmp_path / "flows.jsonl"
        assert main(["generate", "--flows", "20", "--output", str(flows_path), "--seed", "3"]) == 0
        lines = flows_path.read_text().splitlines(keepends=True)
        flows_path.write_text("".join(lines[:5]))
        missing = str(tmp_path / "missing.npz")
        expected = f"^serve: {re.escape(str(flows_path))}: the header declares {len(lines) - 1} flows, the file holds 4$"
        with pytest.raises(SystemExit, match=expected):
            main(["serve", "--policy", missing, "--profiles", str(flows_path)])

    def test_serve_refuses_a_policy_trained_on_another_size_scale(self, tmp_path, capsys):
        policy_path = tmp_path / "policy.npz"
        self._policy(policy_path, metadata={"size_scale": 16384.0, "max_delay_ms": 100.0})
        argv = ["serve", "--policy", str(policy_path), "--sessions", "2", "--max-packets", "4"]
        with pytest.raises(SystemExit, match="serve: checkpoint was trained with size_scale=16384.0"):
            main(argv)
        assert main(argv + ["--dataset", "v2ray"]) == 0

    @pytest.mark.parametrize("workers", ["3", "-1"])
    def test_attack_bad_workers_fail_before_the_dataset_build(self, workers, monkeypatch):
        import repro.cli
        from repro.core import AmoebaConfig

        def no_dataset(*args, **kwargs):
            raise AssertionError("the dataset was built before --workers was checked")

        monkeypatch.setattr(repro.cli, "run_experiment", no_dataset)
        with pytest.raises(SystemExit) as excinfo:
            main(["attack", "--workers", workers])
        message = str(excinfo.value.code)
        assert "--workers" in message
        assert f"n_envs={AmoebaConfig().n_envs}" in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["--eval-flows", "0"],
            ["--eval-flows", "-1"],
            ["--timesteps", "0"],
            ["--timesteps", "-5"],
        ],
    )
    def test_attack_bad_budget_fails_before_the_dataset_build(self, argv, monkeypatch):
        import repro.cli

        def no_dataset(*args, **kwargs):
            raise AssertionError(f"the dataset was built before {argv[0]} was checked")

        monkeypatch.setattr(repro.cli, "run_experiment", no_dataset)
        with pytest.raises(SystemExit) as excinfo:
            main(["attack", *argv])
        assert str(excinfo.value.code) == f"{argv[0]} must be >= 1, got {argv[1]}"

    def test_backends_command(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("rc-GEMM kernel:")
        assert "fused-cell kernels:" in out
        from repro.nn import backend as nn_backend

        # One line per hook of the table, in its order, and nothing else:
        # there is one executor, so no list of backends to choose from.
        hooks = re.findall(r"^  hook (\w+): +(compiled|numpy fallback)$", out, re.M)
        assert [name for name, _ in hooks] == list(nn_backend.hook_status())
        assert "backend" not in out

    def test_backends_command_reports_fallback_error(self, capsys, monkeypatch, fresh_blocked):
        # When the compiled kernel is unavailable the diagnostic must surface
        # the recorded compile/loader error verbatim, and every hook runs
        # its numpy body.
        from repro.nn import backend as nn_backend

        monkeypatch.setattr(nn_backend, "_KERNEL", None)
        monkeypatch.setattr(nn_backend, "_KERNEL_ERROR", "cc1: fatal error: boom")
        fresh_blocked()
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "rc-GEMM kernel:      einsum fallback" in out
        assert "  compile error: cc1: fatal error: boom\n" in out
        hooks = len(nn_backend._HOOKS)
        assert f"numpy fallback for {hooks} of {hooks} hooks" in out
        assert len(re.findall(r"hook \w+: +numpy fallback", out)) == hooks

    def test_backends_command_names_a_declining_hook(self, capsys, kernel_pack, fresh_blocked):
        from repro.nn import backend as nn_backend

        fresh_blocked(gru_step=lambda compiled: nn_backend._declined)
        with pytest.warns(RuntimeWarning, match="gru_step: RuntimeError: compiled gru_step declined"):
            assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "rc-GEMM kernel:      compiled" in out
        assert f"numpy fallback for 1 of {len(nn_backend._HOOKS)} hooks" in out
        assert "  error: gru_step: RuntimeError: compiled gru_step declined" in out
        assert re.findall(r"hook (\w+): +numpy fallback", out) == ["gru_step"]

    def test_fallback_warning_names_the_failed_hooks(self, capsys, kernel_pack, fresh_blocked, flip_first_bit):
        """A failed self-check announces exactly the hooks it degrades, the
        BPTT step hooks of pre-training and LSTM fit here, and the
        diagnostic reports each."""
        from repro.nn import backend as nn_backend

        fresh_blocked(gru_bptt_step=flip_first_bit, lstm_bptt_step=flip_first_bit)
        with pytest.warns(RuntimeWarning, match="failed their self-check") as caught:
            assert main(["backends"]) == 0
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "gru_bptt_step: RuntimeError" in message and "lstm_bptt_step: RuntimeError" in message
        out = capsys.readouterr().out
        assert "fused-cell kernels:  numpy fallback for 2 of" in out
        assert re.findall(r"hook (\w+): +numpy fallback", out) == ["gru_bptt_step", "lstm_bptt_step"]
