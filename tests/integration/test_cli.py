"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_list(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "gemm" in out
    assert "sdpa_bert" in out
    assert "polybench" in out and "ml" in out


def test_platforms(capsys):
    code, out = run_cli(capsys, "platforms")
    assert code == 0
    assert "broadwell_sim" in out and "raptorlake_sim" in out
    assert "21 us" in out and "35 us" in out


def test_constants(capsys):
    code, out = run_cli(capsys, "constants", "--platform", "rpl")
    assert code == 0
    assert "B^t_DRAM" in out
    assert "Gflop/s" in out


def test_characterize(capsys):
    code, out = run_cli(capsys, "characterize", "doitgen")
    assert code == 0
    assert "OI" in out
    assert "cap" in out


def test_compile_prints_capped_ir(capsys):
    code, out = run_cli(capsys, "compile", "doitgen")
    assert code == 0
    assert "polyufc.set_uncore_cap" in out
    assert "affine" in out


def test_compare(capsys):
    code, out = run_cli(capsys, "compare", "doitgen")
    assert code == 0
    assert "EDP" in out and "%" in out


def test_sweep(capsys):
    code, out = run_cli(capsys, "sweep", "doitgen")
    assert code == 0
    assert "min EDP" in out


def test_unknown_kernel_raises():
    with pytest.raises(ValueError, match="unknown benchmark"):
        main(["characterize", "not-a-kernel"])


def test_parser_rejects_bad_platform():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["characterize", "gemm", "-p", "skylake"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("command", ["characterize", "compile", "submit"])
def test_negative_cm_timeout_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "atax", "--cm-timeout", "-1"])
    assert exc.value.code == 2
    assert "--cm-timeout: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["characterize", "atax", "--cm-engine", "reference"],
        ["compile", "atax", "--cm-engine", "reference"],
        ["submit", "atax", "--cm-engine", "reference"],
        ["query", "--engine", "reference"],
    ],
    ids=["characterize", "compile", "submit", "query"],
)
def test_the_reference_oracle_is_no_cm_engine(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'reference'" in capsys.readouterr().err


def test_fuzz_smoke(capsys, tmp_path):
    code, out = run_cli(
        capsys, "fuzz", "--time-budget", "2", "--max-cases", "2",
        "--artifacts", str(tmp_path / "artifacts"),
    )
    assert code == 0
    assert "fuzz seed=0" in out
    assert "0 failure(s)" in out


class TestServiceCLI:
    """Smoke tests for serve/submit/status/query (in-process, loopback)."""

    @pytest.fixture()
    def service_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        return tmp_path

    def test_serve_once_answers_one_request_and_exits(
        self, capsys, service_cache, tmp_path
    ):
        import threading

        from repro.service import request_json

        port_file = tmp_path / "port.txt"
        result = {}

        def run():
            result["code"] = main([
                "serve", "--port", "0",
                "--port-file", str(port_file), "--once",
            ])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        for _ in range(200):
            if port_file.exists():
                break
            thread.join(timeout=0.05)
        port = int(port_file.read_text().strip())
        code, body = request_json(f"http://127.0.0.1:{port}/v1/healthz")
        assert code == 200 and body["ok"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result["code"] == 0

    def test_submit_local_and_query(self, capsys, service_cache):
        code, out = run_cli(capsys, "submit", "trisolv")
        assert code == 0
        assert "trisolv/edp completed" in out
        assert "caps=" in out

        code, out = run_cli(capsys, "query", "--benchmark", "trisolv")
        assert code == 0
        assert "trisolv" in out
        assert "1 result(s)" in out

        code, out = run_cli(capsys, "query", "--benchmark", "nothere")
        assert code == 0
        assert "0 result(s)" in out

    def test_submit_malformed_kernel_exits_2(self, capsys, service_cache):
        code = main(["submit", "not-a-kernel"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown benchmark" in captured.err

    def test_status_against_running_server(
        self, capsys, service_cache
    ):
        from repro.service.http import serve_in_thread

        server, base, thread = serve_in_thread(
            store=str(service_cache / "store")
        )
        try:
            code, out = run_cli(
                capsys, "submit", "trisolv", "--url", base,
            )
            assert code == 0
            job_id = out.split()[0]

            code, out = run_cli(capsys, "status", job_id, "--url", base)
            assert code == 0
            assert '"state": "completed"' in out

            code = main(["status", "j99999999", "--url", base])
            captured = capsys.readouterr()
            assert code == 1
            assert "unknown job" in captured.err
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)

    def test_parser_rejects_bad_service_args(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])  # no kernels
        with pytest.raises(SystemExit):
            build_parser().parse_args(["status", "j1"])  # --url required
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--boundedness", "XX"])
