"""Unit tests for the benchmark regression comparator.

``benchmarks/check_regression.py`` gates CI, so its comparator math gets
the same treatment as library code: exact ratio semantics, the
NEW/MISSING non-failure contract, the env-var factor override, the
reference-kernel normalisation, and the usage exit codes.
"""

import importlib.util
import json
import pathlib

import pytest

_MODULE_PATH = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"
)


def _load_module():
    spec = importlib.util.spec_from_file_location("check_regression", _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_regression():
    return _load_module()


#: the reference kernel's mean in exports that do not set one
REFERENCE_MEAN = 0.001


def _export(path, means, reference=REFERENCE_MEAN):
    """Write a minimal pytest-benchmark JSON export mapping name -> mean.

    The reference kernel is added with mean ``reference``; ``None``
    leaves it out.
    """
    means = dict(means)
    if reference is not None:
        means["test_micro_reference_kernel"] = reference
    payload = {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean, "stddev": 0.0}}
            for name, mean in means.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadMeans:
    def test_maps_names_to_means(self, check_regression, tmp_path):
        path = _export(
            tmp_path / "a.json", {"bench_a": 0.5, "bench_b": 0.25}, reference=None
        )
        assert check_regression.load_means(path) == {
            "bench_a": 0.5,
            "bench_b": 0.25,
        }

    def test_empty_export(self, check_regression, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({}))
        assert check_regression.load_means(str(path)) == {}


class TestComparator:
    def test_within_factor_passes(self, check_regression, tmp_path):
        current = _export(tmp_path / "cur.json", {"bench": 0.0019})
        baseline = _export(tmp_path / "base.json", {"bench": 0.001})
        assert check_regression.main(["prog", current, baseline]) == 0

    def test_beyond_factor_fails(self, check_regression, tmp_path, capsys):
        current = _export(tmp_path / "cur.json", {"bench": 0.0021})
        baseline = _export(tmp_path / "base.json", {"bench": 0.001})
        assert check_regression.main(["prog", current, baseline]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_exactly_at_factor_passes(self, check_regression, tmp_path):
        # The contract is strict: ratio must *exceed* the factor to fail.
        current = _export(tmp_path / "cur.json", {"bench": 0.002})
        baseline = _export(tmp_path / "base.json", {"bench": 0.001})
        assert check_regression.main(["prog", current, baseline]) == 0

    def test_new_benchmark_never_fails(self, check_regression, tmp_path, capsys):
        current = _export(tmp_path / "cur.json", {"fresh": 99.0})
        baseline = _export(tmp_path / "base.json", {})
        assert check_regression.main(["prog", current, baseline]) == 0
        assert "NEW" in capsys.readouterr().out

    def test_missing_benchmark_never_fails(self, check_regression, tmp_path, capsys):
        current = _export(tmp_path / "cur.json", {})
        baseline = _export(tmp_path / "base.json", {"retired": 0.001})
        assert check_regression.main(["prog", current, baseline]) == 0
        assert "MISSING" in capsys.readouterr().out

    def test_zero_baseline_mean_is_infinite_ratio(
        self, check_regression, tmp_path
    ):
        current = _export(tmp_path / "cur.json", {"bench": 1e-9})
        baseline = _export(tmp_path / "base.json", {"bench": 0.0})
        assert check_regression.main(["prog", current, baseline]) == 1

    def test_factor_env_override(
        self, check_regression, tmp_path, monkeypatch, capsys
    ):
        current = _export(tmp_path / "cur.json", {"bench": 0.0021})
        baseline = _export(tmp_path / "base.json", {"bench": 0.001})
        monkeypatch.setenv("BENCH_REGRESSION_FACTOR", "3.0")
        assert check_regression.main(["prog", current, baseline]) == 0
        out = capsys.readouterr().out
        assert "3.0x" in out

    def test_only_regressed_names_reported(
        self, check_regression, tmp_path, capsys
    ):
        current = _export(
            tmp_path / "cur.json", {"slow": 0.01, "steady": 0.001}
        )
        baseline = _export(
            tmp_path / "base.json", {"slow": 0.001, "steady": 0.001}
        )
        assert check_regression.main(["prog", current, baseline]) == 1
        out = capsys.readouterr().out
        assert "1 benchmark(s) regressed" in out
        assert "slow" in out


#: every benchmark's baseline mean in the host-normalisation tests
_BASELINE = {"kernel_a": 0.004, "kernel_b": 0.0005, "kernel_c": 0.02}


class TestHostNormalisation:
    def test_uniformly_slower_host_passes(self, check_regression, tmp_path):
        slow = {name: 2.4 * mean for name, mean in _BASELINE.items()}
        current = _export(tmp_path / "cur.json", slow, reference=2.4 * REFERENCE_MEAN)
        baseline = _export(tmp_path / "base.json", _BASELINE)
        assert check_regression.main(["prog", current, baseline]) == 0

    @pytest.mark.parametrize("host", [0.5, 2.4])
    def test_planted_slowdown_fails_on_any_host(
        self, check_regression, tmp_path, capsys, host
    ):
        means = {name: host * mean for name, mean in _BASELINE.items()}
        means["kernel_b"] *= 2.5
        current = _export(
            tmp_path / "cur.json", means, reference=host * REFERENCE_MEAN
        )
        baseline = _export(tmp_path / "base.json", _BASELINE)
        assert check_regression.main(["prog", current, baseline]) == 1
        out = capsys.readouterr().out
        assert "1 benchmark(s) regressed" in out
        assert "kernel_b" in out

    @pytest.mark.parametrize("side", ["current", "baseline"])
    def test_missing_reference_exits_2(
        self, check_regression, tmp_path, capsys, side
    ):
        exports = {
            name: _export(
                tmp_path / f"{name}.json",
                _BASELINE,
                reference=None if name == side else REFERENCE_MEAN,
            )
            for name in ("current", "baseline")
        }
        code = check_regression.main(
            ["prog", exports["current"], exports["baseline"]]
        )
        assert code == 2
        assert f"missing from the {side} export" in capsys.readouterr().out


class TestUsage:
    def test_wrong_argc_exits_2(self, check_regression, capsys):
        assert check_regression.main(["prog"]) == 2
        assert "Usage" in capsys.readouterr().out

    def test_extra_args_exit_2(self, check_regression):
        assert check_regression.main(["prog", "a", "b", "c"]) == 2
