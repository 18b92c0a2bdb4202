import json
from fractions import Fraction

import numpy as np
import pytest

from radonrange import cli, moment, moments, reconstruct, synthesize_moments, theta_grid
from radonrange.bodies import load_tangential
from radonrange.cli import _column, _write_csv, main


def _write_body(tmp_path, doc, name="body.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _assert_rho2_csv_is_the_report(out, body, grid=512, window=None):
    """rho2.csv holds theta and rho^2 at the report's nodes, as ``.17g`` text."""
    data = load_tangential(body)
    report = reconstruct(synthesize_moments(data, 12, n=grid), data.m, window=window)
    thetas = theta_grid(grid)
    rows = [f"{thetas[i]:.17g},{float(v):.17g}"
            for i, v in zip(report.indices, report.rho2_values)]
    assert (out / "rho2.csv").read_text().splitlines() == ["theta,rho2", *rows]


ELLIPSE = {"kind": "ellipse", "a": 2, "b": 1, "tilt": 0.5, "densities": [1]}
PERTURBED = {
    "kind": "perturbed",
    "base": {"kind": "ellipse", "a": 1, "b": 1},
    "eps": 0.05,
    "frequency": 4,
    "densities": [1],
}


class TestDemoDisk:
    def test_passes_with_small_grid(self, tmp_path, capsys):
        code = main(["demo-disk", "--grid", "64", "--K", "4", "--out", str(tmp_path / "out")])
        out = capsys.readouterr()
        assert code == 0
        assert "PASS" in out.out
        assert "skipped 2 tangent line offsets" in out.err
        assert (tmp_path / "out" / "sinogram.csv").exists()
        assert (tmp_path / "out" / "moment_check.csv").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["checks_passed"] is True
        assert summary["max_deviation_inside"] <= 1e-8

    def test_grid_too_small_is_config_error(self, capsys):
        assert main(["demo-disk", "--grid", "8"]) == 64
        assert main(["demo-disk", "--grid", "100"]) == 64  # not a power of two

    def test_outputs_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["demo-disk", "--grid", "64", "--K", "2", "--out", str(a)]) == 0
        assert main(["demo-disk", "--grid", "64", "--K", "2", "--out", str(b)]) == 0
        for name in ("sinogram.csv", "moment_check.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestVerifyIdentities:
    def test_all_pass(self, tmp_path, capsys):
        code = main(["verify-identities", "--m", "3", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        payload = json.loads((tmp_path / "identities.json").read_text())
        assert all(row["passed"] for row in payload["results"])
        assert payload["disk_certificate"]["verdict"] == "pass"

    def test_corrupted_coefficient_table_detected(self, monkeypatch, capsys):
        real = moments.falling_factorial

        def corrupted(k, j):
            value = real(k, j)
            return value + 1 if (k, j) == (6, 2) else value

        monkeypatch.setattr(moments, "falling_factorial", corrupted)
        assert main(["verify-identities", "--m", "3"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestRangeCheck:
    def test_ellipse_passes(self, tmp_path, capsys):
        body = _write_body(tmp_path, ELLIPSE)
        code = main(["range-check", "--body", body, "--K", "6", "--out", str(tmp_path / "o")])
        assert code == 0
        reports = json.loads((tmp_path / "o" / "range_reports.json").read_text())
        assert len(reports) == 7
        assert all(r["verdict"] == "pass" for r in reports)
        moments_csv = (tmp_path / "o" / "moments.csv").read_text().splitlines()
        assert moments_csv[0] == "k,theta,value"

    def test_perturbed_fails(self, tmp_path):
        body = _write_body(tmp_path, PERTURBED)
        assert main(["range-check", "--body", body, "--K", "6"]) == 1

    def test_missing_body_is_config_error(self):
        assert main(["range-check"]) == 64

    def test_unreadable_body_is_config_error(self, tmp_path):
        assert main(["range-check", "--body", str(tmp_path / "nope.json")]) == 64


class TestReconstructCommand:
    def test_ellipse_certified(self, tmp_path, capsys):
        body = _write_body(tmp_path, ELLIPSE)
        code = main(["reconstruct", "--body", body, "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads((tmp_path / "o" / "reconstruction.json").read_text())
        assert report["verdict"] == "ellipse"
        matrix = report["ellipse_matrix"]
        assert matrix[0][1] == pytest.approx(matrix[1][0])
        _assert_rho2_csv_is_the_report(tmp_path / "o", body)

    def test_perturbed_is_non_quadratic(self, tmp_path):
        body = _write_body(tmp_path, PERTURBED)
        assert main(["reconstruct", "--body", body]) == 1

    def test_m_mismatch_is_config_error(self, tmp_path):
        body = _write_body(tmp_path, {**ELLIPSE, "m": 3})
        assert main(["reconstruct", "--body", body]) == 64

    def test_window_mode(self, tmp_path):
        body = _write_body(tmp_path, ELLIPSE)
        half_width = 0.3926990816987241
        code = main(
            ["reconstruct", "--body", body, f"--window=-{half_width}:{half_width}",
             "--out", str(tmp_path / "o")]
        )
        assert code == 0
        report = json.loads((tmp_path / "o" / "reconstruction.json").read_text())
        assert report["verdict"] == "window-only"
        assert report["membership_note"] == "not-locally-testable"
        assert report["quadratic_verdict"] is None
        _assert_rho2_csv_is_the_report(tmp_path / "o", body, window=(-half_width, half_width))

    def test_bad_window_is_config_error(self, tmp_path):
        body = _write_body(tmp_path, ELLIPSE)
        assert main(["reconstruct", "--body", body, "--window", "oops"]) == 64

    def test_exact_mode_rejects_float_bodies(self, tmp_path):
        body = _write_body(tmp_path, ELLIPSE)
        assert main(["reconstruct", "--body", body, "--exact"]) == 64

    def test_exact_mode_accepts_rational_disk(self, tmp_path):
        # the body decides the arithmetic; --exact only asserts it, so every
        # output but the run_meta.json sidecar is the same without the flag
        for i, densities in enumerate(([1], ["1/2", "3"])):
            body = _write_body(
                tmp_path,
                {"kind": "trig", "rho2": {"cos": ["9/4"], "sin": [0]}, "densities": densities},
                f"disk{i}.json",
            )
            outs = {}
            for flags in ([], ["--exact"]):
                out = tmp_path / f"out{i}{''.join(flags)}"
                argv = ["reconstruct", "--body", body, "--grid", "64", "--out", str(out)]
                assert main(argv + flags) == 0
                outs[tuple(flags)] = {
                    p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_meta.json"
                }
            assert set(outs[()]) == {"reconstruction.json", "rho2.csv"}
            assert outs[()] == outs[("--exact",)]

    def test_excess_degeneracy_exits_two(self, tmp_path):
        # p_0 = q_0 vanishes on a quarter of the grid: over the 5% budget
        density = ["1", "0", "1", "1", "1", "0", "1", "1"]
        body = _write_body(
            tmp_path,
            {
                "kind": "sampled",
                "values": ["1"] * 8,
                "densities": [density],
            },
        )
        assert main(["reconstruct", "--body", body]) == 2

    def test_grid_flag_controls_sample_count(self, tmp_path):
        body = _write_body(tmp_path, ELLIPSE)
        code = main(
            ["reconstruct", "--body", body, "--grid", "128", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        report = json.loads((tmp_path / "o" / "reconstruction.json").read_text())
        assert report["grid_size"] == 128


class TestExactMembership:
    def test_nearly_round_rational_body_is_not_an_ellipse(self, tmp_path):
        values = ["1"] * 64
        values[5] = values[37] = "100001/100000"
        body = _write_body(tmp_path, {"kind": "sampled", "values": values, "densities": [1]})
        assert main(["reconstruct", "--body", body, "--exact", "--grid", "64"]) == 1
        assert main(["range-check", "--body", body, "--exact", "--K", "3", "--grid", "64"]) == 1

    def test_undecided_membership_is_refused(self, tmp_path, capsys):
        # rho = 2 + cos(2 theta) on 12 nodes: rho^2 and p_2 are rational and
        # not constant, and n / 6 = 2 is an allowed frequency at degree 2
        values = ["3", "5/2", "3/2", "1", "3/2", "5/2"] * 2
        body = _write_body(tmp_path, {"kind": "sampled", "values": values, "densities": [1]})
        assert main(["reconstruct", "--body", body, "--exact"]) == 64
        assert main(["range-check", "--body", body, "--exact", "--K", "1"]) == 64
        assert capsys.readouterr().err.count("membership at degree 2 is not decided") == 2


class TestPerturbationStudy:
    def test_separation_holds(self, tmp_path, capsys):
        code = main(["perturbation-study", "--grid", "64", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        rows = (tmp_path / "perturbation.csv").read_text().splitlines()
        assert rows[0] == "eps,frequency,forbidden_ratio,membership,relative_residual"
        assert len(rows) == 4
        assert all("fail" in row for row in rows[1:])


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 64

    def test_bad_tolerance(self):
        assert main(["demo-disk", "--tol", "-1"]) == 64

    def test_bad_m(self):
        assert main(["verify-identities", "--m", "0"]) == 64

    @pytest.mark.parametrize("command, flag", [
        ("demo-disk", ["--m", "2"]),
        ("demo-disk", ["--exact"]),
        ("verify-identities", ["--grid", "64"]),
        ("verify-identities", ["--K", "4"]),
        ("verify-identities", ["--tol", "1e-8"]),
        ("verify-identities", ["--exact"]),
        ("range-check", ["--m", "2"]),
        ("perturbation-study", ["--m", "2"]),
        ("perturbation-study", ["--exact"]),
        ("reconstruct", ["--m", "2"]),
    ])
    def test_flag_the_command_does_not_read(self, command, flag, capsys):
        assert main([command, *flag]) == 64
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance(self, value, capsys):
        assert main(["demo-disk", "--tol", value]) == 64
        assert "--tol must be positive and finite" in capsys.readouterr().err

    def test_nan_tolerance_on_reconstruct(self, tmp_path, capsys):
        body = _write_body(tmp_path, {"kind": "ellipse", "a": 2, "b": 1, "tilt": 0.3})
        assert main(["reconstruct", "--body", body, "--tol", "nan"]) == 64
        assert "--tol must be positive and finite" in capsys.readouterr().err

    def test_nan_eps(self, capsys):
        assert main(["perturbation-study", "--grid", "64", "--eps", "0.05", "nan"]) == 64
        assert "--eps must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "densities", [[float("nan")], [float("inf")], [[1.0, float("-inf")] * 4]]
    )
    def test_non_finite_body_scalar(self, tmp_path, densities, capsys):
        body = _write_body(tmp_path, {**ELLIPSE, "densities": densities})
        assert main(["range-check", "--body", body]) == 64
        assert "is not finite" in capsys.readouterr().err


def _fmt_reference(x) -> str:
    """The per-value CSV formatter the column writer must reproduce."""
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _csv_reference(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_reference(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    FLOATS = np.array(
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 1 / 3, 2.0**60, 0.1]
    )

    def test_columns_match_the_row_wise_reference(self, tmp_path):
        n = len(self.FLOATS)
        ints = list(range(-3, n - 3))
        fracs = [Fraction(i, 7) for i in range(n)]
        words = ["pass" if i % 2 else "fail" for i in range(n)]
        mixed = [1, 2.5, Fraction(1, 3), "x", -0.0, np.float64(0.25), np.int64(7), True, 1e-7]
        mixed += [-2, 3]
        header = ("f", "i", "q", "s", "mixed")
        _write_csv(
            tmp_path / "a.csv",
            header,
            [tuple(_column(c) for c in (self.FLOATS, ints, fracs, words, mixed))],
        )
        rows = list(zip(self.FLOATS.tolist(), ints, fracs, words, mixed))
        assert (tmp_path / "a.csv").read_text(encoding="utf-8") == _csv_reference(header, rows)

    def test_blocks_concatenate_in_order(self, tmp_path):
        theta = _column(self.FLOATS[:4])
        blocks = (([str(k)] * 4, theta, _column(self.FLOATS[4:8] * k)) for k in (0, 2, 4))
        _write_csv(tmp_path / "b.csv", ("k", "theta", "value"), blocks)
        rows = [
            (k, t, v)
            for k in (0, 2, 4)
            for t, v in zip(self.FLOATS[:4].tolist(), (self.FLOATS[4:8] * k).tolist())
        ]
        assert (tmp_path / "b.csv").read_text() == _csv_reference(("k", "theta", "value"), rows)

    def test_empty_block_writes_the_header_only(self, tmp_path):
        _write_csv(tmp_path / "c.csv", ("a", "b"), [([], [])])
        assert (tmp_path / "c.csv").read_text() == "a,b\n"


class TestRangeCheckOutputs:
    @pytest.mark.parametrize(
        "doc, grid",
        [
            (ELLIPSE, 128),
            ({**PERTURBED, "densities": [1, {"cos": [0.5, 0, 0.1], "sin": [0, 0, 0.05]}]}, 128),
            ({"kind": "ellipse", "a": "3/2", "b": "3/2", "densities": ["1/3", "2/5"]}, 64),
        ],
    )
    def test_moments_csv_equals_the_per_order_rows(self, tmp_path, doc, grid):
        body = _write_body(tmp_path, doc)
        out = tmp_path / "o"
        main(["range-check", "--body", body, "--K", "6", "--grid", str(grid), "--out", str(out)])
        data = load_tangential(body)
        thetas = theta_grid(grid)
        rows = []
        for k in range(7):
            vals = np.asarray(moment(data, 2 * k, grid).values, dtype=float)
            rows.extend((2 * k, float(thetas[i]), float(vals[i])) for i in range(grid))
        expected = _csv_reference(("k", "theta", "value"), rows)
        assert (out / "moments.csv").read_text(encoding="utf-8") == expected

    def test_pinned_grid_too_small_fails_before_any_moment(self, tmp_path, monkeypatch, capsys):
        values = ["1", "3/2", "2", "5/2", "2", "3/2"] * 2  # 12 nodes, period pi
        body = _write_body(tmp_path, {"kind": "sampled", "values": values})

        def no_moments(*args, **kwargs):
            raise AssertionError("moments computed before the grid was checked")

        monkeypatch.setattr(cli, "even_moments", no_moments)
        assert main(["range-check", "--body", body, "--K", "12"]) == 64
        err = capsys.readouterr().err
        assert "grid of 12 samples" in err and "--K 12" in err

    def test_pinned_grid_large_enough_still_runs(self, tmp_path):
        values = ["1", "3/2", "2", "5/2", "3", "5/2", "2", "3/2", "1", "1"] * 2  # 20 nodes
        body = _write_body(tmp_path, {"kind": "sampled", "values": values})
        assert main(["range-check", "--body", body, "--K", "2"]) == 1  # degree 4 = 8K + 4 samples
        assert main(["range-check", "--body", body, "--K", "3"]) == 64


class TestOverflowingMoments:
    """A finite body whose float moments overflow is a clean degenerate exit
    (code 2) naming the order, not a verdict or a misleading input error."""

    HUGE = {"kind": "ellipse", "a": 1e200, "b": 1}

    @pytest.mark.parametrize("command", ["range-check", "reconstruct"])
    def test_exits_two_naming_the_order(self, tmp_path, command, capsys):
        body = _write_body(tmp_path, self.HUGE)
        assert main([command, "--body", body, "--K", "4", "--grid", "64"]) == 2
        out = capsys.readouterr()
        assert "moment p_2 is not finite" in out.err
        assert "FAIL" not in out.out and "not even" not in out.err

    @pytest.mark.parametrize("tilt", [0, 0.5])
    @pytest.mark.parametrize("command", ["range-check", "reconstruct"])
    def test_large_ellipse_is_not_an_input_error(self, tmp_path, command, tilt, capsys):
        # rho^2 samples of a 1e100 x 1 ellipse cancel to 0 at theta = pi/2
        # in floats; the body is still positive, and its moments overflow
        body = _write_body(tmp_path, {"kind": "ellipse", "a": 1e100, "b": 1, "tilt": tilt})
        assert main([command, "--body", body, "--K", "3", "--grid", "64"]) == 2
        assert "moment p_4 is not finite" in capsys.readouterr().err

    def test_overflow_at_a_higher_order(self, tmp_path, capsys):
        body = _write_body(tmp_path, {"kind": "trig", "rho2": {"cos": [1e200]}})
        assert main(["range-check", "--body", body, "--K", "4", "--grid", "64"]) == 2
        assert "moment p_4 is not finite" in capsys.readouterr().err


class TestRangeCheckGridBeforeMoments:
    """The 8K + 4 samples a moment tested on its samples needs are checked
    before any moment is computed; exact trig forms need no samples."""

    @staticmethod
    def _no_moments(monkeypatch):
        def no_moments(*args, **kwargs):
            raise AssertionError("moments computed before the grid was checked")

        monkeypatch.setattr(cli, "even_moments", no_moments)

    @pytest.mark.parametrize("doc", [
        {"kind": "ellipse", "a": 2, "b": 1, "densities": [1, 1]},  # odd powers of rho
        ELLIPSE,  # float trig forms are tested on samples
    ])
    def test_too_small_grid_fails_before_any_moment(self, tmp_path, monkeypatch, capsys, doc):
        body = _write_body(tmp_path, doc)
        self._no_moments(monkeypatch)
        assert main(["range-check", "--body", body, "--grid", "64", "--K", "12"]) == 64
        err = capsys.readouterr().err
        assert "grid of 64 samples" in err and "--K 12" in err and ">= 100" in err

    @pytest.mark.parametrize("doc", [
        {"kind": "trig", "rho2": {"cos": ["9/4"]}, "densities": ["1/2", "3"]},
        {"kind": "ellipse", "a": 2, "b": 1, "densities": [1]},
    ])
    def test_exact_trig_forms_still_pass_at_grid_64(self, tmp_path, doc):
        body = _write_body(tmp_path, doc)
        assert main(["range-check", "--body", body, "--grid", "64", "--K", "12"]) == 0


class TestOutputSchema:
    """Each command writes each value once: per-node data to CSV, scalars,
    verdicts and spectra to one-line JSON with sorted keys."""

    RUNS = {
        "demo-disk": (["--grid", "64", "--K", "2"], {
            "sinogram.csv": "theta,p,value",
            "moment_check.csv": "k,exact,distributional,mollified,mollified_error",
            "summary.json": {"checks_passed", "grid", "lines", "max_deviation_inside",
                             "max_deviation_outside", "tolerance"},
        }),
        "verify-identities": (["--m", "2"], {
            "identities.json": {"disk_certificate", "m_max", "results"},
        }),
        "range-check": (["--body", "BODY", "--grid", "64", "--K", "2"], {
            "moments.csv": "k,theta,value",
            "range_reports.json": {"allowed_energy", "degree", "forbidden_energy",
                                   "residual_spectrum", "tol", "verdict"},
        }),
        "reconstruct": (["--body", "BODY", "--grid", "64"], {
            "rho2.csv": "theta,rho2",
            "reconstruction.json": {"degenerate_indices", "ellipse_matrix", "grid_size",
                                    "max_residual", "membership_note", "notes",
                                    "quadratic_verdict", "residual_scale", "rho2_poly",
                                    "verdict", "window"},
        }),
        "perturbation-study": (["--grid", "64"], {
            "perturbation.csv": "eps,frequency,forbidden_ratio,membership,relative_residual",
        }),
    }
    CERTIFICATE_KEYS = {"arithmetic", "determinants", "grid_size", "m", "max_abs_determinant",
                        "verdict"}

    def test_files_keys_and_encoding(self, tmp_path):
        body = _write_body(tmp_path, ELLIPSE)
        for command, (flags, expected) in self.RUNS.items():
            out = tmp_path / command
            argv = [command, *(body if f == "BODY" else f for f in flags), "--out", str(out)]
            assert main(argv) == 0, command
            expected = {**expected, "run_meta.json": {"argv", "version"}}
            assert {p.name for p in out.iterdir()} == set(expected), command
            for name, schema in expected.items():
                text = (out / name).read_text(encoding="utf-8")
                if name.endswith(".csv"):
                    assert text.splitlines()[0] == schema, name
                    continue
                payload = json.loads(text)
                assert text == json.dumps(payload, sort_keys=True) + "\n", name
                for record in payload if isinstance(payload, list) else [payload]:
                    assert set(record) == schema, name
        identities = json.loads((tmp_path / "verify-identities" / "identities.json").read_text())
        certificate = identities["disk_certificate"]
        assert set(certificate) == self.CERTIFICATE_KEYS
        assert certificate["max_abs_determinant"] == "16"  # exact, as text


def _sampled_ellipse(offset):
    """rho of the a = 4, b = 1 ellipse at n = 256, ``offset`` added to the second half."""
    n = 256
    thetas = theta_grid(n)
    rho = np.sqrt(16 * np.cos(thetas) ** 2 + np.sin(thetas) ** 2)
    rho[n // 2:] += offset
    densities = [{"cos": [1 + 0.1 * j, 0, 0.2]} for j in range(2)]
    return {"kind": "sampled", "values": rho.tolist(), "m": 2, "densities": densities}


class TestEvenWithinTolerance:
    """A body that passes the evenness check is stored exactly even, so the
    odd part it was allowed cannot grow in the moments' powers."""

    @pytest.mark.parametrize("doc", [
        _sampled_ellipse(5e-10),
        {"kind": "trig", "rho2": {"cos": [2, 5e-10, 0.5]}, "m": 2,
         "densities": [1, {"cos": [1, 0, 0.2]}]},
    ], ids=["sampled", "trig"])
    def test_certifies(self, tmp_path, doc, capsys):
        body = _write_body(tmp_path, doc)
        assert main(["reconstruct", "--body", body]) == 0
        assert "verdict: ellipse" in capsys.readouterr().out

    def test_outside_the_tolerance_is_an_input_error(self, tmp_path, capsys):
        body = _write_body(tmp_path, _sampled_ellipse(1e-6))
        assert main(["reconstruct", "--body", body]) == 64
        assert "sampled support function must be even" in capsys.readouterr().err
