from __future__ import annotations

import codecs
import itertools
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

import jumpvol as jv
from jumpvol import io as jio
from jumpvol.cli import main
from jumpvol.errors import DataFormatError, ParameterError


def _bom_copy(src, dst):
    """dst: src's bytes after a UTF-8 byte-order mark, as Excel's "CSV UTF-8" saves them."""
    dst.write_bytes(codecs.BOM_UTF8 + src.read_bytes())
    return dst


def write_returns_csv(path, values, timestamps=None):
    lines = ["timestamp,log_return_pct"]
    for i, v in enumerate(values):
        ts = timestamps[i] if timestamps else f"t{i}"
        lines.append(f"{ts},{v!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_returns_mode_passthrough(self, tmp_path):
        path = tmp_path / "r.csv"
        write_returns_csv(path, [0.1, -0.2])
        series = jio.ingest_csv(path, "returns")
        np.testing.assert_array_equal(series.returns, [0.1, -0.2])
        assert series.timestamps == ["t0", "t1"]

    def test_prices_mode_transforms(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("timestamp,price\nd0,100\nd1,101\n", encoding="utf-8")
        series = jio.ingest_csv(path, "prices")
        assert series.returns[0] == pytest.approx(0.995033, abs=5e-7)
        assert series.timestamps == ["d1"]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,close\nd0,100\nd1,101\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 1.*price"):
            jio.ingest_csv(path, "prices")

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,log_return_pct\nd0,0.1\nd1,oops\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3"):
            jio.ingest_csv(path, "returns")

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("timestamp,log_return_pct\nd0,0.1\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="at least 2 data rows"):
            jio.ingest_csv(path, "returns")

    def test_nonpositive_price_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,price\nd0,100\nd1,-3\nd2,101\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3"):
            jio.ingest_csv(path, "prices")

    def test_missing_file(self):
        with pytest.raises(DataFormatError):
            jio.ingest_csv("/nonexistent/file.csv", "returns")

    def test_bytes_that_are_not_utf8_past_the_first_read(self, tmp_path):
        """Rows are parsed as they are read; a bad byte deep in the file is still a data error."""
        path = tmp_path / "bad.csv"
        rows = "".join(f"d{i},0.5\n" for i in range(5000))
        path.write_bytes(f"timestamp,log_return_pct\n{rows}".encode() + b"d,\xff\n")
        with pytest.raises(DataFormatError, match="is not valid UTF-8"):
            jio.ingest_csv(path, "returns")

    def test_bad_mode(self, tmp_path):
        with pytest.raises(ParameterError):
            jio.ingest_csv(tmp_path / "x.csv", "levels")

    def test_extra_columns_and_blank_lines_ok(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(
            "note,timestamp,log_return_pct\nx,d0,0.5\n\nx,d1,-0.25\n", encoding="utf-8"
        )
        series = jio.ingest_csv(path, "returns")
        np.testing.assert_array_equal(series.returns, [0.5, -0.25])


class TestDescribe:
    def test_against_independent_moment_oracle(self):
        gen = np.random.default_rng(2024)
        values = gen.standard_t(5, size=5055) * 0.9 + 0.05
        stats = jio.describe(jv.ReturnsSeries(values))

        n = values.size
        mean = values.sum() / n
        dev = values - mean
        m2 = (dev**2).sum() / n
        m3 = (dev**3).sum() / n
        m4 = (dev**4).sum() / n
        assert stats["n"] == 5055
        assert stats["mean"] == pytest.approx(mean, abs=1e-8)
        assert stats["variance"] == pytest.approx((dev**2).sum() / (n - 1), abs=1e-8)
        assert stats["skewness"] == pytest.approx(m3 / m2**1.5, abs=1e-8)
        assert stats["kurtosis"] == pytest.approx(m4 / m2**2, abs=1e-8)
        assert stats["min"] == values.min() and stats["max"] == values.max()


    def test_tie_statistics(self):
        stats = jio.describe(jv.ReturnsSeries([0.5, 0.0, -0.0, 0.0, 0.5, 0.5, 0.5, 1.0]))
        assert stats["mode_share"] == 0.5  # 0.5 four times of eight; -0.0 equals 0.0
        assert stats["longest_run"] == 3  # the three zeros; 0.5 repeats only twice in a row
        stats = jio.describe(jv.ReturnsSeries([1.0, 2.0, 3.0]))
        assert stats["mode_share"] == 0.0 and stats["longest_run"] == 1


# The intraday law of the acceptance suite at n = 2000, and the ways in which
# real intraday data ties: zero returns scattered through the series, a
# trading halt, and prices quoted in ticks.
def _intraday_returns(alteration):
    y = jv.simulate(jv.SimConfig(
        n=2000, mu=0.0, jump_prob=0.0087, jump_mean=-0.02, jump_sd=0.05,
        nu=30.0, theta=0.002, kappa=0.015, sigma_v=0.002, corr=0.4, seed=3,
    )).returns.returns.copy()
    if alteration == "zeros_40pct":
        y[np.random.default_rng(0).permutation(y.size)[:800]] = 0.0
    elif alteration == "halt_300":
        y[1000:1300] = 0.0
    else:
        y = np.round(y, 2)
    return y


class TestDegenerateData:
    @pytest.mark.parametrize("alteration,statistic", [
        ("zeros_40pct", "mode_share 0.4 exceeds 0.2"),
        ("halt_300", "longest_run 300 exceeds 40"),
    ])
    def test_fit_refuses_tied_returns(self, tmp_path, capsys, alteration, statistic):
        path = tmp_path / "returns.csv"
        write_returns_csv(path, _intraday_returns(alteration).tolist())
        out_dir = tmp_path / "fit"
        assert main(["fit", "--input", str(path), "--output-dir", str(out_dir)]) == 3
        assert statistic in capsys.readouterr().err
        assert not out_dir.exists()

    def test_fit_accepts_returns_rounded_to_ticks(self, tmp_path):
        y = _intraday_returns("rounded")
        stats = jio.describe(jv.ReturnsSeries(y))
        assert 0.05 < stats["mode_share"] < 0.2  # about 10% zeros
        path = tmp_path / "returns.csv"
        write_returns_csv(path, y.tolist())
        out_dir = tmp_path / "fit"
        assert main(["fit", "--input", str(path), "--iterations", "20", "--burn-in", "5",
                     "--output-dir", str(out_dir)]) == 0
        report = jio.read_report_json(out_dir / "report.json")
        assert report["data"]["mode_share"] == stats["mode_share"]
        assert report["data"]["longest_run"] == stats["longest_run"]


class TestSerialization:
    def test_fmt17_round_trips(self):
        for x in (0.1, 1 / 3, math.pi, 1e-300, 1e300, -0.0, 123456789.123456789):
            assert float(jio.fmt17(x)) == x

    def test_fmt17_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            jio.fmt17(math.inf)

    def test_json_round_trip(self, tmp_path):
        payload = {
            "b": [1, 2.5, None, True, "text"],
            "a": {"nested": 0.1, "empty": {}, "list": []},
            "value": 1 / 3,
        }
        path = tmp_path / "x.json"
        jio.write_report_json(path, payload)
        back = jio.read_report_json(path)
        assert back == payload
        # keys are sorted for determinism
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')

    @pytest.mark.parametrize("n_chains", [1, 2], ids=["one_chain", "two_chains"])
    @pytest.mark.parametrize("jumps", [True, False], ids=["jump", "no_jump"])
    def test_draws_round_trip(self, tmp_path, small_sim, jumps, n_chains):
        spec = jv.RunSpec(iterations=30, burn_in=10, thin_lag=2, n_chains=n_chains, seed=3)
        chains = jv.run_multi(small_sim.returns, jv.ModelConfig(jumps_enabled=jumps), spec)
        path = tmp_path / "draws.csv"
        jio.write_draws_csv(path, chains)
        assert path.read_text().splitlines()[0].split(",") == list(chains[0].draws)
        back = jio.read_draws_csv(path)
        for name in chains[0].draws:
            expected = np.concatenate([c.draws[name] for c in chains])
            np.testing.assert_array_equal(back[name], expected)
            assert back[name].dtype == expected.dtype
        retained = np.arange(spec.burn_in + spec.thin_lag, spec.iterations + 1, spec.thin_lag)
        for c in chains:
            np.testing.assert_array_equal(c.draws["iteration"], retained)

    def test_latent_round_trip(self, tmp_path, small_sim):
        spec = jv.RunSpec(iterations=30, burn_in=10, thin_lag=2, seed=3)
        chain = jv.run_chain(small_sim.returns, jv.default_config(), spec)
        path = tmp_path / "latent.csv"
        jio.write_latent_csv(path, chain.latent)
        back = jio.read_latent_csv(path)
        np.testing.assert_array_equal(back.var_mean, chain.latent.var_mean)
        np.testing.assert_array_equal(back.var_lo95, chain.latent.var_lo95)
        np.testing.assert_array_equal(back.mean_mixture, chain.latent.mean_mixture)

    def test_sim_round_trip(self, tmp_path):
        sim = jv.simulate(jv.SimConfig(n=40, seed=5))
        path = tmp_path / "sim.csv"
        jio.write_sim_csv(path, sim)
        back = jio.read_sim_csv(path)
        np.testing.assert_array_equal(back["return"], sim.returns.returns)
        np.testing.assert_array_equal(back["true_v"], sim.true_variance)
        np.testing.assert_array_equal(back["true_N"], sim.true_jump_times)

    def test_non_finite_latent_value_writes_no_file(self, tmp_path):
        latent = jv.LatentSummary(**{name: np.ones(5) for name in jv.model.LATENT_FIELDS})
        latent.sd_hi95[3] = np.nan
        path = tmp_path / "latent.csv"
        with pytest.raises(ParameterError, match="sd_hi95"):
            jio.write_latent_csv(path, latent)
        assert not path.exists()

    @pytest.mark.parametrize("defect,reader", [
        *itertools.product(["wrong_header", "short_row", "non_numeric", "nan", "inf", "1e999"],
                           ["read_draws_csv", "read_latent_csv", "read_sim_csv"]),
        # Only draws files have integer columns.
        ("out_of_range", "read_draws_csv"),
    ])
    def test_reader_errors_name_the_line(self, tmp_path, reader, defect):
        header = {
            "read_draws_csv": ["chain", "iteration", "mu", "log_lik"],
            "read_latent_csv": jio.LATENT_COLUMNS,
            "read_sim_csv": jio.SIM_COLUMNS,
        }[reader]
        row = ["1"] * len(header)
        lines = [list(header), row, row]
        if defect == "wrong_header":
            lines[0] = header[:2] + ["bogus"] + header[3:]
            line_no = 1
        elif defect == "short_row":
            lines[2] = row[:-1]
            line_no = 3
        elif defect == "non_numeric":
            lines[2] = row[:-1] + ["oops"]
            line_no = 3
        elif defect in ("nan", "inf", "1e999"):
            lines[2] = row[:-1] + [defect]
            line_no = 3
        else:
            lines[2] = ["99999999999999999999"] + row[1:]
            line_no = 3
        path = tmp_path / "bad.csv"
        path.write_text("".join(",".join(cells) + "\n" for cells in lines), encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"line {line_no}:") as err:
            getattr(jio, reader)(path)
        if defect == "out_of_range":
            assert "out-of-range chain value '99999999999999999999'" in str(err.value)
        if defect in ("nan", "inf", "1e999"):
            assert f"non-finite {header[-1]} value '{defect}'" in str(err.value)


    def _draws_text(self, newline="\n", final=True):
        lines = ["chain,iteration,mu,log_lik", "0,1,0.25,-10.5", "0,2,-1e-3,-11", "1,1,3,-9.75"]
        return newline.join(lines) + (newline if final else "")

    @pytest.mark.parametrize("newline,final", [("\r\n", True), ("\n", False), ("\r\n", False)])
    def test_reader_line_endings(self, tmp_path, newline, final):
        """CRLF line ends and a missing final newline read like the LF file."""
        lf, other = tmp_path / "lf.csv", tmp_path / "other.csv"
        lf.write_bytes(self._draws_text().encode())
        other.write_bytes(self._draws_text(newline, final).encode())
        want, got = jio.read_draws_csv(lf), jio.read_draws_csv(other)
        assert list(got) == list(want) == ["chain", "iteration", "mu", "log_lik"]
        for name in want:
            assert got[name].dtype == want[name].dtype
            np.testing.assert_array_equal(got[name], want[name])
        assert want["chain"].dtype == np.int64 and want["mu"].dtype == np.float64

    def test_blank_line_is_a_row_of_no_columns(self, tmp_path):
        path = tmp_path / "draws.csv"
        lines = self._draws_text().split("\n")
        path.write_text("\n".join(lines[:2] + [""] + lines[2:]), encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3: expected 4 columns, got 0$"):
            jio.read_draws_csv(path)

    def test_header_only_file_reads_empty_typed_columns(self, tmp_path):
        path = tmp_path / "draws.csv"
        path.write_text("chain,iteration,mu,log_lik\n", encoding="utf-8")
        back = jio.read_draws_csv(path)
        assert [back[name].dtype for name in back] == [np.int64, np.int64, float, float]
        assert all(back[name].size == 0 for name in back)

    @pytest.mark.parametrize("rows,message", [
        # a short row anywhere is named before any non-numeric cell
        (["0,1,x,-1", "0,2,0.5", "0,3,0.5,-1"], "line 3: expected 4 columns, got 3"),
        # the leftmost column with a bad cell is named, at its first bad line
        (["0,1,0.5,y", "0,2,x,-1", "0,3,z,-1"], "line 3: non-numeric mu value 'x'"),
    ])
    def test_reader_names_the_same_defect_in_a_file_with_several(self, tmp_path, rows, message):
        path = tmp_path / "draws.csv"
        path.write_text("\n".join(["chain,iteration,mu,log_lik", *rows]) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=message):
            jio.read_draws_csv(path)

    @pytest.mark.parametrize("short_row", [False, True])
    def test_reader_defects_past_the_first_block(self, tmp_path, short_row):
        """Rows are parsed in blocks; the defect named is the same as in one pass."""
        rows = [f"0,{i},0.5,-1" for i in range(1, 3001)]
        rows[1500] = "0,1501,0.5,oops"   # line 1502
        rows[1600] = "0,1601,nan?,-1"    # line 1602: mu is left of log_lik
        rows[2700] = "0,2701,bad,-1"     # a later block
        if short_row:
            rows[2999] = "0,3000"        # line 3001
        path = tmp_path / "draws.csv"
        path.write_text("\n".join(["chain,iteration,mu,log_lik", *rows]) + "\n", encoding="utf-8")
        message = (
            "line 3001: expected 4 columns, got 2$" if short_row
            else r"line 1602: non-numeric mu value 'nan\?'$"
        )
        with pytest.raises(DataFormatError, match=message):
            jio.read_draws_csv(path)



_DRAWS_INTS = ("chain", "iteration")
_ROWS = ["chain,iteration,mu,log_lik", "0,1,0.25,-10.5", "0,2,-1e-3,-11", "1,1,3,-9.75"]


def _read_outcome(read, path, header=None, ints=()):
    """A reader's columns as (name, dtype, bytes) triples, or its DataFormatError text."""
    try:
        columns = read(path, header, ints)
    except DataFormatError as exc:
        return str(exc)
    return [(name, column.dtype, column.tobytes()) for name, column in columns.items()]


class TestColumnReaders:
    """numpy's reader (_load_columns) against the csv module's scanner (_scan_columns)."""

    @pytest.fixture(scope="class", params=[2, 252, 1200], ids=lambda n: f"n{n}")
    def written(self, request, tmp_path_factory):
        """Every numeric file the package writes, for fits at one series length."""
        n = request.param
        out = tmp_path_factory.mktemp(f"written{n}")
        sim = jv.simulate(jv.SimConfig(n=n, seed=4))
        jio.write_sim_csv(out / "sim.csv", sim)
        files = [(out / "sim.csv", jio.SIM_COLUMNS, ())]
        spec = jv.RunSpec(iterations=30, burn_in=10, seed=6)
        for jumps, n_chains in itertools.product([True, False], [1, 3]):
            chains = jv.run_multi(sim.returns, jv.ModelConfig(jumps_enabled=jumps),
                                  replace(spec, n_chains=n_chains))
            tag = f"{'jump' if jumps else 'no_jump'}{n_chains}"
            jio.write_draws_csv(out / f"draws_{tag}.csv", chains)
            jio.write_latent_csv(out / f"latent_{tag}.csv", chains[0].latent)
            files += [(out / f"draws_{tag}.csv", None, _DRAWS_INTS),
                      (out / f"latent_{tag}.csv", jio.LATENT_COLUMNS, ())]
        return files

    def test_package_files_read_bit_for_bit_without_the_scanner(self, written):
        for path, header, ints in written:
            assert jio._load_columns(path, header, ints) is not None, path.name
            got = _read_outcome(jio._read_columns, path, header, ints)
            assert got == _read_outcome(jio._scan_columns, path, header, ints), path.name
            assert [dtype for _, dtype, _ in got] == [
                np.int64 if name in ints else np.float64 for name, _, _ in got]

    def test_byte_order_mark_is_skipped_by_both_readers(self, written, tmp_path):
        for path, header, ints in written:
            bom = _bom_copy(path, tmp_path / path.name)
            assert jio._load_columns(bom, header, ints) is not None, path.name
            want = _read_outcome(jio._read_columns, path, header, ints)
            assert _read_outcome(jio._read_columns, bom, header, ints) == want, path.name
            assert _read_outcome(jio._scan_columns, bom, header, ints) == want, path.name

    @pytest.mark.parametrize("text", [
        "\n".join(_ROWS[:2] + [""] + _ROWS[2:]) + "\n",
        "\n".join(_ROWS + ["1,2,3#4,-1"]) + "\n",
        "\n".join(_ROWS + ['"1","2","0.5",-1']) + "\n",
        "\n".join(_ROWS + ["1,1_000,2_5.5,-1"]) + "\n",
        *("\n".join(_ROWS + [f"1,2,0.5,{cell}"]) + "\n" for cell in ("nan", "inf", "1e999")),
        "\n".join(_ROWS + ["1.0,2,0.5,-1"]) + "\n",
        "\n".join(_ROWS + [f"1,{2**63},0.5,-1"]) + "\n",
        "\r\n".join(_ROWS) + "\r\n",
        "\n".join(_ROWS),
        ",\n".join(_ROWS) + ",\n",
        "\n".join(_ROWS + ["1,2,0.5"]) + "\n",
        _ROWS[0] + "\n",
        _ROWS[0],
        "",
        "\n".join(_ROWS + ["\n"]),
        "\n".join(_ROWS + ["   "]) + "\n",
        "\n".join(_ROWS + ["1,2,0.5\r,-1"]) + "\n",
        "\r".join(_ROWS) + "\r",
    ], ids=[
        "blank_line", "hash_in_cell", "quoted_cells", "underscores", "nan", "inf", "1e999",
        "float_in_int_column", "int_beyond_int64", "crlf", "no_final_newline", "trailing_comma",
        "short_row", "header_only", "header_only_no_newline", "empty_file", "blank_last_line",
        "line_of_spaces", "lone_cr_in_row", "cr_line_ends",
    ])
    def test_edge_files_read_as_the_scanner_reads_them(self, tmp_path, text):
        path = tmp_path / "draws.csv"
        path.write_bytes(text.encode())
        want = _read_outcome(jio._scan_columns, path, None, _DRAWS_INTS)
        assert _read_outcome(jio._read_columns, path, None, _DRAWS_INTS) == want

    def test_non_utf8_bytes_read_as_the_scanner_reads_them(self, tmp_path):
        path = tmp_path / "draws.csv"
        text = "".join(f"{row}\n" for row in [*_ROWS, *["0,3,0.5,-1"] * 1000]).encode()
        for at in (0, 30, 10_000):  # in the header, the first row and past the first read
            path.write_bytes(text[:at] + b"\xff" + text[at:])
            want = _read_outcome(jio._scan_columns, path, None, _DRAWS_INTS)
            assert "is not valid UTF-8" in want
            assert _read_outcome(jio._read_columns, path, None, _DRAWS_INTS) == want

    @pytest.mark.parametrize("cell", [
        "1", " 7 ", "+7", "-0", "07", "1.0", "1e5", "1.5e", ".5", "5.", "", " ", "\t2\t",
        "9223372036854775807", "9223372036854775808", "-9223372036854775809", "1_000",
        "0x10", "0x1p3", "\u0663", "7\u00a0", "\u2003" "8", "\x1c" "9", "nan", "-Infinity",
        "1e-400", "4.9e-324", "0.1000000000000000055511151231257827021181583404541015625",
        "1d5", "1j", "True", "\x00", "3\x005", "\x1f", "\u0968", "1\u09682",
    ])
    def test_every_cell_parses_as_the_scanner_parses_it(self, tmp_path, cell):
        path = tmp_path / "draws.csv"
        path.write_text(f"chain,mu\n0,0.5\n{cell},{cell}\n", encoding="utf-8")
        want = _read_outcome(jio._scan_columns, path, None, ("chain",))
        assert _read_outcome(jio._read_columns, path, None, ("chain",)) == want

    @pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1025])
    def test_block_writes_equal_one_pass(self, tmp_path, n):
        gen = np.random.default_rng(n)
        columns = {"t": np.arange(1, n + 1), "x": gen.normal(size=n), "y": -gen.random(n)}
        jio._write_columns(tmp_path / "x.csv", columns)
        want = "t,x,y\n" + "".join(
            f"{t},{x:.17g},{y:.17g}\n" for t, x, y in zip(*(c.tolist() for c in columns.values())))
        assert (tmp_path / "x.csv").read_bytes() == want.encode()


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# comment\nnu = 10\n\nomega=0.95  # trailing comment\nno_jumps = true\n",
            encoding="utf-8",
        )
        assert jio.read_config_file(path) == {"nu": "10", "omega": "0.95", "no_jumps": "true"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nu 10\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 1"):
            jio.read_config_file(path)


@pytest.fixture()
def returns_file(tmp_path):
    sim = jv.simulate(jv.SimConfig(n=250, seed=77))
    path = tmp_path / "returns.csv"
    write_returns_csv(path, sim.returns.returns.tolist())
    return path


class TestCliFit:
    def test_draw_count_and_outputs(self, tmp_path, returns_file, capsys):
        out_dir = tmp_path / "fit"
        code = main([
            "fit", "--input", str(returns_file), "--mode", "returns",
            "--iterations", "10", "--burn-in", "0", "--thin", "1",
            "--seed", "3", "--output-dir", str(out_dir),
        ])
        assert code == 0
        draws = jio.read_draws_csv(out_dir / "draws.csv")
        assert draws["mu"].size == 10
        report = jio.read_report_json(out_dir / "report.json")
        assert report["run"]["iterations"] == 10
        assert {p["name"] for p in report["params"]} == {"mu", "jump_prob", "jump_mean", "jump_var"}
        assert "data" in report and report["data"]["n"] == 250
        captured = capsys.readouterr()
        assert "data: n=250" in captured.out

    def test_default_flags_echo_default_config(self, tmp_path, returns_file):
        out_dir = tmp_path / "fit"
        main([
            "fit", "--input", str(returns_file), "--iterations", "10",
            "--burn-in", "0", "--output-dir", str(out_dir),
        ])
        model = jio.read_report_json(out_dir / "report.json")["model"]
        assert model["nu"] == 30.0
        assert model["omega"] == 0.9
        assert model["jump_threshold"] == 0.7
        assert model["a0"] == 0.1 and model["b0"] == 0.1
        assert model["jumps_enabled"] is True
        assert model["priors"]["jump_prob_a"] == 2.0
        assert model["priors"]["jump_prob_b"] == 40.0

    def test_no_jumps_omits_jump_rows(self, tmp_path, returns_file):
        out_dir = tmp_path / "nj"
        code = main([
            "fit", "--input", str(returns_file), "--no-jumps",
            "--iterations", "10", "--burn-in", "0", "--output-dir", str(out_dir),
        ])
        assert code == 0
        report = jio.read_report_json(out_dir / "report.json")
        assert [p["name"] for p in report["params"]] == ["mu"]
        assert report["diagnostics"]["k"] == 4
        header = (out_dir / "draws.csv").read_text().splitlines()[0]
        assert header == "chain,iteration,mu,log_lik"

    def test_config_file_precedence(self, tmp_path, returns_file):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nu = 12\nomega = 0.8\niterations = 10\nburn_in = 0\n")
        out_dir = tmp_path / "cfgfit"
        code = main([
            "fit", "--input", str(returns_file), "--config", str(cfg_file),
            "--omega", "0.95", "--output-dir", str(out_dir),
        ])
        assert code == 0
        model = jio.read_report_json(out_dir / "report.json")["model"]
        assert model["nu"] == 12.0      # from file
        assert model["omega"] == 0.95   # flag overrides file
        assert jio.read_report_json(out_dir / "report.json")["run"]["iterations"] == 10

    def test_unknown_config_keys_exit_2(self, tmp_path, returns_file, capsys):
        cfg_file = tmp_path / "typo.cfg"
        cfg_file.write_text("omgea = 0.5\nthresold = 0.2\niterations = 10\nburn_in = 0\n")
        out_dir = tmp_path / "typo"
        code = main([
            "fit", "--input", str(returns_file), "--config", str(cfg_file),
            "--output-dir", str(out_dir),
        ])
        assert code == 2
        assert "unknown config keys: omgea, thresold" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_file_prior_keys(self, tmp_path, returns_file):
        cfg_file = tmp_path / "priors.cfg"
        cfg_file.write_text(
            "mu_prior_var = 50\njump_prob_prior_a = 3\nthin = 2\nno_jumps = false\n"
            "iterations = 10\nburn_in = 0\n"
        )
        out_dir = tmp_path / "priors"
        code = main([
            "fit", "--input", str(returns_file), "--config", str(cfg_file),
            "--output-dir", str(out_dir),
        ])
        assert code == 0
        report = jio.read_report_json(out_dir / "report.json")
        expected = jv.ModelConfig(priors=jv.Priors(mu_var=50.0, jump_prob_a=3.0))
        assert report["model"] == asdict(expected)
        assert report["run"] == {
            "iterations": 10, "burn_in": 0, "thin_lag": 2, "n_chains": 1, "seed": 0,
        }

    def test_byte_identical_reruns(self, tmp_path, returns_file):
        args = [
            "fit", "--input", str(returns_file), "--iterations", "40",
            "--burn-in", "10", "--thin", "2", "--seed", "11",
        ]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-dir", str(dir_a)]) == 0
        assert main(args + ["--output-dir", str(dir_b)]) == 0
        for name in ("draws.csv", "latent_summary.csv", "report.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_fit_result_files_parse_back_losslessly(self, tmp_path, small_sim):
        from jumpvol.cli import run_fit

        cfg = jv.default_config()
        spec = jv.RunSpec(iterations=30, burn_in=10, thin_lag=2, seed=6)
        result = run_fit(small_sim.returns, cfg, spec, tmp_path / "out")
        assert result.wall_seconds > 0.0
        for path in (result.draws_path, result.latent_path, result.report_path):
            assert path.exists()
        draws = jio.read_draws_csv(result.draws_path)
        chain = jv.run_chain(small_sim.returns, cfg, spec)
        np.testing.assert_array_equal(draws["mu"], chain.mu)
        latent = jio.read_latent_csv(result.latent_path)
        np.testing.assert_array_equal(latent.var_mean, result.report.latent.var_mean)
        report = jio.read_report_json(result.report_path)
        assert report["diagnostics"]["dic"] == result.report.dic
        assert "wall" not in str(report).lower()

    def test_fit_from_prices(self, tmp_path):
        sim = jv.simulate(jv.SimConfig(n=120, seed=3))
        prices = jv.returns_to_prices(sim.returns, 100.0)
        path = tmp_path / "prices.csv"
        lines = ["timestamp,price"] + [f"d{i},{jio.fmt17(p)}" for i, p in enumerate(prices)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_dir = tmp_path / "pfit"
        code = main([
            "fit", "--input", str(path), "--mode", "prices",
            "--iterations", "20", "--burn-in", "5", "--output-dir", str(out_dir),
        ])
        assert code == 0
        report = jio.read_report_json(out_dir / "report.json")
        assert report["data"]["n"] == 120

    def test_too_few_retained_draws_exit_2_before_sampling(self, tmp_path, returns_file, capsys):
        out_dir = tmp_path / "fit"
        code = main([
            "fit", "--input", str(returns_file), "--iterations", "3", "--burn-in", "0",
            "--output-dir", str(out_dir),
        ])
        assert code == 2
        assert f"at least {jv.diagnostics.MIN_PSRF_DRAWS} retained draws" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_exit_codes(self, tmp_path, returns_file):
        assert main(["fit", "--input", str(tmp_path / "missing.csv")]) == 3
        assert main([
            "fit", "--input", str(returns_file), "--omega", "1.5",
            "--output-dir", str(tmp_path / "x"),
        ]) == 2
        assert main(["fit"]) == 2  # missing required flag
        assert main(["not-a-command"]) == 2


class TestCliByteOrderMark:
    """Input, config and fit files saved with a leading UTF-8 byte-order mark
    give the outputs of the same files without it."""

    _FIT = ["fit", "--iterations", "30", "--burn-in", "10", "--seed", "5"]

    def test_fit_input(self, tmp_path, returns_file):
        bom = _bom_copy(returns_file, tmp_path / "bom.csv")
        for name, path in (("plain", returns_file), ("bom", bom)):
            assert main([*self._FIT, "--input", str(path),
                         "--output-dir", str(tmp_path / name)]) == 0
        for name in ("draws.csv", "latent_summary.csv", "report.json"):
            assert (tmp_path / "bom" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes(), name

    def test_fit_config(self, tmp_path, returns_file):
        plain = tmp_path / "run.cfg"
        plain.write_text("omega = 0.8\njump_prob_prior_a = 3\n", encoding="utf-8")
        bom = _bom_copy(plain, tmp_path / "bom.cfg")
        assert jio.read_config_file(bom) == jio.read_config_file(plain)
        for name, path in (("plain", plain), ("bom", bom)):
            assert main([*self._FIT, "--input", str(returns_file), "--config", str(path),
                         "--output-dir", str(tmp_path / name)]) == 0
        report = (tmp_path / "bom" / "report.json").read_bytes()
        assert report == (tmp_path / "plain" / "report.json").read_bytes()
        assert jio.read_report_json(tmp_path / "bom" / "report.json")["model"]["omega"] == 0.8

    def test_diagnose_input(self, tmp_path, returns_file):
        fit = tmp_path / "fit"
        assert main([*self._FIT, "--input", str(returns_file), "--output-dir", str(fit)]) == 0
        bom = {name: _bom_copy(path, tmp_path / f"bom_{name}")
               for name, path in (("returns.csv", returns_file), ("draws.csv", fit / "draws.csv"),
                                  ("latent_summary.csv", fit / "latent_summary.csv"))}
        plain = {"returns.csv": returns_file, "draws.csv": fit / "draws.csv",
                 "latent_summary.csv": fit / "latent_summary.csv"}
        for name, files in (("plain", plain), ("bom", bom)):
            assert main(["diagnose", "--draws", str(files["draws.csv"]),
                         "--input", str(files["returns.csv"]),
                         "--latent-summary", str(files["latent_summary.csv"]),
                         "--output", str(tmp_path / f"{name}.json")]) == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_summarize_truth_params(self, tmp_path):
        sim = tmp_path / "sim.csv"
        assert main(["simulate", "--n", "60", "--seed", "4", "--output", str(sim)]) == 0
        fit = tmp_path / "fit"
        assert main([*self._FIT, "--input", str(sim), "--output-dir", str(fit)]) == 0
        plain = tmp_path / "sim.params.json"
        bom = _bom_copy(plain, tmp_path / "bom.params.json")
        for name, path in (("plain", plain), ("bom", bom)):
            assert main(["summarize", "--truth", str(sim), "--truth-params", str(path),
                         "--fit-dir", str(fit), "--output", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


class TestCliSimulate:
    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["simulate", "--n", "60", "--seed", "9"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 61
        params = jio.read_report_json(tmp_path / "s1.params.json")
        defaults = jv.SimConfig(n=60, seed=9)
        assert params == {**asdict(defaults), "v0": defaults.theta}

    def test_fit_reads_simulation_file(self, tmp_path):
        sim_path = tmp_path / "sim.csv"
        assert main(["simulate", "--n", "150", "--seed", "4", "--output", str(sim_path)]) == 0
        rows = sim_path.read_text(encoding="utf-8").splitlines()
        converted = tmp_path / "returns.csv"
        converted.write_text(
            "\n".join(["timestamp,log_return_pct"] + [",".join(r.split(",")[:2]) for r in rows[1:]])
            + "\n",
            encoding="utf-8",
        )
        args = ["fit", "--iterations", "30", "--burn-in", "5", "--seed", "2"]
        assert main(args + ["--input", str(sim_path), "--output-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--input", str(converted), "--output-dir", str(tmp_path / "b")]) == 0
        draws = (tmp_path / "a" / "draws.csv").read_bytes()
        assert draws == (tmp_path / "b" / "draws.csv").read_bytes()


class TestCliDiagnose:
    def test_constant_deviance_gives_zero_pd(self, tmp_path):
        draws = tmp_path / "draws.csv"
        rows = ["chain,iteration,mu,log_lik"]
        rows += [f"0,{i},{0.05 + 0.001*i},-100.0" for i in range(1, 21)]
        draws.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "diag.json"
        assert main(["diagnose", "--draws", str(draws), "--output", str(out)]) == 0
        report = jio.read_report_json(out)
        assert report["diagnostics"]["p_d"] == pytest.approx(0.0, abs=1e-9)
        assert report["diagnostics"]["pd_method"] == "half_variance"

    def test_exact_mode_matches_fit_report(self, tmp_path, returns_file):
        out_dir = tmp_path / "fit"
        main([
            "fit", "--input", str(returns_file), "--iterations", "60", "--burn-in", "20",
            "--seed", "4", "--output-dir", str(out_dir),
        ])
        fit_report = jio.read_report_json(out_dir / "report.json")
        diag_out = tmp_path / "diag.json"
        code = main([
            "diagnose", "--draws", str(out_dir / "draws.csv"),
            "--input", str(returns_file), "--latent-summary", str(out_dir / "latent_summary.csv"),
            "--output", str(diag_out),
        ])
        assert code == 0
        diag = jio.read_report_json(diag_out)["diagnostics"]
        assert diag["dic"] == pytest.approx(fit_report["diagnostics"]["dic"], rel=1e-12)
        assert diag["p_d"] == pytest.approx(fit_report["diagnostics"]["p_d"], rel=1e-12)
        assert diag["bic"] == pytest.approx(fit_report["diagnostics"]["bic"], rel=1e-12)
        assert diag["pd_method"] == "plug_in_mean"

    def test_n_gives_bic_without_plug_in(self, tmp_path):
        draws = tmp_path / "draws.csv"
        rows = ["chain,iteration,mu,jump_prob,jump_mean,jump_var,log_lik"]
        rows += [f"0,{i},{0.05 + 0.001*i},0.02,-2.0,4.0,{-300.0 - (i * 7) % 11}" for i in range(1, 21)]
        draws.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "diag.json"
        assert main(["diagnose", "--draws", str(draws), "--n", "400", "--output", str(out)]) == 0
        diag = jio.read_report_json(out)["diagnostics"]
        log_lik_max = float(np.max(jio.read_draws_csv(draws)["log_lik"]))
        assert diag["bic"] == jv.compute_bic(log_lik_max, 8, 400)
        assert (diag["n_obs"], diag["k"]) == (400, 8)
        assert diag["pd_method"] == "half_variance"
        assert "log_lik_at_mean" not in diag

    def test_jump_and_no_jump_draws_exit_2(self, tmp_path, capsys):
        jump, no_jump = tmp_path / "jump.csv", tmp_path / "nojump.csv"
        rows = ["chain,iteration,mu,jump_prob,jump_mean,jump_var,log_lik"]
        rows += [f"0,{i},{0.05 + 0.001*i},0.02,-2.0,4.0,-300.0" for i in range(1, 11)]
        jump.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rows = ["chain,iteration,mu,log_lik"] + [f"0,{i},0.05,-300.0" for i in range(1, 11)]
        no_jump.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "diag.json"
        code = main([
            "diagnose", "--draws", str(jump), "--draws", str(no_jump), "--n", "400",
            "--output", str(out),
        ])
        assert code == 2
        assert "disagree on the model" in capsys.readouterr().err
        assert not out.exists()


    def test_short_chain_exits_3(self, tmp_path, capsys):
        draws = tmp_path / "draws.csv"
        rows = ["chain,iteration,mu,log_lik"]
        rows += [f"0,{i},0.1,-100.0" for i in range(1, 6)]
        rows += [f"1,{i},0.1,-100.0" for i in range(1, 3)]
        draws.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "diag.json"
        assert main(["diagnose", "--draws", str(draws), "--output", str(out)]) == 3
        assert "chain 1 has 2 draws" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content,message",
        [(None, "cannot read"), (b"chain,iteration,mu,log_lik\n0,1,\xff,1\n", "not valid UTF-8")],
    )
    def test_unreadable_draws_file_exits_3(self, tmp_path, capsys, content, message):
        draws = tmp_path / "nope" / "draws.csv"
        if content is not None:
            draws.parent.mkdir()
            draws.write_bytes(content)
        code = main(["diagnose", "--draws", str(draws), "--output", str(tmp_path / "d.json")])
        assert code == 3
        assert message in capsys.readouterr().err


class TestCliSummarize:
    def test_missing_truth_file_exits_3(self, tmp_path, capsys):
        code = main([
            "summarize", "--truth", str(tmp_path / "nope.csv"), "--fit-dir", str(tmp_path),
            "--output", str(tmp_path / "summary.csv"),
        ])
        assert code == 3
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["{}", "[1, 2]"])
    def test_bad_truth_params_exit_3(self, tmp_path, capsys, content):
        sim_path = tmp_path / "sim.csv"
        assert main(["simulate", "--n", "30", "--seed", "2", "--output", str(sim_path)]) == 0
        fit_dir = tmp_path / "fit"
        assert main([
            "fit", "--input", str(sim_path), "--iterations", "10", "--burn-in", "0",
            "--output-dir", str(fit_dir),
        ]) == 0
        bad = tmp_path / "bad.params.json"
        bad.write_text(content, encoding="utf-8")
        code = main([
            "summarize", "--truth", str(sim_path), "--truth-params", str(bad),
            "--fit-dir", str(fit_dir), "--output", str(tmp_path / "summary.csv"),
        ])
        assert code == 3
        assert "expected a JSON object with numeric mu" in capsys.readouterr().err

    def test_perfect_fit_has_zero_rmse(self, tmp_path):
        sim_path = tmp_path / "sim.csv"
        main(["simulate", "--n", "30", "--seed", "2", "--output", str(sim_path)])
        truth = jio.read_sim_csv(sim_path)
        params = jio.read_report_json(tmp_path / "sim.params.json")

        fit_dir = tmp_path / "perfect"
        fit_dir.mkdir()
        rows = ["chain,iteration,mu,jump_prob,jump_mean,jump_var,log_lik"]
        for i in range(1, 6):
            rows.append(
                f"0,{i},{params['mu']!r},{params['jump_prob']!r},"
                f"{params['jump_mean']!r},{params['jump_sd']**2!r},-10.0"
            )
        (fit_dir / "draws.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        latent = jv.LatentSummary(
            var_mean=truth["true_v"],
            var_lo95=truth["true_v"] * 0.5,
            var_hi95=truth["true_v"] * 2.0,
            sd_mean=np.sqrt(truth["true_v"]),
            sd_lo95=np.sqrt(truth["true_v"] * 0.5),
            sd_hi95=np.sqrt(truth["true_v"] * 2.0),
            mean_jump=truth["true_jump"],
            prob_jump=truth["true_N"].astype(float),
            freq_jump=truth["true_N"].astype(float),
            mean_precision=1.0 / truth["true_v"],
            mean_mixture=truth["true_gamma"],
        )
        jio.write_latent_csv(fit_dir / "latent_summary.csv", latent)

        out = tmp_path / "summary.csv"
        code = main([
            "summarize", "--truth", str(sim_path), "--fit-dir", str(fit_dir),
            "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,mean,sd,rmse"
        parsed = {row.split(",")[0]: row.split(",") for row in lines[1:]}
        for name in ("mu", "jump_prob", "jump_mean", "jump_sd"):
            assert float(parsed[name][3]) == pytest.approx(0.0, abs=1e-12)
        assert float(parsed["volatility_path"][3]) == 0.0
        assert float(parsed["jump_path"][3]) == 0.0
        assert float(parsed["volatility_coverage_95"][1]) == 1.0


@pytest.mark.parametrize("command", ["diagnose", "summarize"])
@pytest.mark.parametrize("missing", ["jump_mean", "jump_var"])
def test_partial_jump_draws_exit_3(tmp_path, capsys, command, missing):
    names = [name for name in ("mu", "jump_prob", "jump_mean", "jump_var", "log_lik") if name != missing]
    fit_dir = tmp_path / "fit"
    fit_dir.mkdir()
    draws = fit_dir / "draws.csv"
    rows = ["chain,iteration," + ",".join(names)]
    rows += [f"0,{i}," + ",".join(["0.5"] * len(names)) for i in range(1, 6)]
    draws.write_text("\n".join(rows) + "\n", encoding="utf-8")
    if command == "diagnose":
        args = ["diagnose", "--draws", str(draws), "--output", str(tmp_path / "d.json")]
    else:
        sim_path = tmp_path / "sim.csv"
        assert main(["simulate", "--n", "30", "--seed", "2", "--output", str(sim_path)]) == 0
        args = ["summarize", "--truth", str(sim_path), "--fit-dir", str(fit_dir),
                "--output", str(tmp_path / "summary.csv")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "line 1" in err and missing in err


def test_import_loads_no_scipy():
    code = "import sys, jumpvol, jumpvol.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"
