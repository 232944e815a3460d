import importlib.util
import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from subselect import cli
from subselect.cli import main
from subselect.corpus import load_corpus
from subselect.features import load_feature_set, save_feature_set
from subselect.lm import load_lm
from subselect.oracle import compare_methods


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def corpora(tmp_path):
    """Small mixed-domain corpus pair used across subcommand tests."""
    ground = write(
        tmp_path / "ground.src",
        "a b\na b\nc d\nb c\nd a\n",
    )
    in_domain = write(tmp_path / "indomain.src", "a b c\nc d a\n")
    return tmp_path, ground, in_domain


class TestExtractFeatures:
    def test_writes_versioned_file(self, corpora):
        tmp, ground, in_domain = corpora
        out = tmp / "features.tsv"
        rc = main([
            "extract-features", "--in-domain-src", in_domain,
            "--ground-src", ground, "--max-order", "2", "--out", str(out),
        ])
        assert rc == 0
        first = out.read_text().splitlines()[0]
        assert first == "subselect-featureset\t1"
        features = load_feature_set(out)
        assert features.max_order == 2
        assert features.fitted

    def test_reruns_are_byte_identical(self, corpora):
        tmp, ground, in_domain = corpora
        outs = []
        for name in ("one.tsv", "two.tsv"):
            out = tmp / name
            assert main([
                "extract-features", "--in-domain-src", in_domain,
                "--ground-src", ground, "--max-order", "3", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_saved_set_holds_no_ground_pairs(self, corpora, monkeypatch):
        # fit_idf keeps the ground's enumeration for a relevance_rows call
        # that extract-features never makes; it must not hold it while writing
        tmp, ground, in_domain = corpora
        held = []

        def save(features, path):
            held.append(features._ground)
            save_feature_set(features, path)

        monkeypatch.setattr(cli, "save_feature_set", save)
        assert main([
            "extract-features", "--in-domain-src", in_domain,
            "--ground-src", ground, "--max-order", "2", "--out", str(tmp / "f.tsv"),
        ]) == 0
        assert held == [None]

    def test_missing_input_is_a_usage_error(self, corpora, capsys):
        tmp, ground, _ = corpora
        rc = main([
            "extract-features", "--in-domain-src", str(tmp / "nope.src"),
            "--ground-src", ground, "--out", str(tmp / "f.tsv"),
        ])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err


class TestTrainLmAndScore:
    def test_pipeline_produces_score_dump(self, corpora):
        tmp, ground, in_domain = corpora
        lm_in, lm_out = tmp / "in.lm", tmp / "out.lm"
        assert main([
            "train-lm", "--src", in_domain, "--order", "2",
            "--extra-vocab-src", ground, "--out", str(lm_in),
        ]) == 0
        assert main([
            "train-lm", "--src", ground, "--order", "2",
            "--extra-vocab-src", in_domain, "--out", str(lm_out),
        ]) == 0
        scores = tmp / "scores.tsv"
        assert main([
            "score", "--ground-src", ground,
            "--lm-in", str(lm_in), "--lm-out", str(lm_out), "--out", str(scores),
        ]) == 0
        lines = scores.read_text().splitlines()
        assert len(lines) == 5
        ground_lengths = [2, 2, 2, 2, 2]
        for i, line in enumerate(lines):
            sid, score, length = line.split("\t")
            assert int(sid) == i
            float(score)
            assert int(length) == ground_lengths[i]

    def test_no_markers_switch_reaches_the_model(self, corpora):
        tmp, ground, _ = corpora
        out = tmp / "m.lm"
        assert main([
            "train-lm", "--src", ground, "--order", "1",
            "--smoothing", "mle", "--no-markers", "--out", str(out),
        ]) == 0
        assert load_lm(out).markers is False

    def test_bad_smoothing_exits_2(self, corpora):
        tmp, ground, _ = corpora
        rc = main([
            "train-lm", "--src", ground, "--smoothing", "bogus", "--out", str(tmp / "m.lm"),
        ])
        assert rc == 2

    def test_non_finite_add_k_exits_2_before_writing(self, corpora):
        tmp, ground, _ = corpora
        out = tmp / "m.lm"
        assert main(["train-lm", "--src", ground, "--smoothing", "add-k:nan", "--out", str(out)]) == 2
        assert not out.exists()

    def test_malformed_model_exits_2(self, corpora):
        # a fractional count, which loading used to truncate silently
        tmp, ground, _ = corpora
        model = tmp / "m.lm"
        assert main(["train-lm", "--src", ground, "--order", "2", "--out", str(model)]) == 0
        payload = json.loads(model.read_text())
        payload["counts"]["2"] = {ngram: 2.5 for ngram in payload["counts"]["2"]}
        model.write_text(json.dumps(payload))
        rc = main([
            "score", "--ground-src", ground, "--lm-in", str(model), "--lm-out", str(model),
            "--out", str(tmp / "scores.tsv"),
        ])
        assert rc == 2


    def test_malformed_header_exits_2(self, corpora):
        # an add-k model whose constant is not positive scored -inf when loaded
        tmp, ground, _ = corpora
        model = tmp / "m.lm"
        assert main(["train-lm", "--src", ground, "--smoothing", "add-k", "--out", str(model)]) == 0
        payload = json.loads(model.read_text())
        payload["add_k"] = 0
        model.write_text(json.dumps(payload))
        rc = main([
            "score", "--ground-src", ground, "--lm-in", str(model), "--lm-out", str(model),
            "--out", str(tmp / "scores.tsv"),
        ])
        assert rc == 2


class TestSelect:
    def run_select(self, tmp, ground, in_domain, out_name, *extra):
        out_dir = tmp / out_name
        rc = main([
            "select", "--in-domain-src", in_domain, "--ground-src", ground,
            "--max-order", "2", "--budget-words", "6", "--out-dir", str(out_dir),
            *extra,
        ])
        return rc, out_dir

    def test_submod_outputs(self, corpora):
        tmp, ground, in_domain = corpora
        rc, out_dir = self.run_select(tmp, ground, in_domain, "sel")
        assert rc == 0
        tsv = (out_dir / "submod.selection.tsv").read_text().splitlines()
        assert tsv, "selection must not be empty at this budget"
        rank, sid, gain, cum = tsv[0].split("\t")
        assert rank == "1" and float(gain) > 0 and int(cum) >= 1
        selected = (out_dir / "submod.selected.src").read_text().splitlines()
        assert len(selected) == len(tsv)
        summary = (out_dir / "submod.summary.txt").read_text()
        assert "method=submod" in summary and "cost_mode=words" in summary

    def test_runs_are_byte_identical(self, corpora):
        tmp, ground, in_domain = corpora
        _, a = self.run_select(tmp, ground, in_domain, "run-a")
        _, b = self.run_select(tmp, ground, in_domain, "run-b")
        for name in ("submod.selection.tsv", "submod.selected.src", "submod.summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_thread_count_never_changes_output(self, corpora):
        tmp, ground, in_domain = corpora
        _, a = self.run_select(tmp, ground, in_domain, "t1", "--variant", "naive", "--threads", "1")
        _, b = self.run_select(tmp, ground, in_domain, "t4", "--variant", "naive", "--threads", "4")
        assert (a / "submod.selection.tsv").read_bytes() == (b / "submod.selection.tsv").read_bytes()

    @pytest.mark.parametrize("method", ["submod", "xent", "both"])
    def test_zero_threads_exit_2(self, corpora, method):
        tmp, ground, in_domain = corpora
        rc, out_dir = self.run_select(tmp, ground, in_domain, "t0", "--method", method, "--threads", "0")
        assert rc == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("method", ["submod", "xent", "both"])
    def test_nan_word_budget_exits_2_before_writing(self, corpora, method):
        tmp, ground, in_domain = corpora
        out_dir = tmp / "nan"
        rc = main([
            "select", "--method", method, "--in-domain-src", in_domain, "--ground-src", ground,
            "--budget-words", "nan", "--out-dir", str(out_dir),
        ])
        assert rc == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("method", ["xent", "both"])
    @pytest.mark.parametrize("flag", [
        ("--lm-smoothing", "bogus"), ("--lm-smoothing", "add-k:inf"), ("--lm-smoothing", "add-k:nan"),
        ("--lm-order", "0"), ("--unk-floor", "0"),
    ], ids=" ".join)
    def test_bad_lm_settings_exit_2_before_writing(self, corpora, method, flag):
        # checked before loading, so `both` writes no submod files first
        tmp, ground, in_domain = corpora
        rc, out_dir = self.run_select(tmp, ground, in_domain, "lm", "--method", method, *flag)
        assert rc == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("method", ["submod", "both"])
    @pytest.mark.parametrize("flag", [("--max-order", "0"), ("--max-order", "-1")], ids=" ".join)
    def test_bad_feature_settings_exit_2_before_writing(self, corpora, method, flag):
        # checked before loading, as extract_feature_set would check them
        tmp, ground, in_domain = corpora
        rc, out_dir = self.run_select(tmp, ground, in_domain, "feat", "--method", method, *flag)
        assert rc == 2
        assert not out_dir.exists()

    def test_variants_agree_end_to_end(self, corpora):
        tmp, ground, in_domain = corpora
        _, a = self.run_select(tmp, ground, in_domain, "vn", "--variant", "naive")
        _, b = self.run_select(tmp, ground, in_domain, "vl", "--variant", "lazy")
        assert (a / "submod.selection.tsv").read_bytes() == (b / "submod.selection.tsv").read_bytes()

    def test_xent_method_outputs(self, corpora):
        tmp, ground, in_domain = corpora
        rc, out_dir = self.run_select(
            tmp, ground, in_domain, "xsel", "--method", "xent", "--lm-order", "2"
        )
        assert rc == 0
        assert (out_dir / "xent.scores.tsv").exists()
        assert (out_dir / "xent.selection.tsv").exists()
        assert not (out_dir / "submod.selection.tsv").exists()
        scores = (out_dir / "xent.scores.tsv").read_text().splitlines()
        assert len(scores) == 5

    def test_both_methods_write_comparison_report(self, corpora):
        tmp, ground, in_domain = corpora
        rc, out_dir = self.run_select(
            tmp, ground, in_domain, "both", "--method", "both", "--lm-order", "2"
        )
        assert rc == 0
        csv = (out_dir / "report.csv").read_text().splitlines()
        assert csv[0].startswith("method,objective,")
        assert any(row.startswith("submod,") for row in csv)
        assert any(row.startswith("xent,") for row in csv)
        assert (out_dir / "report.txt").read_text().count("=") > 0

    @pytest.mark.parametrize("budget, cost_mode", [
        (("--budget-words", "6"), "words"), (("--budget-sentences", "2"), "unit"),
    ], ids=["words", "unit"])
    def test_both_reports_what_compare_methods_reports(self, corpora, budget, cost_mode):
        # compare_methods spells the select pipeline outside the CLI, so pin the two together
        tmp, ground, in_domain = corpora
        out_dir = tmp / "both"
        assert main([
            "select", "--method", "both", "--in-domain-src", in_domain, "--ground-src", ground,
            "--max-order", "2", "--lm-order", "2", *budget, "--out-dir", str(out_dir),
        ]) == 0
        report = compare_methods(
            load_corpus(ground, None, "whitespace"), load_corpus(in_domain, None, "whitespace"),
            float(budget[1]), cost_mode, max_order=2, lm_order=2,
        )
        assert report.optimal_objective is not None  # the 5-sentence pool is enumerated too
        assert report.to_keyvalue_lines() == (out_dir / "report.txt").read_text().splitlines()
        assert report.to_csv_lines() == (out_dir / "report.csv").read_text().splitlines()

    def test_parallel_corpus_carries_targets(self, corpora):
        tmp, ground, in_domain = corpora
        tgt = write(tmp / "ground.tgt", "A B\nA B\nC D\nB C\nD A\n")
        out_dir = tmp / "par"
        rc = main([
            "select", "--in-domain-src", in_domain, "--ground-src", ground,
            "--ground-tgt", tgt, "--max-order", "1",
            "--budget-sentences", "2", "--out-dir", str(out_dir),
        ])
        assert rc == 0
        src_lines = (out_dir / "submod.selected.src").read_text().splitlines()
        tgt_lines = (out_dir / "submod.selected.tgt").read_text().splitlines()
        assert len(src_lines) == len(tgt_lines) == 2

    def test_percent_budget_in_unit_mode_rounds_up(self, corpora):
        tmp, ground, in_domain = corpora
        out_dir = tmp / "pct"
        rc = main([
            "select", "--in-domain-src", in_domain, "--ground-src", ground,
            "--max-order", "1", "--budget-percent", "50", "--cost-mode", "unit",
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        # 50% of 5 sentences rounds up to 3
        lines = (out_dir / "submod.selection.tsv").read_text().splitlines()
        assert len(lines) == 3

    def test_budget_beyond_corpus_warns_and_takes_everything(self, corpora, caplog):
        tmp, ground, in_domain = corpora
        out_dir = tmp / "big"
        with caplog.at_level(logging.WARNING, logger="subselect.cli"):
            rc = main([
                "select", "--in-domain-src", in_domain, "--ground-src", ground,
                "--max-order", "2", "--budget-words", "100", "--out-dir", str(out_dir),
            ])
        assert rc == 0
        assert any("covers the whole ground set" in rec.getMessage() for rec in caplog.records)
        # every ground sentence still carries positive gain, so all five are taken
        lines = (out_dir / "submod.selection.tsv").read_text().splitlines()
        assert len(lines) == 5

    def test_conflicting_budgets_exit_2(self, corpora):
        tmp, ground, in_domain = corpora
        rc = main([
            "select", "--in-domain-src", in_domain, "--ground-src", ground,
            "--budget-words", "5", "--budget-sentences", "2", "--out-dir", str(tmp / "x"),
        ])
        assert rc == 2

    def test_cross_mode_conflict_exits_2(self, corpora):
        tmp, ground, in_domain = corpora
        rc = main([
            "select", "--in-domain-src", in_domain, "--ground-src", ground,
            "--budget-words", "5", "--cost-mode", "unit", "--out-dir", str(tmp / "x"),
        ])
        assert rc == 2

    def test_unit_mode_needs_a_sentence_style_budget(self, corpora):
        tmp, ground, in_domain = corpora
        rc = main([
            "select", "--in-domain-src", in_domain, "--ground-src", ground,
            "--cost-mode", "unit", "--out-dir", str(tmp / "x"),
        ])
        assert rc == 2

    def test_misaligned_parallel_corpus_exits_1(self, corpora):
        tmp, ground, in_domain = corpora
        tgt = write(tmp / "short.tgt", "A B\nA B\n")
        rc = main([
            "select", "--in-domain-src", in_domain, "--ground-src", ground,
            "--ground-tgt", tgt, "--out-dir", str(tmp / "x"),
        ])
        assert rc == 1


class TestOracleCommand:
    def test_fixture_instance_passes(self, capsys):
        rc = main(["oracle", "--fixture"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "optimal_objective=7.0" in out
        assert "optimal_ids=0 2" in out
        assert "greedy_ids=2 0" in out
        assert "ratio=1.0" in out

    def test_corpus_instance_reports_ratio(self, corpora, capsys):
        tmp, ground, in_domain = corpora
        rc = main([
            "oracle", "--in-domain-src", in_domain, "--ground-src", ground,
            "--max-order", "2", "--budget-sentences", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        ratio = float(dict(l.split("=", 1) for l in out.splitlines())["ratio"])
        assert ratio >= 0.63

    def test_word_budget_trap_fails_the_floor(self, tmp_path, capsys):
        # a cheap high-ratio sentence crowds out the big high-value one,
        # which is exactly the case the unit-cost guarantee does not cover
        ground = write(tmp_path / "g.src", "a\n" + " ".join(["b"] * 10) + "\n")
        in_domain = write(tmp_path / "i.src", "a b\n")
        rc = main([
            "oracle", "--in-domain-src", in_domain, "--ground-src", ground,
            "--max-order", "1", "--budget-words", "10",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        ratio = float(dict(l.split("=", 1) for l in out.splitlines())["ratio"])
        assert ratio == pytest.approx(0.3162277660168379, abs=1e-9)

    def test_oversized_ground_set_exits_2(self, tmp_path, monkeypatch):
        ground = write(tmp_path / "g.src", "".join(f"w{i}\n" for i in range(25)))
        in_domain = write(tmp_path / "i.src", "w0 w1\n")
        # the size is checked before any feature is fitted or any greedy runs
        monkeypatch.setattr(cli, "_submod", lambda *args: pytest.fail("the coverage branch ran"))
        rc = main([
            "oracle", "--in-domain-src", in_domain, "--ground-src", ground,
            "--budget-sentences", "2",
        ])
        assert rc == 2

    def test_needs_fixture_or_corpora(self):
        assert main(["oracle"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--budget-words", "10"), ("--budget-sentences", "3"), ("--budget-percent", "50"),
    ])
    def test_fixture_rejects_a_budget(self, capsys, flag, value):
        # the fixture's optimum is only known at its own budget
        assert main(["oracle", "--fixture", flag, value]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag, value", [
        ("--ground-src", "/nonexistent/ground.src"), ("--in-domain-src", "/nonexistent/in.src"),
        ("--cost-mode", "words"), ("--max-order", "3"), ("--feature-weights", "freq"),
        ("--tokenizer", "lowercase-whitespace"),
    ])
    def test_fixture_rejects_instance_flags(self, capsys, flag, value):
        # the fixture is a fixed set of vectors: no corpus, tokens, n-grams or costs to choose
        assert main(["oracle", "--fixture", flag, value]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""


class TestReportCommand:
    def test_report_from_saved_artifacts(self, corpora):
        tmp, ground, in_domain = corpora
        feats = tmp / "features.tsv"
        assert main([
            "extract-features", "--in-domain-src", in_domain,
            "--ground-src", ground, "--max-order", "2", "--out", str(feats),
        ]) == 0
        sel_dir = tmp / "sel"
        assert main([
            "select", "--in-domain-src", in_domain, "--ground-src", ground,
            "--max-order", "2", "--budget-words", "6", "--out-dir", str(sel_dir),
        ]) == 0
        rep_dir = tmp / "rep"
        rc = main([
            "report", "--features", str(feats), "--ground-src", ground,
            "--selection", str(sel_dir / "submod.selection.tsv"),
            "--out-dir", str(rep_dir),
        ])
        assert rc == 0
        csv = (rep_dir / "report.csv").read_text().splitlines()
        assert any(row.startswith("submod,") for row in csv)
        # a 5-sentence pool is small enough to enumerate, but report knows no
        # budget, so an oracle optimum would be meaningless
        txt = (rep_dir / "report.txt").read_text().splitlines()
        assert "budget=0.0" in txt
        assert not any(line.startswith("oracle.") for line in txt)

    def test_ground_size_mismatch_exits_2(self, corpora, tmp_path):
        tmp, ground, in_domain = corpora
        feats = tmp / "features.tsv"
        assert main([
            "extract-features", "--in-domain-src", in_domain,
            "--ground-src", ground, "--out", str(feats),
        ]) == 0
        other = write(tmp_path / "other.src", "a b\nc d\n")
        sel = write(tmp_path / "sel.tsv", "1\t0\t1.0\t2\n")
        rc = main([
            "report", "--features", str(feats), "--ground-src", other,
            "--selection", sel, "--out-dir", str(tmp_path / "rep"),
        ])
        assert rc == 2


    @pytest.mark.parametrize("lines, bad_line", [
        (["1\t0\t1.0\t2", "2\t-1\t1.0\t4"], 2),  # would score the last pool sentence
        (["1\t0\t1.0\t2", "2\t5\t1.0\t4"], 2),  # the pool has ids 0..4
        (["1\tthree\t1.0\t2"], 1),
        (["1\t0\t1.0\t2", "", "3"], 3),  # one column; the blank line still counts
        (["1\t3\t1.0\t2", "2\t3\t1.0\t4"], 2),  # would count sentence 3 twice
    ], ids=["negative", "beyond-pool", "not-an-integer", "one-column", "repeated"])
    def test_bad_selection_file_exits_2(self, corpora, tmp_path, capsys, lines, bad_line):
        tmp, ground, in_domain = corpora
        feats = tmp / "features.tsv"
        assert main([
            "extract-features", "--in-domain-src", in_domain,
            "--ground-src", ground, "--out", str(feats),
        ]) == 0
        sel = write(tmp_path / "sel.tsv", "".join(line + "\n" for line in lines))
        rc = main([
            "report", "--features", str(feats), "--ground-src", ground,
            "--selection", sel, "--out-dir", str(tmp_path / "rep"),
        ])
        assert rc == 2
        assert f"{sel} line {bad_line}:" in capsys.readouterr().err
        assert not (tmp_path / "rep" / "report.txt").exists()


    @pytest.mark.parametrize("record", ["a\t1.0\t-1", "a\tnan\t1", "a b c\t1.0\t1"])
    def test_bad_feature_record_exits_2(self, tmp_path, capsys, record):
        ground = write(tmp_path / "ground.src", "a b\nb c\n")
        feats = write(tmp_path / "features.tsv", f"subselect-featureset\t1\n2\t2\t2\n{record}\nb\t1.0\t1\n")
        sel = write(tmp_path / "sel.tsv", "1\t0\t1.0\t2\n")
        rc = main([
            "report", "--features", feats, "--ground-src", ground,
            "--selection", sel, "--out-dir", str(tmp_path / "rep"),
        ])
        assert rc == 2
        assert f"{feats} line 3:" in capsys.readouterr().err
        assert not (tmp_path / "rep" / "report.txt").exists()

    def test_repeated_feature_record_exits_2(self, tmp_path, capsys):
        ground = write(tmp_path / "ground.src", "a b\nb c\n")
        feats = write(tmp_path / "features.tsv", "subselect-featureset\t1\n2\t2\t2\na\t1.0\t1\na\t1.0\t1\n")
        sel = write(tmp_path / "sel.tsv", "1\t0\t1.0\t2\n")
        rc = main([
            "report", "--features", feats, "--ground-src", ground,
            "--selection", sel, "--out-dir", str(tmp_path / "rep"),
        ])
        assert rc == 2
        assert f"{feats} line 4:" in capsys.readouterr().err

    def test_coverage_counts_only_coverable_features(self, tmp_path):
        # the file says no pool sentence holds "a", so "a" is not coverable,
        # and covering it must not push coverage past 1
        ground = write(tmp_path / "ground.src", "a b\nb c\n")
        feats = write(tmp_path / "features.tsv", "subselect-featureset\t1\n1\t2\t2\na\t1.0\t0\nb\t1.0\t2\n")
        sel = write(tmp_path / "sel.tsv", "1\t0\t1.0\t2\n")
        assert main([
            "report", "--features", feats, "--ground-src", ground,
            "--selection", sel, "--out-dir", str(tmp_path / "rep"),
        ]) == 0
        assert "sel.coverage=1.0" in (tmp_path / "rep" / "report.txt").read_text().splitlines()

    def test_selections_with_one_name_exit_2(self, corpora, tmp_path, capsys):
        tmp, ground, in_domain = corpora
        feats = tmp / "features.tsv"
        assert main([
            "extract-features", "--in-domain-src", in_domain,
            "--ground-src", ground, "--out", str(feats),
        ]) == 0
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write(tmp_path / "a" / "submod.selection.tsv", "1\t0\t1.0\t2\n")
        second = write(tmp_path / "b" / "submod.selection.tsv", "1\t2\t1.0\t2\n")
        rc = main([
            "report", "--features", str(feats), "--ground-src", ground,
            "--selection", first, "--selection", second, "--out-dir", str(tmp_path / "rep"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert first in err and second in err
        assert not (tmp_path / "rep" / "report.txt").exists()


    @pytest.mark.parametrize("file_name", [
        ".selection.tsv", "a,b.selection.tsv", "k=v.selection.tsv", "a\nb.selection.tsv",
    ], ids=["empty", "comma", "equals", "line-break"])
    def test_selection_name_that_breaks_the_report_exits_2(self, corpora, tmp_path, capsys, file_name):
        # the name is a CSV cell and the head of every key=value key
        tmp, ground, in_domain = corpora
        feats = tmp / "features.tsv"
        assert main([
            "extract-features", "--in-domain-src", in_domain,
            "--ground-src", ground, "--out", str(feats),
        ]) == 0
        sel = write(tmp_path / file_name, "1\t0\t1.0\t2\n")
        rc = main([
            "report", "--features", str(feats), "--ground-src", ground,
            "--selection", sel, "--out-dir", str(tmp_path / "rep"),
        ])
        assert rc == 2
        assert f"error: {sel}:" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, corpora):
        tmp, ground, in_domain = corpora
        cfg = write(tmp / "run.cfg", "# defaults\nmax-order=2\n")
        out = tmp / "f.tsv"
        assert main([
            "extract-features", "--config", cfg, "--in-domain-src", in_domain,
            "--ground-src", ground, "--out", str(out),
        ]) == 0
        assert load_feature_set(out).max_order == 2

    def test_explicit_flags_beat_the_config(self, corpora):
        tmp, ground, in_domain = corpora
        cfg = write(tmp / "run.cfg", "max-order=2\n")
        out = tmp / "f.tsv"
        assert main([
            "extract-features", "--config", cfg, "--max-order", "3",
            "--in-domain-src", in_domain, "--ground-src", ground, "--out", str(out),
        ]) == 0
        assert load_feature_set(out).max_order == 3

    def test_boolean_keys_toggle_switches(self, corpora):
        tmp, ground, _ = corpora
        cfg = write(tmp / "lm.cfg", "no-markers=true\norder=1\nsmoothing=mle\n")
        out = tmp / "m.lm"
        assert main(["train-lm", "--config", cfg, "--src", ground, "--out", str(out)]) == 0
        assert load_lm(out).markers is False

    def test_unknown_key_exits_2(self, corpora, capsys):
        tmp, ground, in_domain = corpora
        cfg = write(tmp / "bad.cfg", "no-such-flag=1\n")
        rc = main([
            "extract-features", "--config", cfg, "--in-domain-src", in_domain,
            "--ground-src", ground, "--out", str(tmp / "f.tsv"),
        ])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["help=1", "help=0", "config=other.cfg"])
    def test_help_or_config_key_exits_2_before_writing(self, corpora, capsys, entry):
        # help=1 would inject --help, which prints usage and exits 0 having done nothing
        tmp, ground, in_domain = corpora
        cfg = write(tmp / "run.cfg", entry + "\n")
        out = tmp / "f.tsv"
        rc = main([
            "extract-features", "--config", cfg, "--in-domain-src", in_domain,
            "--ground-src", ground, "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"unknown key {entry.split('=')[0]!r}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_malformed_line_exits_2(self, corpora):
        tmp, ground, in_domain = corpora
        cfg = write(tmp / "bad.cfg", "just a bare line\n")
        rc = main([
            "extract-features", "--config", cfg, "--in-domain-src", in_domain,
            "--ground-src", ground, "--out", str(tmp / "f.tsv"),
        ])
        assert rc == 2

    def test_config_before_subcommand_exits_2(self, corpora):
        tmp, ground, in_domain = corpora
        cfg = write(tmp / "run.cfg", "max-order=2\n")
        assert main(["--config", str(cfg)]) == 2

    @pytest.mark.parametrize("joined", [False, True], ids=["--conf FILE", "--conf=FILE"])
    def test_abbreviated_config_exits_2_before_writing(self, corpora, capsys, joined):
        # argparse takes --conf for --config, but only the full spelling is read,
        # so a run would go on with the file's settings silently ignored
        tmp, ground, in_domain = corpora
        cfg = write(tmp / "run.cfg", "max-order=2\n")
        out_dir = tmp / "sel"
        conf = [f"--conf={cfg}"] if joined else ["--conf", cfg]
        rc = main(["select", *conf, "--in-domain-src", in_domain, "--ground-src", ground, "--out-dir", str(out_dir)])
        assert rc == 2
        assert "spell --config in full" in capsys.readouterr().err
        assert not out_dir.exists()


    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_config_that_is_not_a_file_exits_2(self, corpora, capsys, kind):
        tmp, ground, in_domain = corpora
        cfg = tmp / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        out_dir = tmp / "sel"
        rc = main(["select", "--config", str(cfg), "--in-domain-src", in_domain, "--ground-src", ground,
                   "--out-dir", str(out_dir)])
        assert rc == 2
        assert f"error: no such file: {cfg}" in capsys.readouterr().err
        assert not out_dir.exists()


def test_cli_keeps_every_name_the_benchmark_traces():
    # perfbench/traced.py patches each SPANS key onto subselect.cli; a missing one fails every traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)  # defines SPANS; main runs only as a script
    missing = [name for name in traced.SPANS if not callable(getattr(cli, name, None))]
    assert traced.SPANS and not missing


class TestUsageErrors:
    def test_missing_required_flag_raises_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["extract-features"])
        assert exc.value.code == 2

    def test_unknown_subcommand_raises_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        "select --in-domain-src {missing} --ground-src {missing} --out-dir {out}",
        "oracle --in-domain-src {missing} --ground-src {missing}",
        "report --features {missing} --ground-src {missing} --selection {missing} --out-dir {out}",
    ], ids=["select", "oracle", "report"])
    def test_bad_concave_exits_2_before_any_input_is_read(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing.src"
        rc = main([*argv.format(missing=missing, out=tmp_path / "out").split(), "--concave", "bogus"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: unknown concave curve 'bogus'" in err
        assert str(missing) not in err
        assert not (tmp_path / "out").exists()

    def test_installed_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "subselect.cli", "oracle", "--fixture"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "ratio=1.0" in proc.stdout


@pytest.fixture
def artifacts(corpora):
    """Valid files of every kind the CLI reads, written by the CLI itself."""
    tmp, ground, in_domain = corpora
    assert main(["extract-features", "--in-domain-src", in_domain, "--ground-src", ground,
                 "--max-order", "2", "--out", str(tmp / "f.tsv")]) == 0
    assert main(["train-lm", "--src", in_domain, "--order", "2", "--extra-vocab-src", ground,
                 "--out", str(tmp / "in.lm")]) == 0
    write(tmp / "sel.tsv", "1\t0\t1.0\t2\n2\t2\t1.0\t2\n")
    write(tmp / "select.conf", "# settings\nbudget-words = 4\nmethod = submod\n")
    return tmp, ground, in_domain


def _undecodable(path, line):
    """Put a byte that no UTF-8 text holds at the start of ``path``'s 1-based ``line``."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


class TestUndecodableInput:
    # (reader, file to corrupt, line, argv with {tmp}, {ground} and {in_domain} filled in)
    CASES = [
        ("corpus", "indomain.src", 2, "train-lm --src {in_domain} --out {tmp}/m.lm"),
        ("lm", "in.lm", 1, "score --ground-src {ground} --lm-in {tmp}/in.lm --lm-out {tmp}/in.lm "
                           "--out {tmp}/s.tsv"),
        ("feature-set", "f.tsv", 3, "report --features {tmp}/f.tsv --ground-src {ground} "
                                    "--selection {tmp}/sel.tsv --out-dir {tmp}/out"),
        ("selection", "sel.tsv", 2, "report --features {tmp}/f.tsv --ground-src {ground} "
                                    "--selection {tmp}/sel.tsv --out-dir {tmp}/out"),
        ("config", "select.conf", 2, "select --config {tmp}/select.conf --ground-src {ground} "
                                     "--in-domain-src {in_domain} --out-dir {tmp}/out"),
        ("select-corpus", "ground.src", 4, "select --ground-src {ground} --in-domain-src {in_domain} "
                                           "--out-dir {tmp}/out"),
    ]

    @pytest.mark.parametrize("name, target, line, argv", CASES, ids=[case[0] for case in CASES])
    def test_a_file_that_is_not_utf8_is_a_usage_error(self, artifacts, capsys, name, target, line, argv):
        tmp, ground, in_domain = artifacts
        _undecodable(tmp / target, line)
        rc = main(argv.format(tmp=tmp, ground=ground, in_domain=in_domain).split())
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {tmp / target} line {line}: not UTF-8 text" in err
        assert "Traceback" not in err
        assert not (tmp / "out").exists()
