"""Pinned output bytes of `select --method both` at the default order 7.

Criterion 9 compares a rerun against a rerun, so a change that alters
the bytes of every run the same way passes it. These digests were
recorded from an earlier implementation; any byte change in any of the
nine output files fails here.
"""

import hashlib
import random

import pytest

from subselect.cli import main

FILES = (
    "submod.selection.tsv", "submod.selected.src", "submod.summary.txt",
    "xent.scores.tsv", "xent.selection.tsv", "xent.selected.src", "xent.summary.txt",
    "report.txt", "report.csv",
)

# per pool size: file -> SHA-256
GOLDEN = {
    150: {
        "submod.selection.tsv": "09ff05e9a0c11374882059b833af1bd0fde5cc62ac0df0fbce2269bfa38ce28c",
        "submod.selected.src": "5bcdb823426a35bdc1d75f97b486a220bbb890e13c40f6ec5abfc632a609f817",
        "submod.summary.txt": "86f654cce688c0143cc3f59a309e8ff17c8c4dfb87e5e64baa5719fe62c3b4d7",
        "xent.scores.tsv": "00eeb756f32d83eb458ffe79fdfb3f235baf6885ec0ac2dd0a62acf987311163",
        "xent.selection.tsv": "a9642bb06551158c538c4ccccf67595a95573366fba9aa75c5446b5c4abd00af",
        "xent.selected.src": "3df64fae550210a4c3fe68868359831808306c2fa971c145384cbd0045f2df10",
        "xent.summary.txt": "e46a5befe3bef92b4ba85c99edc4a6ff5f95f3b88b1570462776395b283f8c5f",
        "report.txt": "efcb9ca0bb3ee2f16d57cab87e78ddf3d06afd07bb4ce54492912d78ef8f1574",
        "report.csv": "9c8fed187febc54de62e7d6114b80ef188ed045d828b946d5ed548a265d1ce99",
    },
    14: {
        "submod.selection.tsv": "5f8780abc05f1ccb076a9b0ed2729272dfb775e2fa71c00636f836c93365b7af",
        "submod.selected.src": "6dbda92eec302d599bbfa95a40e0c42726dabd2d55d9b693070cda89d72f1a35",
        "submod.summary.txt": "da49ae8ff250b414e4ec52c98a6c521d3ba1e3dad4c154f0f9056bc647fd970a",
        "xent.scores.tsv": "aa4cc59aa70dce2d581b5e521b815f24c7ff3926b1003af1e2dae53a6be7a173",
        "xent.selection.tsv": "9350d0b99ba2d6e05ba81919c5028f25e966e3e71d15d64693c3b4d5d86f0722",
        "xent.selected.src": "482eb81e3f0918cc039cdc83fe5c7d28af445a500e737e51769688775e8c7b8f",
        "xent.summary.txt": "2ff8afaa06cf202ba3253964462329db45de2004d66146ae8c4a029702933f3c",
        "report.txt": "12025075b90d238a7da792b91273345d385480b5f90615dfef4be6d171986ceb",
        "report.csv": "1070efa8e5edc6d574f702493b20856d4df138b15d6ded3729a8531e3f2ee15f",
    },
}


def write_inputs(tmp_path, n_ground):
    """A seeded pool where "the" is in every line (idf 0) and the in-domain
    sample holds lines outside the pool (idf None)."""
    rng = random.Random(20150 + n_ground)
    vocab = [f"w{i}" for i in range(40)]
    lines = []
    for _ in range(n_ground):
        if lines and rng.random() < 0.15:
            lines.append(rng.choice(lines))  # exact duplicate
            continue
        toks = rng.choices(vocab[: rng.choice((12, 40))], k=rng.randint(2, 12))
        toks.insert(rng.randint(0, len(toks)), "the")
        lines.append(" ".join(toks))
    in_domain = lines[::5] + ["zz w1 yy", "w2 w3 xx w4"]
    ground = tmp_path / "ground.src"
    ground.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    ind = tmp_path / "indomain.src"
    ind.write_text("".join(line + "\n" for line in in_domain), encoding="utf-8")
    return ground, ind


@pytest.mark.parametrize("n_ground", sorted(GOLDEN))
def test_select_both_outputs_match_pinned_digests(tmp_path, n_ground):
    ground, ind = write_inputs(tmp_path, n_ground)
    out_dir = tmp_path / "out"
    budget = "60" if n_ground < 20 else "300"
    assert main([
        "select", "--method", "both", "--in-domain-src", str(ind),
        "--ground-src", str(ground), "--budget-words", budget, "--out-dir", str(out_dir),
    ]) == 0
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in FILES}
    assert digests == GOLDEN[n_ground]


# `subselect oracle` stdout: the optimum, the greedy and their ratio, on the
# 14-sentence pool above (the corpus path) and on the built-in fixture (the
# vectors path)
ORACLE_GOLDEN = {
    "pool14": "a6f3ef63e7d915713e8998bb252d36f4f10e799eb9c83cbddb0a5455c7902898",
    "fixture": "633624adea3863f549ff5c9920cc64c1d3adc0481d5fcdf5d255b46fa3d04607",
}


@pytest.mark.parametrize("instance", sorted(ORACLE_GOLDEN))
def test_oracle_stdout_matches_pinned_digest(tmp_path, capsys, instance):
    if instance == "fixture":
        argv = ["oracle", "--fixture"]
    else:
        ground, ind = write_inputs(tmp_path, 14)
        argv = ["oracle", "--in-domain-src", str(ind), "--ground-src", str(ground), "--budget-words", "60"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ORACLE_GOLDEN[instance]


# `select --method submod --max-order 1` on a pool where 30 % of the lines
# repeat an earlier one: the traffic where the lazy greedy recomputes many
# stale gains a step. `recomputes=` in the summary pins the evaluation count
# (1,927 lazy, 39,226 naive). Recorded from an earlier implementation.
SUBMOD_FILES = ("submod.selection.tsv", "submod.selected.src", "submod.summary.txt")

SUBMOD_GOLDEN = {
    "lazy": {
        "submod.selection.tsv": "2776e130dfac64c784ae3ffcd667c82ec79c9eae13fc809c95b40c64854c23eb",
        "submod.selected.src": "c50ae99c3dac5eb84e81dba24494542b3a9b8a7de7271063dc5707205b9b72b3",
        "submod.summary.txt": "d5ce44972060b8a8b46ef5856c30311db0a9e7292243e9ecaf776a5db228a2a9",
    },
    "naive": {
        "submod.selection.tsv": "2776e130dfac64c784ae3ffcd667c82ec79c9eae13fc809c95b40c64854c23eb",
        "submod.selected.src": "c50ae99c3dac5eb84e81dba24494542b3a9b8a7de7271063dc5707205b9b72b3",
        "submod.summary.txt": "575517708d6501745eb4a6899845112daacb9374af4116767dadf1986d73e5c0",
    },
}


def write_duplicate_pool(tmp_path, n_ground=600):
    rng = random.Random(20151)
    vocab = [f"t{i}" for i in range(500)]
    zipf = [1.0 / (r + 1) for r in range(len(vocab))]
    lines = []
    for _ in range(n_ground):
        if lines and rng.random() < 0.3:
            lines.append(rng.choice(lines))  # exact duplicate
        else:
            lines.append(" ".join(rng.choices(vocab, weights=zipf, k=rng.randint(3, 20))))
    ground = tmp_path / "ground.src"
    ground.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    ind = tmp_path / "indomain.src"
    ind.write_text("".join(line + "\n" for line in lines[::7]), encoding="utf-8")
    words = sum(len(line.split()) for line in lines)
    return ground, ind, words // 10


@pytest.mark.parametrize("variant", sorted(SUBMOD_GOLDEN))
def test_submod_order1_duplicate_pool_matches_pinned_digests(tmp_path, variant):
    ground, ind, budget = write_duplicate_pool(tmp_path)
    out_dir = tmp_path / "out"
    assert main([
        "select", "--method", "submod", "--max-order", "1", "--variant", variant,
        "--in-domain-src", str(ind), "--ground-src", str(ground),
        "--budget-words", str(budget), "--out-dir", str(out_dir),
    ]) == 0
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in SUBMOD_FILES}
    assert digests == SUBMOD_GOLDEN[variant]


# `train-lm` on each side of the 150-sentence pool above, the other side
# joining the vocabulary through --extra-vocab-src, then `score` with the
# pair: the JSON model files and the score dump, per smoothing. Recorded
# from an earlier implementation.
LM_GOLDEN = {
    "interpolated-wb": {
        "lm_in.json": "25179f2513c507c2eb5fd6bd66bb26fe00b95996e8b4177a068866c081032f28",
        "lm_out.json": "4ff51ad21f6576b076a1707a7bb7d66b56fd9464086b91cfd4ced919fa3df41d",
        "scores.tsv": "00eeb756f32d83eb458ffe79fdfb3f235baf6885ec0ac2dd0a62acf987311163",
    },
    "add-k:0.25": {
        "lm_in.json": "421f40b58ff9ba077af463e1faa391d7e996d6a27ad6bfc50444f81b1d4d940e",
        "lm_out.json": "7d37f28eec023504abbacb2b25985628e31a9ca182d2c4ed3b7f6520dc88cb01",
        "scores.tsv": "ce29ac51a8d337a508f5d9e630930186094e53f836e035d5fbf2b6ce3c42c211",
    },
}


@pytest.mark.parametrize("smoothing", sorted(LM_GOLDEN))
def test_staged_lm_files_match_pinned_digests(tmp_path, smoothing):
    ground, ind = write_inputs(tmp_path, 150)
    lm_in, lm_out, scores = tmp_path / "lm_in.json", tmp_path / "lm_out.json", tmp_path / "scores.tsv"
    for src, other, out in ((ind, ground, lm_in), (ground, ind, lm_out)):
        assert main([
            "train-lm", "--src", str(src), "--extra-vocab-src", str(other),
            "--smoothing", smoothing, "--out", str(out),
        ]) == 0
    assert main([
        "score", "--ground-src", str(ground), "--lm-in", str(lm_in), "--lm-out", str(lm_out),
        "--out", str(scores),
    ]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (lm_in, lm_out, scores)}
    assert digests == LM_GOLDEN[smoothing]


# `extract-features` under each weighting, then `report` on that feature
# file with the two selections `select --method both` made from the
# 150-sentence pool above: the feature file and the report files. Recorded
# from an earlier implementation.
STAGED_FEATURES_GOLDEN = {
    "uniform": {
        "features.tsv": "65004ee86f6c9c722e3935367bf796bd6f98733c8877b25c1881768280266a36",
        "report.txt": "5d31e007e893ba61001f64dcc3279164e9859d18b9f3072760897d54988148a2",
        "report.csv": "9c8fed187febc54de62e7d6114b80ef188ed045d828b946d5ed548a265d1ce99",
    },
    "freq": {
        "features.tsv": "fa1e06105058f5de3fcde5751a59de887cb3a25e39c2880d40d7a85b90c027f0",
        "report.txt": "dfbacee3d6c21e4b3f35cb6b907a66d63832ab8be9f55d9e3246e6314fcc90bf",
        "report.csv": "de2e1e8bdd7b3c5d6b0a40fb4803ae5b7bc62142dbff38814b8db0327067ebe2",
    },
}


@pytest.mark.parametrize("weighting", sorted(STAGED_FEATURES_GOLDEN))
def test_staged_feature_file_and_report_match_pinned_digests(tmp_path, weighting):
    ground, ind = write_inputs(tmp_path, 150)
    sel_dir, out_dir = tmp_path / "select", tmp_path / "out"
    features = tmp_path / "features.tsv"
    assert main([
        "select", "--method", "both", "--in-domain-src", str(ind),
        "--ground-src", str(ground), "--budget-words", "300", "--out-dir", str(sel_dir),
    ]) == 0
    assert main([
        "extract-features", "--in-domain-src", str(ind), "--ground-src", str(ground),
        "--feature-weights", weighting, "--out", str(features),
    ]) == 0
    assert main([
        "report", "--features", str(features), "--ground-src", str(ground),
        "--selection", str(sel_dir / "submod.selection.tsv"),
        "--selection", str(sel_dir / "xent.selection.tsv"), "--out-dir", str(out_dir),
    ]) == 0
    paths = (features, out_dir / "report.txt", out_dir / "report.csv")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == STAGED_FEATURES_GOLDEN[weighting]


# `select --method both --ground-tgt` on the 150-sentence pool above, made
# parallel: each target line is its source line reversed and upper-cased,
# some joined by tabs or a stray "\r", with two lines blank on both sides.
# The selected source and target files of both methods. Recorded from an
# earlier implementation.
PARALLEL_FILES = ("submod.selected.src", "submod.selected.tgt", "xent.selected.src", "xent.selected.tgt")

PARALLEL_GOLDEN = {
    "submod.selected.src": "5bcdb823426a35bdc1d75f97b486a220bbb890e13c40f6ec5abfc632a609f817",
    "submod.selected.tgt": "61d7763446d36bcbc11952c8d1762e84788f5ef6860e7d3669913047512348f4",
    "xent.selected.src": "3df64fae550210a4c3fe68868359831808306c2fa971c145384cbd0045f2df10",
    "xent.selected.tgt": "f06529a9eef974f56d906f0fae5b4bfe09ac1f9876b9bfb75dd67f0638093d4c",
}


def write_parallel_pool(tmp_path):
    ground, ind = write_inputs(tmp_path, 150)
    rng = random.Random(20152)
    src, tgt = [], []
    for line in ground.read_text(encoding="utf-8").splitlines():
        if rng.random() < 0.02:
            src.append(" ")
            tgt.append("")
        src.append(line)
        tgt.append(rng.choice((" ", "\t", " \r ")).join(tok.upper() for tok in reversed(line.split())))
    ground.write_text("".join(line + "\n" for line in src), encoding="utf-8")
    ground_tgt = tmp_path / "ground.tgt"
    ground_tgt.write_text("".join(line + "\n" for line in tgt), encoding="utf-8")
    return ground, ground_tgt, ind


def test_parallel_selection_files_match_pinned_digests(tmp_path):
    ground, ground_tgt, ind = write_parallel_pool(tmp_path)
    out_dir = tmp_path / "out"
    assert main([
        "select", "--method", "both", "--in-domain-src", str(ind), "--ground-src", str(ground),
        "--ground-tgt", str(ground_tgt), "--budget-words", "300", "--out-dir", str(out_dir),
    ]) == 0
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in PARALLEL_FILES}
    assert digests == PARALLEL_GOLDEN
