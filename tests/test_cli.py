import re
import struct
import sys
import time

import numpy as np
import pytest

import advguard as ag
from advguard.cli import main
from synth import template_digits

SLEEPER = f'"{sys.executable}" -c "import time; time.sleep(30)"'


def write_idx_pair(tmp_path, images, labels, stem):
    """Serialize images/labels to IDX files the way the official files are laid out."""
    arr = np.stack([im.pixels[:, :, 0] for im in images])
    n, rows, cols = arr.shape
    images_path = tmp_path / f"{stem}-images-idx3"
    labels_path = tmp_path / f"{stem}-labels-idx1"
    images_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + arr.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))
    return images_path, labels_path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """IDX dataset, trained model file, and attack corpus shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    images, labels = template_digits(150, seed=21, size=8, classes=4, noise=25.0)
    images_path, labels_path = write_idx_pair(root, images, labels, "train")
    model_path = root / "model.bin"
    rc = main([
        "train", "--images", str(images_path), "--labels", str(labels_path),
        "--model", str(model_path), "--epochs", "6", "--learning-rate", "0.2",
        "--hidden", "24", "--seed", "2",
    ])
    assert rc == 0 and model_path.is_file()
    corpus = root / "corpus"
    rc = main([
        "attack", "--model", str(model_path), "--images", str(images_path),
        "--labels", str(labels_path), "--out", str(corpus), "--epsilon", "0.3",
    ])
    assert rc == 0
    return {"root": root, "images": images_path, "labels": labels_path,
            "model": model_path, "corpus": corpus, "dataset": (images, labels)}


class TestEntropyCommand:
    def test_output_format(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        img.write_bytes(ag.write_pgm_ppm(ag.Image(np.zeros((8, 8), dtype=np.uint8))))
        assert main(["entropy", str(img)]) == 0
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"h2d=\d+\.\d{4} intervals=[246] smooth=(true|false)", out)
        assert out.startswith("h2d=0.0000 intervals=2 smooth=false")

    def test_missing_file_fails(self, capsys):
        assert main(["entropy", "/nonexistent.pgm"]) == 1
        assert "error" in capsys.readouterr().err


class TestFilterCommand:
    def test_writes_combined_stage(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        src.write_bytes(ag.write_pgm_ppm(ag.Image(np.full((8, 8), 70, dtype=np.uint8))))
        assert main(["filter", str(src), str(dst)]) == 0
        assert "stage=combined" in capsys.readouterr().out
        written = ag.read_pgm_ppm(dst.read_bytes())
        assert np.all(written.pixels == 0)  # 70 quantizes to the lower half

    def test_smoothed_stage_unavailable_for_low_entropy(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        src.write_bytes(ag.write_pgm_ppm(ag.Image(np.zeros((8, 8), dtype=np.uint8))))
        assert main(["filter", str(src), str(dst), "--stage", "smoothed"]) == 1
        assert "no smoothed stage" in capsys.readouterr().err

    def test_input_not_mutated(self, tmp_path):
        src = tmp_path / "in.pgm"
        before = ag.write_pgm_ppm(ag.Image(np.full((6, 6), 200, dtype=np.uint8)))
        src.write_bytes(before)
        main(["filter", str(src), str(tmp_path / "out.pgm")])
        assert src.read_bytes() == before


class TestTrainCommand:
    def test_summary_line(self, pipeline, capsys, tmp_path):
        rc = main([
            "train", "--images", str(pipeline["images"]), "--labels", str(pipeline["labels"]),
            "--model", str(tmp_path / "m.bin"), "--epochs", "1", "--limit", "40", "--hidden", "8",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == f"model={tmp_path / 'm.bin'} samples=40 epochs=1"

    def test_same_seed_same_model_file(self, pipeline, tmp_path):
        args = [
            "train", "--images", str(pipeline["images"]), "--labels", str(pipeline["labels"]),
            "--epochs", "2", "--hidden", "8", "--seed", "11",
        ]
        main(args + ["--model", str(tmp_path / "a.bin")])
        main(args + ["--model", str(tmp_path / "b.bin")])
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestAttackCommand:
    def test_summary_and_manifest(self, pipeline, capsys, tmp_path):
        rc = main([
            "attack", "--model", str(pipeline["model"]), "--images", str(pipeline["images"]),
            "--out", str(tmp_path / "c"), "--epsilon", "0.3", "--limit", "30",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        m = re.search(r"attacked=(\d+) skipped=(\d+) effectual=(\d+) rate=(\d\.\d{4})", out)
        assert m and int(m.group(1)) == 30 and int(m.group(2)) == 0
        assert (tmp_path / "c" / "manifest.csv").is_file()

    def test_topk_variant(self, pipeline, tmp_path, capsys):
        rc = main([
            "attack", "--model", str(pipeline["model"]), "--images", str(pipeline["images"]),
            "--out", str(tmp_path / "c"), "--epsilon", "0.5", "--variant", "topk",
            "--k", "13", "--limit", "20",
        ])
        assert rc == 0
        assert "attacked=20" in capsys.readouterr().out


class TestDetectCommand:
    def test_reports_labels(self, pipeline, tmp_path, capsys):
        img, label = pipeline["dataset"][0][0], pipeline["dataset"][1][0]
        path = tmp_path / "sample.pgm"
        path.write_bytes(ag.write_pgm_ppm(img))
        assert main(["detect", "--model", str(pipeline["model"]), str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"adversarial=(true|false) original=\d+ denoised=\d+", out)

    def test_requires_exactly_one_classifier(self, pipeline, tmp_path, capsys):
        path = tmp_path / "img.pgm"
        path.write_bytes(ag.write_pgm_ppm(ag.Image(np.zeros((4, 4), dtype=np.uint8))))
        assert main(["detect", str(path)]) == 2
        assert main(["detect", "--model", "m", "--external", "cmd", str(path)]) == 2

    def test_external_classifier(self, tmp_path, capsys):
        stub = tmp_path / "stub.py"
        stub.write_text("print('0.2 0.8')\n")
        path = tmp_path / "img.pgm"
        path.write_bytes(ag.write_pgm_ppm(ag.Image(np.zeros((4, 4), dtype=np.uint8))))
        rc = main(["detect", "--external", f'"{sys.executable}" "{stub}"', str(path)])
        assert rc == 0
        assert "adversarial=false original=1 denoised=1" in capsys.readouterr().out

    def test_external_failure_exit_code(self, tmp_path, capsys):
        stub = tmp_path / "bad.py"
        stub.write_text("import sys; sys.exit(5)\n")
        path = tmp_path / "img.pgm"
        path.write_bytes(ag.write_pgm_ppm(ag.Image(np.zeros((4, 4), dtype=np.uint8))))
        rc = main(["detect", "--external", f'"{sys.executable}" "{stub}"', str(path)])
        assert rc == 4

    def test_external_timeout_exit_code(self, tmp_path, capsys):
        path = tmp_path / "img.pgm"
        path.write_bytes(ag.write_pgm_ppm(ag.Image(np.zeros((4, 4), dtype=np.uint8))))
        start = time.monotonic()
        rc = main(["detect", "--external", SLEEPER, "--timeout", "0.5", str(path)])
        assert rc == 4 and time.monotonic() - start < 10
        assert "timed out after 0.5 s" in capsys.readouterr().err


class TestEvalCommand:
    def test_summary_and_report(self, pipeline, tmp_path, capsys):
        report = tmp_path / "report.csv"
        rc = main([
            "eval", "--model", str(pipeline["model"]), "--corpus", str(pipeline["corpus"]),
            "--report", str(report),
        ])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"recall=\d\.\d{4} precision=\d\.\d{4}", out)
        assert report.is_file()

    def test_reports_are_reproducible(self, pipeline, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["eval", "--model", str(pipeline["model"]), "--corpus", str(pipeline["corpus"])]
        assert main(base + ["--report", str(a)]) == 0
        assert main(base + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_corpus_exit_code(self, pipeline, tmp_path, capsys):
        rc = main(["eval", "--model", str(pipeline["model"]), "--corpus", str(tmp_path / "none")])
        assert rc == 3
        assert "empty corpus" in capsys.readouterr().err

    def test_partial_corpus_exit_code(self, pipeline, tmp_path, capsys):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(pipeline["corpus"], broken)
        victim = next(broken.glob("*_adv.pgm"))
        victim.unlink()
        rc = main(["eval", "--model", str(pipeline["model"]), "--corpus", str(broken)])
        assert rc == 3
        assert victim.stem.split("_")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["", "00000,0", "../00000,0,1", "sub/00000,0,1"])
    def test_malformed_manifest_row_exit_code(self, pipeline, tmp_path, capsys, row):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(pipeline["corpus"], broken)
        with open(broken / "manifest.csv", "a") as f:
            f.write(row + "\n")
        rc = main(["eval", "--model", str(pipeline["model"]), "--corpus", str(broken)])
        assert rc == 3
        assert "malformed manifest" in capsys.readouterr().err

    def test_external_timeout_exit_code(self, pipeline, tmp_path, capsys):
        import shutil
        corpus = tmp_path / "one"
        shutil.copytree(pipeline["corpus"], corpus)
        manifest = corpus / "manifest.csv"
        manifest.write_text("".join(manifest.read_text().splitlines(keepends=True)[:2]))
        start = time.monotonic()
        rc = main(["eval", "--external", SLEEPER, "--timeout", "0.5", "--corpus", str(corpus)])
        assert rc == 4 and time.monotonic() - start < 10
        assert "timed out" in capsys.readouterr().err

    def test_timed_out_classifier_not_rerun(self, pipeline, tmp_path, capsys):
        import shutil
        corpus = tmp_path / "three"
        shutil.copytree(pipeline["corpus"], corpus)
        manifest = corpus / "manifest.csv"
        manifest.write_text("".join(manifest.read_text().splitlines(keepends=True)[:4]))
        log = tmp_path / "starts.txt"
        stub = tmp_path / "hang.py"
        stub.write_text(f"import time\nwith open({str(log)!r}, 'a') as f:\n    f.write('start\\n')\ntime.sleep(30)\n")
        start = time.monotonic()
        rc = main(["eval", "--external", f'"{sys.executable}" "{stub}"', "--timeout", "0.5", "--corpus", str(corpus)])
        assert rc == 4 and time.monotonic() - start < 10
        assert log.read_text().splitlines() == ["start"]
        assert capsys.readouterr().err.count("not run again") == 5  # 3 pairs, 6 images, 1 timeout


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["eval"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("command", ["train", "attack"])
    def test_negative_limit_rejected(self, pipeline, tmp_path, command, capsys):
        args = {
            "train": ["train", "--labels", str(pipeline["labels"]), "--model", str(tmp_path / "m.bin")],
            "attack": ["attack", "--model", str(pipeline["model"]), "--out", str(tmp_path / "c")],
        }[command]
        assert main(args + ["--images", str(pipeline["images"]), "--limit", "-1"]) == 2
        assert "--limit: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists() and not (tmp_path / "c").exists()

    @pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf"])
    def test_nonpositive_timeout_rejected(self, tmp_path, seconds, capsys):
        assert main(["detect", "--external", "cmd", "--timeout", seconds, str(tmp_path / "x.pgm")]) == 2
        assert "--timeout: must be finite and > 0" in capsys.readouterr().err
