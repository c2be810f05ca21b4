import errno
import gzip
import hashlib
import os
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

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

    def test_gzipped_idx_pair_same_model(self, pipeline, tmp_path):
        gzipped = {}
        for key in ("images", "labels"):
            gzipped[key] = tmp_path / f"{pipeline[key].name}.gz"
            gzipped[key].write_bytes(gzip.compress(pipeline[key].read_bytes()))
        args = ["train", "--epochs", "2", "--hidden", "8", "--seed", "11"]
        digests = []
        for paths, name in ((pipeline, "plain.bin"), (gzipped, "gzipped.bin")):
            rc = main(args + ["--images", str(paths["images"]), "--labels", str(paths["labels"]),
                              "--model", str(tmp_path / name)])
            assert rc == 0
            digests.append(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_zero_hidden_units_rejected(self, pipeline, tmp_path, capsys):
        rc = main([
            "train", "--images", str(pipeline["images"]), "--labels", str(pipeline["labels"]),
            "--model", str(tmp_path / "m.bin"), "--hidden", "0",
        ])
        assert rc == 1
        assert "hidden layer size is 0" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    def test_non_finite_learning_rate_rejected(self, pipeline, tmp_path, capsys):
        rc = main([
            "train", "--images", str(pipeline["images"]), "--labels", str(pipeline["labels"]),
            "--model", str(tmp_path / "m.bin"), "--learning-rate", "nan",
        ])
        assert rc == 1
        assert "learning rate must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    def test_negative_seed_rejected(self, pipeline, tmp_path, capsys):
        rc = main([
            "train", "--images", str(pipeline["images"]), "--labels", str(pipeline["labels"]),
            "--model", str(tmp_path / "m.bin"), "--seed", "-1",
        ])
        assert rc == 1
        assert "error: seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()


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

    def test_k_without_topk_variant_rejected(self, pipeline, tmp_path, capsys):
        rc = main([
            "attack", "--model", str(pipeline["model"]), "--images", str(pipeline["images"]),
            "--out", str(tmp_path / "c"), "--k", "50",
        ])
        assert rc == 1
        assert "k applies only to the top-k variant" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_no_images_is_an_error(self, pipeline, tmp_path, capsys):
        rc = main([
            "attack", "--model", str(pipeline["model"]), "--images", str(pipeline["images"]),
            "--labels", str(pipeline["labels"]), "--out", str(tmp_path / "c"), "--limit", "0",
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: empty dataset\n"
        assert not (tmp_path / "c").exists()


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
        assert main(["detect", "--external", " ", str(path)]) == 2
        assert main(["detect", "--model", "", str(path)]) == 2

    @pytest.mark.parametrize("command", ["python3 'stub.py", '""'])
    def test_unsplittable_external_command_is_usage_error(self, tmp_path, capsys, command):
        # a missing image would exit 1 if it were read first
        assert main(["detect", "--external", command, str(tmp_path / "missing.pgm")]) == 2
        err = capsys.readouterr().err
        assert "--external: " in err and "Traceback" not in err

    def test_overflowing_model_prints_only_the_error(self, tmp_path):
        model = tmp_path / "model.bin"
        ag.save_model(ag.ClassifierModel(np.zeros((16, 3)) + 1e308, np.zeros(3),
                                         np.zeros((3, 5)) + 1e308, np.zeros(5)), model)
        path = tmp_path / "bright.pgm"
        path.write_bytes(ag.write_pgm_ppm(ag.Image(np.full((4, 4), 255, dtype=np.uint8))))
        src = str(Path(ag.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "advguard.cli", "detect", "--model", str(model), str(path)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 4
        assert proc.stderr == f"error: sample {path}: confidences must be finite and nonnegative\n"

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

    def test_external_empty_output_exit_code(self, tmp_path, capsys):
        stub = tmp_path / "silent.py"
        stub.write_text("")
        path = tmp_path / "img.pgm"
        path.write_bytes(ag.write_pgm_ppm(ag.Image(np.zeros((4, 4), dtype=np.uint8))))
        rc = main(["detect", "--external", f'"{sys.executable}" "{stub}"', str(path)])
        assert rc == 4
        assert capsys.readouterr().err == f"error: sample {path}: prediction vector is empty\n"

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

    def test_unopenable_file_name_is_two_corpus_errors(self, pipeline, tmp_path, capsys):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(pipeline["corpus"], broken)
        long_id = "x" * 300  # a valid manifest id whose file names are too long to open
        with open(broken / "manifest.csv", "a") as f:
            f.write(f"{long_id},0,1\n")
        rc = main(["eval", "--model", str(pipeline["model"]), "--corpus", str(broken)])
        assert rc == 3
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert [line.split(": [Errno")[0] for line in errors] == [f"error: {long_id} (original)",
                                                                  f"error: {long_id} (adversarial)"]
        assert all(f"[Errno {errno.ENAMETOOLONG}]" in line for line in errors)

    def test_repeated_manifest_id_exit_code(self, pipeline, tmp_path, capsys):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(pipeline["corpus"], broken)
        first = (broken / "manifest.csv").read_text().splitlines()[1]
        with open(broken / "manifest.csv", "a") as f:
            f.write(first + "\n")
        rc = main(["eval", "--model", str(pipeline["model"]), "--corpus", str(broken)])
        assert rc == 3
        assert f"repeats id '{first.split(',')[0]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        ("python3 'stub.py", "No closing quotation"),
        ('""', "classifier command '\"\"' names no program"),
    ], ids=["unbalanced-quote", "empty-program"])
    def test_unsplittable_external_command_is_usage_error(self, pipeline, tmp_path, capsys, command, message):
        # found by the argument parser, before the corpus is read
        rc = main(["eval", "--external", command, "--corpus", str(pipeline["corpus"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.search("--external: " + message, err) and "Traceback" not in err

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

    def test_external_classifier_report_equals_the_model_report(self, pipeline, tmp_path):
        import shutil
        corpus = tmp_path / "two"
        shutil.copytree(pipeline["corpus"], corpus)
        manifest = corpus / "manifest.csv"
        manifest.write_text("".join(manifest.read_text().splitlines(keepends=True)[:3]))
        stub = tmp_path / "forward.py"  # the fixture's model, run by forward in a process of its own
        stub.write_text(f"import sys\nsys.path.insert(0, {str(Path(ag.__file__).parent.parent)!r})\n"
                        "import advguard as ag\n"
                        f"model = ag.load_model({str(pipeline['model'])!r})\n"
                        "img = ag.read_pgm_ppm(open(sys.argv[1], 'rb').read())\n"
                        "print(*map(repr, ag.forward(model, img).confidences.tolist()))\n")
        external, built_in = tmp_path / "external.csv", tmp_path / "model.csv"
        assert main(["eval", "--external", f'"{sys.executable}" "{stub}"', "--timeout", "60",
                     "--corpus", str(corpus), "--report", str(external)]) == 0
        assert main(["eval", "--model", str(pipeline["model"]), "--corpus", str(corpus),
                     "--report", str(built_in)]) == 0
        assert len(external.read_text().splitlines()) == 1 + 4 + 2  # header, 4 sample rows, summary header and row
        assert external.read_bytes() == built_in.read_bytes()

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

    @pytest.mark.parametrize("command", ["train", "attack"])
    def test_more_labels_than_images_rejected(self, pipeline, tmp_path, command, capsys):
        images, labels = pipeline["dataset"]
        images_path, _ = write_idx_pair(tmp_path, images[:10], labels[:10], "few")
        labels_path = tmp_path / "more-labels-idx1"
        labels_path.write_bytes(struct.pack(">II", 0x801, 12) + bytes(labels[:12]))
        args = {
            "train": ["train", "--model", str(tmp_path / "m.bin")],
            "attack": ["attack", "--model", str(pipeline["model"]), "--out", str(tmp_path / "c")],
        }[command]
        assert main(args + ["--images", str(images_path), "--labels", str(labels_path)]) == 1
        assert capsys.readouterr().err == "error: 10 images but 12 labels\n"
        assert not (tmp_path / "m.bin").exists() and not (tmp_path / "c").exists()

    @pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf"])
    def test_nonpositive_timeout_rejected(self, tmp_path, seconds, capsys):
        assert main(["detect", "--external", "cmd", "--timeout", seconds, str(tmp_path / "x.pgm")]) == 2
        assert "--timeout: timeout must be a finite number of seconds > 0" in capsys.readouterr().err
