"""Offline end-to-end regression pin: train -> attack -> evaluate -> report.

Runs the whole chain on seeded synthetic digits, so it needs no download.
The pinned counts and report digest are what the code produced when the
test was written: a change that moves them changed behaviour somewhere in
the chain. They are not a quality target.
"""

import hashlib

import advguard as ag
from synth import template_digits


def test_seeded_synthetic_pipeline_is_pinned(tmp_path):
    train_x, train_y = template_digits(300, seed=3, noise=60.0)
    test_x, test_y = template_digits(100, seed=4, noise=60.0)
    model = ag.train(train_x, train_y, ag.TrainConfig(epochs=3, seed=42), hidden=32)

    summary = ag.build_attack_corpus(model, test_x, test_y, ag.AttackConfig(epsilon=0.10), tmp_path / "corpus")
    assert (summary.attacked, summary.skipped, summary.effectual) == (99, 1, 51)

    result = ag.evaluate(ag.ModelClassifier(model), tmp_path / "corpus")
    assert result.ok
    s = result.stats
    assert (s.tp, s.fn, s.fp, s.tn) == (20, 31, 0, 51)

    report = tmp_path / "report.csv"
    ag.write_report(s, result.verdicts, report)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "88038f06f95c64503544be855b38d1c971044dc33cb8d986ed5564505698966f"
    )
