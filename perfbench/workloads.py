"""The three benchmark workloads: set-up, one timed round, and output checks.

Each workload is one caller in one process running a closed loop: the
next library call starts when the previous one returns. A round is the
workload's unit of repeated work; every round must return outputs equal,
call by call, to those of the untimed check cycle that precedes timing.
"""

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from generators import RGB_PLAN, band_images, random_weights, synthetic_digits


@dataclass
class Round:
    outputs: list   # one JSON-able entry per library call, in call order
    calls: dict     # input key -> wall time of the latency call on that input
    rates: dict     # rate key -> (images, wall time) of a throughput call
    wall_s: float   # wall time of every timed call in the round
    verdicts: list = field(default_factory=list)  # verdict tuples of the detect loop
    attack: tuple = (0, 0)  # (attacked, effectual) of a corpus built in the round


def verdict_tuple(v):
    return [v.sample_id, v.original_label, v.denoised_label, bool(v.adversarial),
            f"{v.h2d:.4f}", v.strategy.intervals]


def failure(e):
    return ["error", type(e).__name__, str(e)[:200]]


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def detect_loop(ag, classify, images):
    """Closed-loop detect over (sample id, Image) pairs: outputs, latency by position, verdicts."""
    outputs, calls, verdicts = [], {}, []
    for i, (sample_id, img) in enumerate(images):
        t = perf_counter()
        try:
            out = verdict_tuple(ag.detect(classify, img, sample_id=sample_id))
        except Exception as e:  # counted as a failed call, the loop goes on
            out = failure(e)
        calls[i] = perf_counter() - t
        outputs.append(out)
        if out[0] != "error":
            verdicts.append(out)
    return outputs, calls, verdicts


class Workload:
    """Seeded inputs, a set-up step and a repeatable round."""

    name = ""
    call = ""   # the call timed by call_ms_p50/p90
    rate = ""   # the call rated by img_per_s
    setup_calls = ""  # the library calls timed by setup_s
    cycle = 1   # rounds before the inputs repeat

    def __init__(self, ag, seed, workdir):
        self.ag = ag
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def prepare(self):
        """Generate the seeded inputs; runs once and is not timed."""
        raise NotImplementedError

    def setup(self):
        """The library calls that turn the inputs into the round's state; timed as setup_s."""
        raise NotImplementedError

    def run_round(self, scope, k):
        """Round k of the cycle; `scope` is entered around the timed library calls only."""
        raise NotImplementedError

    def check(self, check_rounds):
        """Extra digest parts and named pass/fail checks for the check cycle."""
        return {}, []

    def oracle_planes(self):
        """A few 28x28 uint8 planes for the nested-loop oracle spot checks."""
        raise NotImplementedError

    def attack_counts(self, check_rounds):
        """(attacked, effectual) behind the workload's attack corpora."""
        return tuple(sum(r.attack[i] for r in check_rounds) for i in (0, 1))

    def named_metrics(self, summary):
        """The workload's end-to-end figures under their descriptive names."""
        return []


class MnistEval(Workload):
    """Evaluate on-disk FGSM corpora of 28x28 digits, then detect their benign images."""

    name = "mnist-eval"
    call = "detect on one benign 28x28x1 corpus image"
    rate = "evaluate over each of 10 corpora (manifest and PGM reads included)"
    setup_calls = "train (5 epochs on 2000 digits), 10 build_attack_corpus on 2000 digits, read_pgm_ppm"
    TRAIN = 2000
    ATTACK = 2000  # 5-12% are effectual: 100-250 pairs on disk
    CORPORA = 10   # one evaluate call per corpus, each short enough to time cleanly

    def prepare(self):
        self.train_set = synthetic_digits(self.ag, self.TRAIN, [self.seed, 1])
        self.attack_set = synthetic_digits(self.ag, self.ATTACK, [self.seed, 2])

    def setup(self):
        ag = self.ag
        attack_x, attack_y = self.attack_set
        # demo 03's fixed training seed: seeding it too spread the effectual
        # count over 34-133 pairs per 1000 and the corpus band mix with it
        config = ag.TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=42)
        self.model = ag.train(*self.train_set, config, hidden=128)
        self.root = Path(tempfile.mkdtemp(prefix="corpora-", dir=self.workdir))
        size = self.ATTACK // self.CORPORA
        self.corpora = [
            ag.build_attack_corpus(self.model, attack_x[i:i + size], attack_y[i:i + size],
                                   ag.AttackConfig(epsilon=0.10), self.root / f"{i // size}")
            for i in range(0, self.ATTACK, size)
        ]
        # the detect loop sees the benign half, ~80% band 6; the adversarial
        # half is ~80% band 4, so both halves together would put p50 on the
        # boundary between the two bands' latency clusters
        self.images = [
            (sample_id, ag.read_pgm_ppm((c.directory / f"{sample_id}_orig.pgm").read_bytes()))
            for c in self.corpora
            for sample_id, _, _ in c.manifest
        ]

    def run_round(self, scope, k):
        ag = self.ag
        classify = ag.ModelClassifier(self.model)
        outputs, rates = [], {}
        with scope:
            t0 = perf_counter()
            for c, corpus in enumerate(self.corpora):
                t = perf_counter()
                try:
                    result = ag.evaluate(classify, corpus.directory)
                    s = result.stats
                    evaluated = [[kind, verdict_tuple(v)] for kind, v in result.verdicts]
                    out = ["evaluate", evaluated, [s.tp, s.fn, s.fp, s.tn, s.recall, s.precision],
                           len(result.corpus_errors), len(result.classifier_errors)]
                except Exception as e:
                    out = failure(e)
                rates[c] = (2 * corpus.effectual, perf_counter() - t)
                outputs.append(out)
            detected, calls, verdicts = detect_loop(ag, classify, self.images)
            t1 = perf_counter()
        return Round(outputs=outputs + detected, calls=calls, rates=rates,
                     wall_s=t1 - t0, verdicts=verdicts)

    def check(self, check_rounds):
        parts = {"manifests": [[list(row) for row in c.manifest] for c in self.corpora],
                 "attacked": [c.attacked for c in self.corpora],
                 "skipped": [c.skipped for c in self.corpora]}
        outputs = check_rounds[0].outputs
        evaluated, detected = outputs[:self.CORPORA], outputs[self.CORPORA:]
        ok = all(out[0] == "evaluate" and out[3] == 0 and out[4] == 0 for out in evaluated)
        # evaluate and the detect loop see the benign images in the same order
        same = ok and [v for out in evaluated for kind, v in out[1] if kind == "original"] == detected
        return parts, [("evaluate without errors", ok), ("evaluate == detect loop", same)]

    def oracle_planes(self):
        return [img.pixels[:, :, 0] for _, img in self.images[:3]]

    def attack_counts(self, check_rounds):
        return sum(c.attacked for c in self.corpora), sum(c.effectual for c in self.corpora)

    def named_metrics(self, summary):
        evaluated = summary["check_rounds"][0].outputs[:self.CORPORA]
        tp, fn, fp, tn = (sum(out[2][i] for out in evaluated if out[0] == "evaluate") for i in range(4))
        recall = tp / (tp + fn) if tp + fn else 0.0
        precision = tp / (tp + fp) if tp + fp else 0.0
        return [
            ("detect_ms_p50", summary["call_ms_p50"], "ms", summary["call_note"]),
            ("detect_ms_p90", summary["call_ms_p90"], "ms", summary["call_note"]),
            ("detect_img_per_s", summary["call_img_per_s"], "1/s", "1 / mean best detect time"),
            ("eval_img_per_s", summary["img_per_s"], "1/s",
             f"{2 * len(self.images)} images in {self.CORPORA} corpora"),
            ("recall", recall, "ratio", f"tp={tp} fn={fn}, pooled over the corpora"),
            ("precision", precision, "ratio", f"fp={fp} tn={tn}"),
        ]


class Rgb224Detect(Workload):
    """Closed-loop detect over band-targeted 224x224x3 images."""

    name = "rgb224-detect"
    call = "detect on one 224x224x3 image"
    rate = "detect over the image set"
    setup_calls = "100 Image and one 150528-16-10 ClassifierModel (weights checked finite)"

    def prepare(self):
        self.pixels, self.plan = band_images(self.seed)
        self.weights = random_weights(self.seed)

    def setup(self):
        self.images = [self.ag.Image(p) for p in self.pixels]
        self.model = self.ag.ClassifierModel(*self.weights)
        self.named = [(f"{i:03d}", img) for i, img in enumerate(self.images)]

    def run_round(self, scope, k):
        classify = self.ag.ModelClassifier(self.model)
        with scope:
            t0 = perf_counter()
            outputs, calls, verdicts = detect_loop(self.ag, classify, self.named)
            t1 = perf_counter()
        return Round(outputs=outputs, calls=calls,
                     rates={key: (1, t) for key, t in calls.items()},
                     wall_s=t1 - t0, verdicts=verdicts)

    def check(self, check_rounds):
        denoised = [hashlib.sha256(self.ag.adaptive_filter(img).combined.pixels.tobytes()).hexdigest()
                    for img in self.images]
        bands = [out[5] if out[0] != "error" else None for out in check_rounds[0].outputs]
        return {"denoised": denoised}, [("bands as built", bands == self.plan)]

    def oracle_planes(self):
        # a 28x28 crop of one plane of the first image of each band
        firsts = [self.plan.index(band) for band in sorted(RGB_PLAN)]
        return [self.images[i].pixels[98:126, 98:126, k % 3] for k, i in enumerate(firsts)]

    def named_metrics(self, summary):
        return [
            ("detect_ms_p50", summary["call_ms_p50"], "ms", summary["call_note"]),
            ("detect_ms_p90", summary["call_ms_p90"], "ms", summary["call_note"]),
            ("detect_img_per_s", summary["img_per_s"], "1/s", "1 / mean best detect time"),
        ]


class MnistTrainAttack(Workload):
    """One train epoch on a shard of digits, then a full FGSM corpus build on disk."""

    name = "mnist-train-attack"
    call = "train, one epoch on a 2000-digit shard"
    rate = "build_attack_corpus (FGSM eps 0.10 on 100 digits, files written)"
    setup_calls = "train (5 epochs on 2000 digits)"
    SHARDS = 10  # round k uses shard k and attack set k, so inputs repeat every 10 rounds
    SHARD = 2000
    ATTACK = 100
    HELD_OUT = 500
    cycle = SHARDS

    def prepare(self):
        ag = self.ag
        xs, ys = synthetic_digits(ag, self.SHARDS * self.SHARD, [self.seed, 1])
        self.shards = [(xs[i:i + self.SHARD], ys[i:i + self.SHARD])
                       for i in range(0, len(xs), self.SHARD)]
        ax, ay = synthetic_digits(ag, self.SHARDS * self.ATTACK, [self.seed, 2])
        self.attack_sets = [(ax[i:i + self.ATTACK], ay[i:i + self.ATTACK])
                            for i in range(0, len(ax), self.ATTACK)]
        self.held_x, self.held_y = synthetic_digits(ag, self.HELD_OUT, [self.seed, 3])

    def setup(self):
        ag = self.ag
        # the attacked model is trained once, as in mnist-eval: one-epoch models
        # range from 20% to 100% accuracy, and the number of files each attack
        # writes, which dominates its time, ranged with them
        config = ag.TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=42)
        self.model = ag.train(*self.shards[0], config, hidden=128)

    def run_round(self, scope, k):
        ag = self.ag
        config = ag.TrainConfig(epochs=1, batch_size=32, learning_rate=0.1, seed=42)
        attack_x, attack_y = self.attack_sets[k]
        out_dir = Path(tempfile.mkdtemp(prefix="attack-", dir=self.workdir))
        model = summary = None
        try:
            with scope:
                t0 = perf_counter()
                try:
                    model = ag.train(*self.shards[k], config, hidden=128)
                    train_out = None
                except Exception as e:
                    train_out = failure(e)
                t1 = perf_counter()
                try:
                    summary = ag.build_attack_corpus(
                        self.model, attack_x, attack_y, ag.AttackConfig(epsilon=0.10), out_dir)
                except Exception as e:
                    attack_out = failure(e)
                t2 = perf_counter()
            if model is not None:
                train_out = ["train", repr(ag.accuracy(model, self.held_x, self.held_y))]
            if summary is not None:
                files = hashlib.sha256()
                for path in sorted(out_dir.iterdir()):
                    files.update(path.name.encode() + b"\0" + path.read_bytes())
                attack_out = ["attack", summary.attacked, summary.skipped, summary.effectual,
                              files.hexdigest()]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return Round(outputs=[train_out, attack_out], calls={k: t1 - t0},
                     rates={k: (len(attack_x), t2 - t1)}, wall_s=t2 - t0,
                     attack=(summary.attacked, summary.effectual) if summary else (0, 0))

    def oracle_planes(self):
        return [img.pixels[:, :, 0] for img in self.attack_sets[0][0][:3]]

    def named_metrics(self, summary):
        accs = [r.outputs[0][1] for r in summary["check_rounds"] if r.outputs[0][0] == "train"]
        return [
            ("train_epoch_s", summary["call_ms_p50"] / 1000.0, "s", summary["call_note"]),
            ("attack_img_per_s", summary["img_per_s"], "1/s",
             f"{self.ATTACK} digits per corpus build; one-epoch held-out accuracy by shard "
             + ", ".join(accs)),
        ]


WORKLOADS = {w.name: w for w in (MnistEval, Rgb224Detect, MnistTrainAttack)}
