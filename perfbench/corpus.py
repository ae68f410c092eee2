"""Seeded inputs and the independent checks the workloads apply to answers.

Everything the program receives is made here from the run's ``--seed``: a
two-topic text corpus with a ground-truth class per entity, replacement texts
for edits, and the per-round choice of entities.  The checks recompute what
the view must say without asking the program: labels from the model snapshot
and a featurisation written here, the base table from the benchmark's own
record of the edits that succeeded, and accuracy from the ground truth.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass

__all__ = [
    "BenchmarkError",
    "Corpus",
    "CorpusShape",
    "check_labels",
    "check_majority",
    "round_rng",
]

POSITIVE = "database"
NEGATIVE = "other"
VIEW_POSITIVE = "database"
VIEW_NEGATIVE = "not_database"

_TOKEN = re.compile(r"[a-z0-9]+")

#: Margins closer to zero than this may round to either side.
MARGIN_EXEMPT = 1e-9


class BenchmarkError(RuntimeError):
    """An answer of the program did not match the benchmark's own computation.

    ``attempted`` and ``failed`` are the operation counts the run had reached
    when the mismatch was found; whoever knows them sets them on the way up.
    """

    attempted = 0
    failed = 0


@dataclass(frozen=True)
class CorpusShape:
    """Sizes of one generated corpus."""

    entities: int
    vocabulary: int
    topic_words: int
    words_per_entity: int
    words_spread: int
    topic_share: float
    positive_share: float
    first_id: int


def round_rng(seed: int, label: str, index: int) -> random.Random:
    """A generator for one round (or phase); string seeds hash the same in every process."""
    return random.Random(f"{seed}:{label}:{index}")


class Corpus:
    """A two-topic corpus: each word is a topic word of the entity's class or a shared word."""

    def __init__(self, seed: int, shape: CorpusShape) -> None:
        self.shape = shape
        rng = random.Random(f"{seed}:corpus")
        positives = round(shape.entities * shape.positive_share)
        labels = [1] * positives + [-1] * (shape.entities - positives)
        rng.shuffle(labels)
        self.ids: list[int] = []
        self.truth: dict[int, int] = {}
        self.texts: dict[int, str] = {}
        for offset, label in enumerate(labels):
            entity_id = shape.first_id + offset
            self.ids.append(entity_id)
            self.truth[entity_id] = label
            self.texts[entity_id] = self.text(rng, label)
        #: Loaded lengths: an edit never makes a corpus row longer than this,
        #: so no edit of a corpus row can overflow its heap page.
        self.loaded_chars = {entity_id: len(text) for entity_id, text in self.texts.items()}

    def _word(self, rng: random.Random, label: int) -> str:
        shape = self.shape
        if rng.random() < shape.topic_share:
            base = 0 if label == 1 else shape.topic_words
            return f"w{base + rng.randrange(shape.topic_words)}"
        return f"w{2 * shape.topic_words + rng.randrange(shape.vocabulary - 2 * shape.topic_words)}"

    def text(self, rng: random.Random, label: int, max_chars: int | None = None) -> str:
        """A fresh text of class ``label``, at most ``max_chars`` long when given."""
        shape = self.shape
        count = shape.words_per_entity + rng.randint(-shape.words_spread, shape.words_spread)
        words: list[str] = []
        length = -1
        for _ in range(count):
            word = self._word(rng, label)
            if max_chars is not None and length + 1 + len(word) > max_chars:
                break
            words.append(word)
            length += 1 + len(word)
        return " ".join(words)

    def label_name(self, entity_id: int) -> str:
        return POSITIVE if self.truth[entity_id] == 1 else NEGATIVE


def term_frequencies(text: str) -> dict[str, float]:
    """l1-normalised term frequencies, the definition of ``tf_bag_of_words``."""
    counts = Counter(_TOKEN.findall(text.lower()))
    total = sum(counts.values())
    if not total:
        return {}
    return {token: count / total for token, count in counts.items()}


def check_labels(
    labels: dict[int, str],
    texts: dict[int, str],
    weights: dict[int, float],
    bias: float,
    vocabulary,
) -> tuple[int, int]:
    """Every label must equal sign(w.f - b); returns (checked, exempt).

    ``labels`` are the view's answers, ``texts`` the benchmark's record of
    each entity's current text, ``weights``/``bias`` the model snapshot and
    ``vocabulary`` the feature function's token-to-index map.
    """
    checked = exempt = 0
    for entity_id, answer in labels.items():
        margin = -bias
        for token, value in term_frequencies(texts[entity_id]).items():
            index = vocabulary.get(token)
            if index is not None:
                margin += weights.get(index, 0.0) * value
        if abs(margin) < MARGIN_EXEMPT:
            exempt += 1
            continue
        expected = VIEW_POSITIVE if margin >= 0.0 else VIEW_NEGATIVE
        if answer != expected:
            raise BenchmarkError(
                f"entity {entity_id}: view says {answer!r}, sign(w.f - b) = {margin:+.3e}"
            )
        checked += 1
    return checked, exempt


def check_majority(labels: dict[int, str], truth: dict[int, int]) -> tuple[float, float]:
    """The view must agree with the ground truth more often than the majority class."""
    scored = [entity_id for entity_id in labels if entity_id in truth]
    positives = sum(1 for entity_id in scored if truth[entity_id] == 1)
    majority = max(positives, len(scored) - positives) / len(scored)
    agree = sum(
        1
        for entity_id in scored
        if (labels[entity_id] == VIEW_POSITIVE) == (truth[entity_id] == 1)
    ) / len(scored)
    if agree <= majority:
        raise BenchmarkError(
            f"view agrees with the ground truth on {agree:.3f} of entities, "
            f"no better than the majority rate {majority:.3f}"
        )
    return agree, majority
