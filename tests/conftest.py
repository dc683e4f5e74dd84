import numpy as np
import pytest
from hypothesis import settings

from ettmt.corpus import FEATURE_NAMES, Lexicon, LexiconEntry

# Every property test draws the same examples on every run.  A test's own
# @settings keeps its max_examples and deadline and inherits derandomize.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def feature_vector(*names: str) -> tuple[int, ...]:
    """54-bit feature tuple with the named flags set."""
    idx = {FEATURE_NAMES.index(n) for n in names}
    return tuple(1 if i in idx else 0 for i in range(len(FEATURE_NAMES)))


WORD_ENTRIES = [
    ("itun", "this", feature_vector("demonstrative", "accusative")),
    ("turuce", "dedicated", feature_vector("active", "past")),
    ("clan", "son", feature_vector("nominative", "masculine")),
    ("thahvna", "container", feature_vector("nominative", "inanimate")),
    ("mi", "i am", feature_vector("pronoun", "1st person")),
    # untranslatable entry: usable for lookups, not for translation
    ("dlniiaras", "", feature_vector("plural")),
    # suffix gloss reachable by the suffix tokenizer
    ("-s", "of", feature_vector("1st genitive")),
]

# proper nouns; the two genitive pairs share identical feature vectors so the
# name augmentation has exactly one candidate per direction
NAME_ENTRIES = [
    ("venel", "venel", feature_vector("name", "praenomen", "nominative")),
    ("atelinas", "atelina", feature_vector("name", "nomen", "1st genitive")),
    ("tinas", "tinia", feature_vector("theonomin", "1st genitive")),
    ("aveles", "avele", feature_vector("name", "praenomen", "1st genitive", "masculine")),
    ("larthes", "larth", feature_vector("name", "praenomen", "1st genitive", "masculine")),
]

SUFFIXES = ("us", "s", "al", "ial")


@pytest.fixture(scope="session")
def lexicon() -> Lexicon:
    entries = tuple(
        LexiconEntry(etruscan=e, english=g, features=f) for e, g, f in WORD_ENTRIES + NAME_ENTRIES
    )
    return Lexicon(entries, SUFFIXES)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
