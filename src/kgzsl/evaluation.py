"""Per-fold strict accuracy metrics.

A prediction is strictly correct only when its label set equals the
gold set exactly.  Micro accuracy pools every mention across folds;
macro averages the per-fold accuracies, weighting folds equally no
matter their size.
"""

from dataclasses import dataclass

from .config import read_json
from .errors import ContractError, ParseError
from .zeroshot import ClassSet, repeated


_FOLD_KEYS = ("train", "test", "dev")


def _unknown_key(obj, known):
    """The first key of `obj` not in `known`, or None."""
    return next((key for key in obj if key not in known), None)


def _class_names(fold, key, where):
    """One split of a fold-file fold as a tuple of class names; dev may be absent."""
    if key not in fold and key != "dev":
        raise ParseError(f"{where} has no {key!r} list")
    names = fold.get(key, [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ParseError(f"{where} {key!r} is not a list of class names")
    twice = repeated(names)
    if twice is not None:
        raise ParseError(f"{where} {key!r} lists class {twice!r} twice")
    return tuple(names)


@dataclass(frozen=True)
class FoldSpec:
    """Zero-shot folds, each a ClassSet whose unseen classes are tested.

    A fold file names the splits train/dev/test, read as seen/dev/unseen.
    """

    folds: tuple

    def __post_init__(self):
        if not self.folds:
            raise ContractError("fold spec needs at least one fold")
        if not all(fold.unseen for fold in self.folds):
            raise ContractError("every fold needs test classes")

    def to_jsonable(self):
        return {
            "folds": [
                {"train": list(f.seen), "dev": list(f.dev), "test": list(f.unseen)}
                for f in self.folds
            ]
        }

    @classmethod
    def from_jsonable(cls, obj, source="fold spec"):
        """Parse the file form; any other shape, or a key other than
        `folds` at the top or train/test/dev in a fold, is a ParseError
        naming `source` and, where one is at fault, the fold index and key."""
        # a bad fold in a file is a data problem, not a caller bug
        folds = obj.get("folds") if isinstance(obj, dict) else None
        if not isinstance(folds, list):
            raise ParseError(f"malformed {source}: 'folds' is not a list of folds")
        extra = _unknown_key(obj, ("folds",))
        if extra is not None:
            raise ParseError(f"malformed {source}: unknown key {extra!r}")
        parsed = []
        for i, fold in enumerate(folds):
            where = f"malformed {source}: fold {i}"
            if not isinstance(fold, dict):
                raise ParseError(f"{where} is not a JSON object")
            extra = _unknown_key(fold, _FOLD_KEYS)
            if extra is not None:
                raise ParseError(f"{where} has unknown key {extra!r}")
            try:
                parsed.append(ClassSet(*(_class_names(fold, key, where) for key in _FOLD_KEYS)))
            except ContractError as exc:
                raise ParseError(f"{where}: {exc}") from None
        try:
            return cls(tuple(parsed))
        except ContractError as exc:
            raise ParseError(f"malformed {source}: {exc}") from None

    @classmethod
    def load(cls, path):
        return cls.from_jsonable(read_json(path, ParseError, "fold spec"), source=f"fold spec {path}")


def strict_match(predicted, gold):
    """Exact set equality between predicted and gold labels."""
    return set(predicted) == set(gold)


@dataclass(frozen=True)
class FoldResult:
    n: int
    correct: int

    @property
    def accuracy(self):
        return self.correct / self.n


@dataclass(frozen=True)
class EvalResult:
    per_fold: tuple
    micro: float
    macro: float

    def to_jsonable(self):
        return {
            "per_fold": [
                {"n": f.n, "correct": f.correct, "acc": round(f.accuracy, 4)}
                for f in self.per_fold
            ],
            "micro": round(self.micro, 4),
            "macro": round(self.macro, 4),
        }


def fold_metrics(fold_predictions):
    """Micro and macro strict accuracy over per-fold prediction pairs.

    Args:
        fold_predictions: one list per fold of (predicted, gold) label
            collections.  Every fold must be non-empty.
    """
    if not fold_predictions:
        raise ContractError("no folds to evaluate")
    per_fold = []
    for i, pairs in enumerate(fold_predictions):
        if not pairs:
            raise ContractError(f"fold {i} has no predictions")
        correct = sum(1 for pred, gold in pairs if strict_match(pred, gold))
        per_fold.append(FoldResult(n=len(pairs), correct=correct))
    total = sum(f.n for f in per_fold)
    hits = sum(f.correct for f in per_fold)
    micro = hits / total
    macro = sum(f.accuracy for f in per_fold) / len(per_fold)
    return EvalResult(per_fold=tuple(per_fold), micro=micro, macro=macro)

