"""Corpus handling: JSONL ingestion, TF-IDF features, synthetic fixtures.

Featurization is the smooth-idf variant with raw term counts:

    tokenize  = lowercase, split on all but letters and digits (of any script)
    tf(t, d)  = count of t in d
    idf(t)    = ln((1 + D) / (1 + df(t))) + 1
    vector    = L2-normalized tf*idf over the lexicographically sorted vocabulary

Empty or all-out-of-vocabulary documents transform to the zero vector.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UsageError
from .linalg import SeededRng, uniform_to_int

_TOKEN_RE = re.compile(r"[^\W_]+")  # \w without the underscore
_POOL_SIZE = 10  # synth_corpus terms per component pool and in the shared pool


@dataclass
class Document:
    id: str
    text: str
    task: str | None = None


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object's dict; a key given twice is a ParseError, not the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ParseError(f"repeated key {repeated!r}")
    return obj


def parse_json(text: str):
    """json.loads with _unique_keys; bad or too deeply nested JSON is a ParseError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON ({e.msg})") from e
    except RecursionError as e:
        raise ParseError("JSON nested too deeply") from e


def load_jsonl(path) -> list[Document]:
    """One JSON object per line with fields id, text, optional task; ids are unique."""
    docs = []
    seen = set()
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from e
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = parse_json(line)
        except ParseError as e:
            raise ParseError(f"{path}: line {lineno}: {e}") from e
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise ParseError(f"{path}: line {lineno}: need 'id' and 'text' fields")
        doc_id, text, task = obj["id"], obj["text"], obj.get("task")
        if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
            raise ParseError(f"{path}: line {lineno}: id must be a string or an integer, "
                             f"got {doc_id!r}")
        if not isinstance(text, str):
            raise ParseError(f"{path}: line {lineno}: text must be a string, got {text!r}")
        if task is not None and not isinstance(task, str):
            raise ParseError(f"{path}: line {lineno}: task must be a string or null, "
                             f"got {task!r}")
        doc = Document(id=str(doc_id), text=text, task=task)
        if doc.id in seen:
            raise ParseError(f"{path}: line {lineno}: duplicate document id {doc.id!r}")
        seen.add(doc.id)
        docs.append(doc)
    return docs


def save_jsonl(path, docs: list[Document]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc in docs:
            obj = {"id": doc.id, "text": doc.text}
            if doc.task is not None:
                obj["task"] = doc.task
            f.write(json.dumps(obj, sort_keys=True) + "\n")


@dataclass
class TfIdfModel:
    vocabulary: dict[str, int]   # term -> column, sorted lexicographically
    idf: np.ndarray


def tfidf_fit(docs: list[Document]) -> TfIdfModel:
    if not docs:
        raise UsageError("cannot fit tf-idf on an empty corpus")
    df: Counter = Counter()
    for doc in docs:
        df.update(set(tokenize(doc.text)))
    vocab = {term: i for i, term in enumerate(sorted(df))}
    n = len(docs)
    idf = np.zeros(len(vocab))
    for term, i in vocab.items():
        idf[i] = np.log((1.0 + n) / (1.0 + df[term])) + 1.0
    return TfIdfModel(vocabulary=vocab, idf=idf)


def tfidf_transform(model: TfIdfModel, doc: Document | str) -> np.ndarray:
    text = doc.text if isinstance(doc, Document) else doc
    vec = np.zeros(len(model.vocabulary))
    for term, count in Counter(tokenize(text)).items():
        col = model.vocabulary.get(term)
        if col is not None:
            vec[col] = count * model.idf[col]
    norm = np.sqrt((vec * vec).sum())
    if norm > 0.0:
        vec /= norm
    return vec


def tfidf_matrix(model: TfIdfModel, docs: list[Document]) -> np.ndarray:
    return np.stack([tfidf_transform(model, d) for d in docs])


def synth_corpus(n_components: int, docs_per_component: int, disjointness: float,
                 seed: int, doc_len: int = 12) -> list[Document]:
    """Corpus with planted components, recorded in each document's task tag.

    Each component owns a private term pool; every token is drawn from the
    private pool with probability `disjointness`, else from a pool common to
    all components. disjointness = 0 collapses everything onto the shared
    pool; 1 makes components fully disjoint.
    """
    for name, v in (("n_components", n_components), ("docs_per_component", docs_per_component),
                    ("doc_len", doc_len)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise UsageError(f"{name} must be an integer >= 1, got {v!r}")
    if not (0.0 <= disjointness <= 1.0):
        raise UsageError(f"disjointness must be in [0, 1], got {disjointness}")
    rng = SeededRng(seed).derive("synth-corpus")
    # one block; per document, in stream order: coins, own-pool picks, shared-pool picks
    block = rng.uniform(n_components * docs_per_component * 3 * doc_len)
    block = block.reshape(n_components, docs_per_component, 3, doc_len)
    own_token = (block[:, :, 0] < disjointness).tolist()
    picks = uniform_to_int(block[:, :, 1:], _POOL_SIZE).tolist()
    shared = [f"common{j}" for j in range(_POOL_SIZE)]
    docs = []
    for c in range(n_components):
        own = [f"topic{c}term{j}" for j in range(_POOL_SIZE)]
        for d in range(docs_per_component):
            words = [own[o] if coin else shared[s]
                     for coin, o, s in zip(own_token[c][d], *picks[c][d])]
            docs.append(Document(id=f"c{c}d{d}", text=" ".join(words), task=f"component{c}"))
    return docs
