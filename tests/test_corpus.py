import re

import numpy as np
import pytest

from hydra_peft import corpus as cp
from hydra_peft.errors import ParseError, UsageError
from hydra_peft.linalg import SeededRng


def _docs(texts):
    return [cp.Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]


def test_idf_hand_values():
    model = cp.tfidf_fit(_docs(["a b", "a c"]))
    # smooth idf: ln((1+D)/(1+df)) + 1
    assert model.idf[model.vocabulary["a"]] == pytest.approx(1.0, abs=1e-12)
    want = np.log(1.5) + 1.0
    assert model.idf[model.vocabulary["b"]] == pytest.approx(want, abs=1e-12)
    assert model.idf[model.vocabulary["c"]] == pytest.approx(want, abs=1e-12)


def test_identical_documents_flatten_idf():
    model = cp.tfidf_fit(_docs(["x y z", "x y z", "x y z"]))
    assert np.allclose(model.idf, 1.0, atol=1e-15)


def test_transform_hand_values():
    model = cp.tfidf_fit(_docs(["a b", "a c"]))
    vec = cp.tfidf_transform(model, "a b")
    idf_b = np.log(1.5) + 1.0
    raw = np.zeros(3)
    raw[model.vocabulary["a"]] = 1.0
    raw[model.vocabulary["b"]] = idf_b
    want = raw / np.sqrt((raw * raw).sum())
    assert np.abs(vec - want).max() < 1e-12
    # cross-check the spec'd rounded values
    assert vec[model.vocabulary["a"]] == pytest.approx(0.580, abs=5e-4)
    assert vec[model.vocabulary["b"]] == pytest.approx(0.815, abs=5e-4)


def test_empty_and_oov_docs_are_zero_vectors():
    model = cp.tfidf_fit(_docs(["a b", "a c"]))
    assert not cp.tfidf_transform(model, "").any()
    assert not cp.tfidf_transform(model, "zz qq").any()


def test_transform_norms_are_unit_or_zero():
    rng = SeededRng(5)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(vocab[int(j)] for j in rng.integers(12, 30)) for _ in range(40)]
    model = cp.tfidf_fit(_docs(texts))
    for t in texts:
        norm = np.sqrt((cp.tfidf_transform(model, t) ** 2).sum())
        assert abs(norm - 1.0) < 1e-12


def test_fit_is_order_insensitive():
    docs = _docs(["c d", "a b", "b c"])
    m1 = cp.tfidf_fit(docs)
    m2 = cp.tfidf_fit(list(reversed(docs)))
    assert m1.vocabulary == m2.vocabulary
    assert np.array_equal(m1.idf, m2.idf)


def test_idf_monotone_in_document_frequency():
    # raising df can only lower (or keep) a term's idf
    for d_total in (3, 10):
        prev = np.inf
        for df in range(1, d_total + 1):
            val = np.log((1.0 + d_total) / (1.0 + df)) + 1.0
            assert val <= prev + 1e-15
            assert val > 0.0
            prev = val


def test_empty_corpus_rejected():
    with pytest.raises(UsageError):
        cp.tfidf_fit([])


def test_tokenizer_lowercase_nonalnum_split():
    assert cp.tokenize("Hello, WORLD-42! x") == ["hello", "world", "42", "x"]


def test_tokenizer_keeps_letters_of_any_script():
    assert cp.tokenize("Straße") == ["straße"]
    assert cp.tokenize("Καλημέρα, ΚΌΣΜΕ!") == ["καλημέρα", "κόσμε"]
    assert cp.tokenize("snake_case") == ["snake", "case"]


def test_tokenizer_splits_ascii_as_lowercase_alphanumeric_runs():
    text = "".join(map(chr, range(128))) * 2
    assert cp.tokenize(text) == re.findall("[a-z0-9]+", text.lower())


def test_synth_corpus_counts_and_labels():
    docs = cp.synth_corpus(3, 50, 0.8, seed=1)
    assert len(docs) == 150
    assert len({d.task for d in docs}) == 3
    assert len({d.id for d in docs}) == 150


def test_synth_corpus_deterministic():
    a = cp.synth_corpus(2, 5, 0.5, seed=9)
    b = cp.synth_corpus(2, 5, 0.5, seed=9)
    assert [(d.id, d.text, d.task) for d in a] == [(d.id, d.text, d.task) for d in b]


def test_synth_corpus_zero_disjointness_uses_only_shared_pool():
    docs = cp.synth_corpus(3, 10, 0.0, seed=2)
    for d in docs:
        assert all(t.startswith("common") for t in cp.tokenize(d.text))


def test_synth_corpus_validates():
    with pytest.raises(UsageError):
        cp.synth_corpus(0, 5, 0.5, seed=0)
    with pytest.raises(UsageError):
        cp.synth_corpus(2, 5, 1.5, seed=0)


@pytest.mark.parametrize("doc_len", [0, -3])
def test_synth_corpus_rejects_empty_documents(doc_len):
    with pytest.raises(UsageError, match="doc_len"):
        cp.synth_corpus(2, 5, 0.5, seed=0, doc_len=doc_len)


@pytest.mark.parametrize("name,value", [
    ("n_components", 2.0), ("n_components", True), ("docs_per_component", 2.5),
    ("docs_per_component", True), ("doc_len", 2.5), ("doc_len", True)])
def test_synth_corpus_rejects_non_integer_counts(name, value):
    args = {"n_components": 2, "docs_per_component": 5, "doc_len": 4, name: value}
    with pytest.raises(UsageError, match=f"{name} must be an integer"):
        cp.synth_corpus(disjointness=0.5, seed=0, **args)


def test_jsonl_round_trip(tmp_path):
    docs = [cp.Document("a", "hello there", "t0"), cp.Document("b", "general text", None)]
    path = tmp_path / "c.jsonl"
    cp.save_jsonl(path, docs)
    loaded = cp.load_jsonl(path)
    assert [(d.id, d.text, d.task) for d in loaded] == [(d.id, d.text, d.task) for d in docs]


def test_jsonl_bad_line_names_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "text": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        cp.load_jsonl(path)


def test_jsonl_unknown_fields_ignored(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "text": "x", "extra": [1, 2]}\n', encoding="utf-8")
    docs = cp.load_jsonl(path)
    assert docs[0].id == "a"


@pytest.mark.parametrize("line,message", [
    ('{"id": "b", "text": null}', "text must be a string"),
    ('{"id": "b", "text": 3}', "text must be a string"),
    ('{"id": "b", "text": "y", "task": {"k": 1}}', "task must be a string or null"),
    ('{"id": "b", "text": "y", "task": 2}', "task must be a string or null"),
    ('{"id": [1], "text": "y"}', "id must be a string or an integer"),
    ('{"id": 1.5, "text": "y"}', "id must be a string or an integer"),
    ('{"id": true, "text": "y"}', "id must be a string or an integer"),
    ('{"id": "b", "text": "y", "task": "t0", "id": "c"}', "repeated key 'id'"),
    ('{"id": "b", "text": "y", "extra": {"k": 1, "k": 2}}', "repeated key 'k'"),
    ('{"id": "a", "text": "y"}', "duplicate document id 'a'"),
    pytest.param('{"id": "b", "text": "y", "task": ' + "[" * 100_000 + "]" * 100_000 + "}",
                 "JSON nested too deeply", id="task nested 100,000 deep"),
])
def test_jsonl_field_of_wrong_type_names_line(tmp_path, line, message):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"line 2: {message}"):
        cp.load_jsonl(path)


def test_jsonl_integer_id_and_null_task(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": 7, "text": "x", "task": null}\n', encoding="utf-8")
    assert [(d.id, d.text, d.task) for d in cp.load_jsonl(path)] == [("7", "x", None)]


def test_jsonl_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n',
                    encoding="utf-8")
    with pytest.raises(ParseError, match="duplicate"):
        cp.load_jsonl(path)
