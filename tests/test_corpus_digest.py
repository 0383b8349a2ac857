"""The canonical corpus bytes are pinned: a change that alters any report,
theory or ordering in the default catalog must say so by updating this
digest."""

import hashlib

from superchar.verifier import DEFAULT_CATALOG, corpus_json_bytes, run_corpus

DEFAULT_CORPUS_SHA256 = "9399c09d17685f589c83d99a8d1e8dd2fa9705184a66f9c8360e9d9ae87dc563"


def test_default_corpus_digest():
    data = corpus_json_bytes(run_corpus(DEFAULT_CATALOG, jobs=1))
    assert hashlib.sha256(data).hexdigest() == DEFAULT_CORPUS_SHA256
