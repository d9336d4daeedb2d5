"""Sharded training steps: the second shard of each batch back-propagated
in a forked worker process gives the bytes it gives in this process, and no
worker outlives the training that forked it, whether it returns or raises."""

import hashlib
import os
import threading

import numpy as np
import numpy.testing as npt
import pytest

import ibvq.harness.training as training
import ibvq.numcore as nc
import ibvq.numcore.shards as shards
from ibvq.errors import NumericError
from ibvq.harness.cli import main as cli_main
from ibvq.harness.training import split_shards, train_autoencoder
from ibvq.quantizer import CapacityConfig
from ibvq.synthdata import CorpusConfig, build_corpus

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the shard worker is forked")


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(n_utterances=24, seed=31))


def assert_no_child() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the shard workers forked during the test."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(shards.os, "fork", recording_fork)
    return pids


def train(corpus, k, batch_size, steps=24):
    return train_autoencoder(corpus, CapacityConfig(K=k, G=2),
                             nc.TrainConfig(steps=steps, seed=5, batch_size=batch_size),
                             warmup_steps=8, reseed_every=8)


def digests(trained) -> dict:
    curve = repr([(p.mse, p.codebook, p.commitment) for p in trained.loss_curve])
    values = np.concatenate([store.values for store in trained.models.stores().values()])
    codes = b"" if trained.codes is None else np.concatenate(trained.codes).tobytes()
    return {name: hashlib.sha256(data).hexdigest() for name, data in
            [("curve", curve.encode()), ("params", values.tobytes()), ("codes", codes)]}


@pytest.mark.parametrize("k, batch_size", [(4, 8), (0, 8), (4, 3), (0, 3), (4, 1)])
def test_worker_and_in_process_shards_give_the_same_bytes(corpus, monkeypatch, forks,
                                                          k, batch_size):
    """Batch 8 splits into two equal shards, batch 3 into unequal ones and
    batch 1 into one, which no worker runs."""
    monkeypatch.setattr(shards, "_two_cpus", lambda: True)
    with_worker = digests(train(corpus, k, batch_size))
    assert len(forks) == (batch_size > 1)
    monkeypatch.setattr(shards, "_two_cpus", lambda: False)
    in_process = digests(train(corpus, k, batch_size))
    assert len(forks) == (batch_size > 1)
    assert with_worker == in_process
    assert_no_child()


def test_split_shards_balances_frames_from_the_batch_alone(corpus):
    utts = corpus.utterances[:7]
    ids = [40 + i for i in range(7)]
    shard_a, shard_b = split_shards(utts, ids)
    assert sorted(shard_a + shard_b) == ids
    assert shard_a == sorted(shard_a) and shard_b == sorted(shard_b)  # batch order
    frames = [sum(utts[i - 40].alignment.total_frames for i in s) for s in (shard_a, shard_b)]
    assert abs(frames[0] - frames[1]) <= max(u.alignment.total_frames for u in utts)
    assert split_shards(utts, ids) == [shard_a, shard_b]
    assert split_shards(utts[:1], ids[:1]) == [ids[:1]]
    # the longest utterance goes first, to the first shard
    longest = max(range(7), key=lambda i: utts[i].alignment.total_frames)
    assert ids[longest] in shard_a


def test_no_worker_outlives_training(corpus, monkeypatch, forks, tmp_path):
    """The worker leaves through os._exit with status 0 once training is
    done, so it never returns into the caller's stack."""
    monkeypatch.setattr(shards, "_two_cpus", lambda: True)
    marker = tmp_path / "exit-status"
    real_exit = os._exit

    def recording_exit(status):
        marker.write_text(str(status))
        real_exit(status)

    monkeypatch.setattr(os, "_exit", recording_exit)
    train(corpus, 4, 4, steps=3)
    assert len(forks) == 1
    assert marker.read_text() == "0"
    assert_no_child()


def test_no_worker_is_forked_beside_another_thread(corpus, forks):
    """A fork copies only the forking thread, so a lock another thread held
    would stay locked in the worker: both shards run here instead."""
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert not shards._two_cpus()
        train(corpus, 4, 4, steps=3)
    finally:
        stop.set()
        other.join()
    assert forks == []


def test_no_worker_outlives_an_error_in_the_caller(corpus, monkeypatch, forks):
    monkeypatch.setattr(shards, "_two_cpus", lambda: True)

    def failing_reseed(self, entries, rng):
        raise RuntimeError("reseed failed")

    monkeypatch.setattr(training.DeadCodes, "reseed", failing_reseed)
    with pytest.raises(RuntimeError, match="reseed failed"):
        train(corpus, 4, 4)
    assert len(forks) == 1
    assert_no_child()


@pytest.fixture
def failing_in_the_worker(monkeypatch):
    """Make the worker's shard raise NumericError in its forward pass, and
    only there."""
    monkeypatch.setattr(shards, "_two_cpus", lambda: True)
    parent = os.getpid()
    real = training.reconstruction_graph

    def graph(*args, **kwargs):
        if os.getpid() != parent:
            raise NumericError("non-finite in the worker's shard")
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "reconstruction_graph", graph)


def test_an_error_in_the_worker_is_raised_in_the_caller(corpus, forks, failing_in_the_worker):
    with pytest.raises(NumericError, match="non-finite in the worker's shard") as info:
        train(corpus, 4, 4)
    assert "Traceback" in str(info.value.__cause__)
    assert len(forks) == 1
    assert_no_child()


def test_an_error_in_the_worker_s_backward_is_raised_in_the_caller(corpus, monkeypatch, forks):
    monkeypatch.setattr(shards, "_two_cpus", lambda: True)
    parent = os.getpid()
    real = shards.backprop

    def backprop(loss):
        if os.getpid() != parent:
            raise ValueError("backward failed in the worker")
        real(loss)

    monkeypatch.setattr(shards, "backprop", backprop)
    with pytest.raises(ValueError, match="backward failed in the worker"):
        train(corpus, 4, 4)
    assert len(forks) == 1
    assert_no_child()


def test_an_error_in_the_worker_exits_the_cli_with_2(tmp_path, capsys, forks,
                                                     failing_in_the_worker):
    cfg = tmp_path / "corpus.json"
    cfg.write_text('{"n_utterances": 12, "seed": 4}\n')
    assert cli_main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 0
    status = cli_main(["train", "--corpus", str(tmp_path / "corpus"), "--K", "4",
                       "--steps", "3", "--out", str(tmp_path / "ckpt")])
    assert status == 2
    assert "non-finite in the worker's shard" in capsys.readouterr().err
    assert len(forks) == 1
    assert_no_child()


def test_stores_share_their_values_with_a_forked_process():
    store = nc.ParamStore({"w": np.zeros((2, 3))})
    pid = os.fork()
    if pid == 0:
        try:
            store.values[...] = np.arange(6.0)
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    npt.assert_array_equal(store["w"].data, np.arange(6.0).reshape(2, 3))
