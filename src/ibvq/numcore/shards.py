"""Data-parallel training steps: one shard of each step's batch
back-propagated in a worker process.

A step's loss over a batch is the sum of its shards' losses, each weighted
by its share of the batch, and so is its gradient (synchronous data
parallelism: Goyal et al. 2017, arXiv 1706.02677). `ShardWorker` runs one
shard per step and hands it back as one node of the caller's graph
(`known_gradient`), so `fit` still makes one `Tensor.backward` and one
Adam step per step.

When this process may run on two CPUs and runs no other thread, the
first shard forks a worker that runs every later shard while the caller
builds its own. The worker reads the parameters through their stores'
shared buffers (`optim.shared_zeros`), so the values of every Adam step
and every in-place write reach it without a copy, and it writes its
gradients into a shared row; only a shard's request and a short reply
cross a pipe.
Otherwise each shard runs in this process. Either way a shard is
back-propagated alone from the same values, so the bytes of a training
run do not depend on the host, only its speed: on one CPU the shards run
one after the other.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Any, Callable, Sequence

from ibvq.errors import TrainingError
from ibvq.numcore.optim import ParamStore, shared_zeros
from ibvq.numcore.tensor import Array, Tensor, backprop, known_gradient


def _two_cpus() -> bool:
    """Whether this process may run on two CPUs or more and may safely
    fork: a fork copies only the forking thread, so a lock another thread
    held (a Jupyter kernel's, say) would stay locked in the worker."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1
            and len(os.sched_getaffinity(0)) >= 2)


class _RemoteTraceback(Exception):
    """The worker's traceback of an error raised again in the caller."""


def _error(exc: Exception) -> tuple[str, tuple[Exception, str]]:
    """The reply that carries ``exc`` and the current traceback."""
    import traceback  # only a failed shard needs it

    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # an exception that does not survive a pickle round trip
        exc = TrainingError(f"{type(exc).__name__}: {exc}")
    return "error", (exc, traceback.format_exc())


class ShardWorker:
    """Back-propagates one shard per training step and hands it back as a
    node of the caller's graph.

    ``shard_loss(request)`` builds the graph of the shard ``request``
    names over the parameters of ``stores`` and returns ``(loss, extra)``:
    its 1x1 loss and a picklable value for the caller (the shard's logged
    loss terms, say). `submit(request)` starts the shard, and `gather()`
    returns ``(node, extra)`` as soon as the shard's forward pass is done:
    ``node`` holds the shard's loss, and its backward adds the shard's
    parameter gradients, waiting for the worker to finish them. The worker
    thus back-propagates its shard while the caller back-propagates its own,
    provided ``node`` is the second operand of an `add` whose first is the
    caller's shard (see `known_gradient`).

    Use it as a context manager: leaving the block closes the worker's
    pipe and waits for it to exit, or kills it first when the block
    raised, so no process outlives the block. An error a shard raises in
    the worker is raised again by `gather` or by the node's backward, with
    its type and message and the worker's traceback as its cause. The
    worker leaves through `os._exit`, never returning into its caller's
    stack.
    """

    def __init__(self, stores: Sequence[ParamStore],
                 shard_loss: Callable[[Any], tuple[Tensor, Any]]):
        self._stores = list(stores)
        self._shard_loss = shard_loss
        self._params = [store[name] for store in self._stores for name, *_ in store.layout()]
        self._grads = shared_zeros((sum(p.data.size for p in self._params),))
        self._views = []
        start = 0
        for p in self._params:
            stop = start + p.data.size
            self._views.append(self._grads[start:stop].reshape(p.data.shape))
            start = stop
        self._in_process: bool | None = None  # decided by the first shard
        self._pid: int | None = None
        self._conn = None
        self._done = None  # (value, extra) and which parameters it reached

    def _backward(self, loss: Tensor) -> list[bool]:
        """Back-propagate a shard's loss alone into the shared row: whether
        it reached each parameter. Leaves no gradient on the parameters."""
        for store in self._stores:
            store.zero_grad()
        backprop(loss)
        reached = [p.grad is not None for p in self._params]
        for p, view, hit in zip(self._params, self._views, reached):
            if hit:
                view[...] = p.grad
        for store in self._stores:
            store.zero_grad()
        return reached

    def _fork(self) -> None:
        """Start the worker. A fork, not a fresh interpreter: the worker
        needs the caller's utterances, models and shared buffers as they
        are. It forks only a process running one thread (`_two_cpus`), and
        numpy's OpenBLAS, pinned to one thread, prepares its own for a fork."""
        # imported here: a process that never shards never loads it
        from multiprocessing.connection import Pipe

        ours, theirs = Pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                ours.close()
                self._serve(theirs)
                status = 0
            finally:
                os._exit(status)
        theirs.close()
        self._pid, self._conn = pid, ours

    def _serve(self, conn) -> None:
        """The worker's loop until the pipe closes: for each request, one
        reply after the forward pass and one after the backward pass, or a
        single error reply when the forward pass fails."""
        while True:
            try:
                request = conn.recv()
            except EOFError:
                return
            try:
                loss, extra = self._shard_loss(request)
                reply = ("ok", (loss.item(), extra))
            except Exception as exc:
                conn.send(_error(exc))
                continue
            conn.send(reply)
            try:
                reply = ("ok", self._backward(loss))
            except Exception as exc:
                reply = _error(exc)
            del loss
            conn.send(reply)

    def _receive(self):
        try:
            status, payload = self._conn.recv()
        except EOFError:
            raise TrainingError("the shard worker exited without a reply") from None
        if status == "error":
            exc, text = payload
            raise exc from _RemoteTraceback(text)
        return payload

    def submit(self, request) -> None:
        """Start the shard ``request`` names: in the worker, forked now if
        this is the first shard and `_two_cpus` allows it, or at once here."""
        if self._in_process is None:
            self._in_process = not _two_cpus()
            if not self._in_process:
                self._fork()
        if self._in_process:
            loss, extra = self._shard_loss(request)
            self._done = (loss.item(), extra), self._backward(loss)
            return
        try:
            self._conn.send(request)
        except OSError as e:
            raise TrainingError(f"the shard worker is gone: {e}") from None

    def gather(self) -> tuple[Tensor, Any]:
        """The submitted shard's ``(node, extra)``, once its forward pass is
        done."""
        value, extra = self._done[0] if self._in_process else self._receive()
        return known_gradient(value, self._params, self._gradients), extra

    def _gradients(self) -> list[Array | None]:
        reached = self._done[1] if self._in_process else self._receive()
        return [view if hit else None for view, hit in zip(self._views, reached)]

    def close(self, kill: bool = False) -> None:
        """Stop the worker, if one was forked, and wait for it to exit."""
        if self._pid is None:
            return
        pid, self._pid = self._pid, None
        if kill:
            import signal  # only a training that raised needs it

            os.kill(pid, signal.SIGKILL)
        self._conn.close()
        self._conn = None
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # already reaped
            pass

    def __enter__(self) -> ShardWorker:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(kill=exc_type is not None)
