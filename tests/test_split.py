"""Long sweeps split over forked parts: the reports equal the one-process
reports at every part count, and every fallback runs the parts here."""

import errno
import os
import random
import threading
import time

import pytest

from means_lab import DomainError, certify, theorem_claims, verify_bound, verify_chain, verify_corpus

CLAIMS = [claim for theorem in ("1.1", "1.2", "1.3") for _, claim in theorem_claims(theorem)]
SPLITS = [2, 3, 7]
REAL_FORK = os.fork


def _split_in(monkeypatch, parts: int) -> None:
    monkeypatch.setattr(certify, "_workers", lambda points: parts)


def _one_process(verify, *args):
    """verify(*args) in one part, with fork gone, so nothing is split."""
    with pytest.MonkeyPatch.context() as patch:
        _split_in(patch, 1)
        patch.delattr(os, "fork")
        return verify(*args)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs."""
    pids = []

    def counted_fork():
        pid = REAL_FORK()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


@pytest.mark.parametrize("parts", SPLITS)
@pytest.mark.parametrize("n", [100, 4097, 100_001])
def test_grid(monkeypatch, forks, n, parts):
    expected = _one_process(verify_bound, CLAIMS, n)
    _split_in(monkeypatch, parts)
    assert verify_bound(CLAIMS, n) == expected
    assert len(forks) == parts - 1


def test_grid_parts_tile_the_grid():
    # each part makes its own ladder rungs: the parts' blocks, together, are
    # the grid's blocks, each made once
    n = 100_001
    whole = sorted(certify._grid_blocks(n))
    for parts in SPLITS:
        split = [list(certify._grid_blocks(n, part, parts)) for part in range(parts)]
        assert sorted(block for part in split for block in part) == whole
        # the seam blocks, above the last ladder block, are all in the last part
        assert all(start < n // 2 - certify._SWEEP_BLOCK or start > n // 2
                   for part in split[:-1] for start, _ in part)


@pytest.mark.parametrize("parts", SPLITS)
@pytest.mark.parametrize("seed", [7, 42, 101])
@pytest.mark.parametrize("n", [1001, 20_000 - 99])
def test_chain(monkeypatch, forks, n, seed, parts):
    expected = _one_process(verify_chain, n, seed)
    _split_in(monkeypatch, parts)
    assert verify_chain(n, seed) == expected
    assert len(forks) == parts - 1


@pytest.mark.parametrize("parts", SPLITS)
@pytest.mark.parametrize("seed", [7, 42, 101])
@pytest.mark.parametrize("n", [777, 3001])
def test_corpus(monkeypatch, forks, n, seed, parts):
    expected = _one_process(verify_corpus, n, seed)
    _split_in(monkeypatch, parts)
    assert verify_corpus(n, seed) == expected
    assert len(forks) == parts - 1


def test_corpus_deals_the_heaviest_claims_apart():
    ids = [claim_id for claim_id, _, _ in certify._corpus_claims()]
    costs = [certify._CORPUS_COST.get(claim_id, 1) for claim_id in ids]
    assert certify._deal(costs, 1) == [sorted(range(10), key=lambda i: -costs[i])]
    ky_fan, lp0, l2 = (ids.index(c) for c in ("ky-fan", "lp0-lt-m", "m-lt-l2"))
    first, second = certify._deal(costs, 2)
    assert first[0] == ky_fan and second[:2] == [lp0, l2]
    assert abs(sum(costs[i] for i in first) - sum(costs[i] for i in second)) <= 1
    for parts in (3, 7, 10):
        hands = certify._deal(costs, parts)
        assert sorted(i for hand in hands for i in hand) == list(range(10))
        assert all(hands)


class ZeroGaps(random.Random):
    """random() as Random's, but 0.0 at the 1-based call numbers in zeros."""

    zeros = frozenset()

    def __init__(self, seed):
        self.calls = 0
        super().__init__(seed)

    def random(self):
        self.calls += 1
        return 0.0 if self.calls in self.zeros else super().random()


@pytest.mark.parametrize("parts", [1, 2, 3, 7])
def test_chain_parts_finish_together(parts):
    # part k replays cuts[k] draws at _REPLAY_SHARE of a swept draw's cost,
    # then sweeps its own; all parts cost alike, to within a block
    n = 100_000
    cuts = certify._draw_cuts(n, parts)
    assert cuts[0] == 0 and cuts[-1] == n and cuts == sorted(cuts)
    assert all(cut % certify._SWEEP_BLOCK == 0 for cut in cuts[:-1])
    costs = [certify._REPLAY_SHARE * first + stop - first for first, stop in zip(cuts, cuts[1:])]
    assert max(costs) - min(costs) <= 2 * certify._SWEEP_BLOCK


@pytest.mark.parametrize("parts", SPLITS)
def test_zero_gaps_straddling_a_split(monkeypatch, forks, parts):
    # around each start of a part, the draw before it gets 0.0 for its scale
    # and three times over for its gap, so the stream of the part after it
    # starts three calls later than two calls a draw would put it; every
    # part must sweep the draws of the one-process sweep
    n = 20_000 - 99
    cuts = [cut for cut in certify._draw_cuts(n, parts) if 0 < cut < n]
    assert cuts
    zeros = set()
    for cut in cuts:
        # draw cut - 1 starts at call 2 * cut - 1 when no earlier call is 0.0;
        # each earlier run of zeros moves it on by three
        shift = 3 * len([c for c in cuts if c < cut])
        zeros.update(range(2 * cut - 1 + shift, 2 * cut + 3 + shift))
    monkeypatch.setattr(ZeroGaps, "zeros", frozenset(zeros))
    seen = []

    def margin_columns(pairs):
        seen.extend(pairs)
        return [[a - b for a, b in pairs]]

    def sweep():
        return certify._sampled_sweep(certify._chain_draw, lambda: ZeroGaps(3), n,
                                      margin_columns, 3)

    expected = _one_process(sweep)
    rows = list(seen)
    assert len(rows) == n
    # the redraws hold: each draw at a cut has the scale 10**-3 of a 0.0
    assert all((rows[cut - 1][0] + rows[cut - 1][1]) / 2.0 == pytest.approx(1e-3)
               for cut in cuts)
    # parts run here in turn (fork gone) sweep the same draws in the same order
    seen.clear()
    with pytest.MonkeyPatch.context() as patch:
        _split_in(patch, parts)
        patch.delattr(os, "fork")
        assert sweep() == expected
    assert seen == rows
    # and forked, they report the same
    _split_in(monkeypatch, parts)
    assert sweep() == expected
    assert len(forks) == parts - 1


def _failing_at_the_seam(monkeypatch):
    """Make verify_bound's margins raise DomainError on a block with a gap
    within 1e-4 of 0.5: only the last part of a split sweeps such a block."""
    real = certify._margin_fn

    def margin_fn(claims):
        columns = real(claims)

        def failing(xs):
            near = [x for x in xs if abs(x - 0.5) < 1e-4]
            if near:
                raise DomainError(f"{len(xs)} gaps from {xs[0]!r}, {len(near)} near 0.5")
            return columns(xs)
        return failing

    monkeypatch.setattr(certify, "_margin_fn", margin_fn)


def test_error_in_a_forked_part_is_raised_here(monkeypatch, forks):
    _failing_at_the_seam(monkeypatch)
    with pytest.raises(DomainError) as alone:
        _one_process(verify_bound, CLAIMS, 100_000)
    _split_in(monkeypatch, 2)
    with pytest.raises(DomainError) as split:
        verify_bound(CLAIMS, 100_000)
    assert type(split.value) is type(alone.value)
    assert str(split.value) == str(alone.value)
    # the child failed and was reaped; the parent ran its part again
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_fork_runs_the_parts_here(monkeypatch):
    calls = []

    def failing_fork():
        calls.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    expected = _one_process(verify_chain, 20_000, 42)
    monkeypatch.setattr(os, "fork", failing_fork)
    _split_in(monkeypatch, 3)
    assert verify_chain(20_000, 42) == expected
    # the first failure leaves the rest of the parts to this process
    assert len(calls) == 1


def test_a_second_thread_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked from a second thread")

    expected = _one_process(verify_bound, CLAIMS, 20_000)
    monkeypatch.setattr(os, "fork", no_fork)
    _split_in(monkeypatch, 2)
    results = []
    thread = threading.Thread(target=lambda: results.append(verify_bound(CLAIMS, 20_000)))
    thread.start()
    thread.join()
    assert results == [expected]


def test_interrupt_in_this_process_leaves_no_child(forks):
    def interrupted():
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        certify._fork_map([interrupted, lambda: time.sleep(60)])
    # the child was ended, not waited for
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_whose_parent_is_gone_stops_at_its_next_block(monkeypatch):
    class Exited(Exception):
        pass

    def exit_(code):
        raise Exited(code)

    monkeypatch.setattr(certify, "_parent", os.getppid() + 1)
    monkeypatch.setattr(os, "_exit", exit_)
    swept = []
    with pytest.raises(Exited):
        certify._sweep([(0, [0.5])], lambda xs: swept.append(xs) or [[1.0]])
    assert swept == []


def test_results_travel_as_marshal_data():
    # a child's result comes back equal, infinities and None included
    result = [(0.25, 3, (1.5, 0.5), 2), (float("inf"), 0, None, 7)]
    assert certify._fork_map([lambda: [], lambda: result]) == [[], result]


def test_merge():
    a = [(0.5, 10, "a", 1), (float("inf"), 0, None, 2)]
    b = [(0.5, 3, "b", 0), (0.25, 99, "c", 1)]
    assert certify._merge([[], a, [], b]) == [(0.5, 3, "b", 1), (0.25, 99, "c", 3)]
    assert certify._merge([[], []]) == []


def test_part_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert certify._workers(certify._MIN_SPLIT - 1) == 1
    assert certify._workers(2 * certify._MIN_SPLIT) == 2
    assert certify._workers(100 * certify._MIN_SPLIT) == 4
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert certify._workers(100 * certify._MIN_SPLIT) == 3
