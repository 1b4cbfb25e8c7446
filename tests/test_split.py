"""Long sweeps split over forked parts: the reports equal the one-process
reports at every part count, and every fallback runs the parts here."""

import errno
import os
import random
import threading
import time
import types

import pytest

from means_lab import DomainError, certify, theorem_claims, verify_bound, verify_chain, verify_corpus
from test_kernel_reference import _reference_corpus

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
        # part k's low-ladder blocks are blocks k, k + parts, ... of the
        # ceil(n / 2) ladder rungs, each followed by its mirror above n // 2
        size = certify._SWEEP_BLOCK
        for k, part in enumerate(split):
            assert [start for start, _ in part if start < n // 2] == \
                list(range(k * size, -(-n // 2), parts * size))


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


@pytest.mark.parametrize("parts", [1] + SPLITS)
@pytest.mark.parametrize("n", [777, 3001])
def test_fused_pair_claims_report_as_one_claim_sweeps(monkeypatch, n, parts):
    # the nine pair claims share the "pairs" draws and one kernel: each
    # report equals that of a sweep of its claim alone, with its own
    # reference margin, over the same stream
    references = _reference_corpus()
    alone = [_one_process(certify._sampled_sweeps,
                          [("pairs", certify._chain_draw, references[claim_id], [claim_id])], n, 42)[0]
             for claim_id in list(references)[1:]]
    _split_in(monkeypatch, parts)
    assert verify_corpus(n, 42)[1:] == alone


def test_corpus_of_10000_samples_forks_one_child_on_two_cpus(monkeypatch, forks):
    # the split counts the corpus as 10 x samples points, one per report, so
    # the fused sweep's 2 x 10,000 rows still split in two
    expected = _one_process(verify_corpus, 10_000, 42)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert verify_corpus(10_000, 42) == expected
    assert len(forks) == 1


def _streams(monkeypatch, random_class) -> None:
    """Make the samplers draw every block from random_class(key)."""
    monkeypatch.setattr(certify, "random", types.SimpleNamespace(Random=random_class))


def test_parts_take_blocks_by_stride(monkeypatch):
    # part k of parts sweeps blocks k, k + parts, ...: the grid's low-ladder
    # blocks (each with its high block's mirror) and each sampled stream's
    # blocks; together the parts take every block once
    size = certify._SWEEP_BLOCK
    n = 100_001
    ladder = range(0, n - n // 2, size)
    for parts in SPLITS:
        for part in range(parts):
            starts = [start for start, _ in certify._grid_blocks(n, part, parts)]
            assert starts[::2] == list(ladder[part::parts])
    keys = []  # per part, the key of every stream it drew a block from

    class Recorded(random.Random):
        def __init__(self, key):
            keys[-1].append(key)
            super().__init__(key)

    def in_turn(tasks):
        return [keys.append([]) or task() for task in tasks]

    _streams(monkeypatch, Recorded)
    monkeypatch.setattr(certify, "_fork_map", in_turn)
    blocks = 11  # the last of them one draw
    for parts in SPLITS:
        _split_in(monkeypatch, parts)
        keys.clear()
        verify_chain(10 * size + 1, 42)
        assert keys == [[f"2a:chain:{j}" for j in range(part, blocks, parts)]
                        for part in range(parts)]
        keys.clear()
        verify_corpus(10 * size + 1, 42)
        assert keys == [[f"2a:{c}:{j}" for c in ("ky-fan", "pairs") for j in range(part, blocks, parts)]
                        for part in range(parts)]


@pytest.mark.parametrize("seed", [7, 10**5000], ids=["7", "5001-digits"])
def test_a_block_is_drawn_from_its_own_stream(monkeypatch, seed):
    # block j of a stream holds the draws of the Random seeded with
    # f"{seed:x}:{stream}:{j}", whatever the part count and whatever the
    # sample count, as far as it covers the block
    size = certify._SWEEP_BLOCK
    drawn = []

    class Keyed(random.Random):
        def __init__(self, key):
            self.key = key
            super().__init__(key)

    def recorded(draw):
        def recorded_draw(rng, count):
            pairs = draw(rng, count)
            drawn.append((rng.key, pairs))
            return pairs
        return recorded_draw

    _streams(monkeypatch, Keyed)
    draws = {"chain": certify._chain_draw, "ky-fan": certify._ky_fan_draw}
    sweeps = [(stream, recorded(draw), lambda pairs: [[1.0] * len(pairs)], [stream])
              for stream, draw in draws.items()]
    for parts in [1, 2, 3, 7]:
        for count in [size, 3 * size + 5, 7 * size]:
            drawn.clear()
            with pytest.MonkeyPatch.context() as patch:
                _split_in(patch, parts)
                patch.delattr(os, "fork")
                certify._sampled_sweeps(sweeps, count, seed)
            expected = {f"{seed:x}:{stream}:{j}": min(size, count - j * size)
                        for stream in draws for j in range(-(-count // size))}
            assert {key: len(pairs) for key, pairs in drawn} == expected
            for key, pairs in drawn:
                stream = key.split(":")[1]
                assert pairs == draws[stream](random.Random(key), size)[:len(pairs)], key


class ZeroGaps(random.Random):
    """random() as Random's, but 0.0 at calls 512-514 of each stream: the
    gap of a full block's last draw, three times over.  Every call still
    advances the stream."""

    def __init__(self, key):
        self.calls = 0
        super().__init__(key)

    def random(self):
        self.calls += 1
        value = super().random()
        return 0.0 if 512 <= self.calls <= 514 else value


@pytest.mark.parametrize("parts", SPLITS)
def test_a_zero_gap_is_drawn_again_inside_its_block(monkeypatch, forks, parts):
    # the last draw of each full block takes its gap from call 515 of the
    # block's stream; the next block starts on its own stream all the same
    size, n = certify._SWEEP_BLOCK, 3 * certify._SWEEP_BLOCK + 100
    _streams(monkeypatch, ZeroGaps)
    seen = []

    def margin_columns(pairs):
        seen.append(pairs)
        return [[a - b for a, b in pairs]]

    def sweep():
        return certify._sampled_sweeps([("chain", certify._chain_draw, margin_columns, ["chain"])], n, 3)

    expected = _one_process(sweep)
    assert [len(block) for block in seen] == [size, size, size, 100]
    for j, block in enumerate(seen):
        stream = random.Random(f"3:chain:{j}")
        calls = [stream.random() for _ in range(515)]
        gaps = calls[1:2 * size - 1:2] + [calls[514]]
        scales = [10.0 ** (-3.0 + 6.0 * r) for r in calls[0:2 * size:2]]
        assert block == [(s * (1.0 + x), s * (1.0 - x)) for s, x in zip(scales, gaps)][:len(block)]
    rows = sorted(seen)
    # parts run here in turn (fork gone) sweep the same blocks
    seen.clear()
    with pytest.MonkeyPatch.context() as patch:
        _split_in(patch, parts)
        patch.delattr(os, "fork")
        assert sweep() == expected
    assert sorted(seen) == rows
    # and forked, they report the same
    _split_in(monkeypatch, parts)
    assert sweep() == expected
    assert len(forks) == parts - 1


def _failing_at_the_seam(monkeypatch):
    """Make verify_bound's margins raise DomainError on a block with a gap
    within 1e-4 of 0.5: at 100,000 points only ladder block 195, which holds
    both top rungs, and its mirror."""
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
    # the gaps near 0.5 are the two top rungs: ladder block 195, at 49,920,
    # and its mirror, which part 1 of 2 sweeps, a forked part
    near = [[start for start, block in certify._grid_blocks(100_000, part, 2)
             if any(abs(x - 0.5) < 1e-4 for x in block)] for part in (0, 1)]
    assert near == [[], [195 * certify._SWEEP_BLOCK, 50_000]]
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


def test_report_joins_the_parts():
    # two columns swept in two parts, and two parts with no block
    a = [(0.5, 10, 0.125, 1), (float("inf"), 0, None, 2)]
    b = [(0.5, 3, 0.25, 0), (0.25, 99, 0.375, 1)]
    by_part = [[], a, [], b]

    def report(scans):
        return certify._report(100, scans, lambda x: certify.pair_from_gap(x, 1.0))

    def expected(margin, x, near_zero):
        return certify.CertificationReport(100, margin, certify.pair_from_gap(x, 1.0), True, near_zero)

    # a tie on margin goes to the lower index, and the near-zero counts add up
    assert report([scans[0] for scans in by_part if scans]) == expected(0.5, 0.25, 1)
    # a column that ranks nothing in one part reports the other part's point
    assert report([scans[1] for scans in by_part if scans]) == expected(0.25, 0.375, 3)
    # columns and parts join in one step, as a chain claim's steps do
    assert report([scan for scans in by_part for scan in scans]) == expected(0.25, 0.375, 4)


def test_part_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert certify._workers(certify._MIN_SPLIT - 1) == 1
    assert certify._workers(2 * certify._MIN_SPLIT) == 2
    assert certify._workers(100 * certify._MIN_SPLIT) == 4
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert certify._workers(100 * certify._MIN_SPLIT) == 3
