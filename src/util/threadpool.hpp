// Parallel execution runtime: a thread pool with per-worker run queues
// and FIFO work stealing, plus blocked parallel-for helpers.
//
// Design constraints (see ISSUE 1 / ISSUE 6 / ROADMAP):
//  * Determinism — ParallelForBlocked hands each caller-visible block to
//    exactly one task, so any computation whose per-block arithmetic
//    order matches the serial loop is bit-identical at every thread
//    count.  With `Parallelism::threads() == 1` no pool machinery runs
//    at all: the body executes inline on the calling thread, exactly
//    like the pre-threading serial code.
//  * Scalability — dispatch never takes a global lock.  Every worker
//    owns its own queue (mutex + condition variable + fixed-slot task
//    records, no std::function / shared_ptr allocation on the bulk
//    path), Submit round-robins across the queues, and idle workers
//    steal from loaded ones so a long-running task cannot strand the
//    work queued behind it.  ParallelForBlocked and ParallelForChunked
//    dispatch ONE persistent loop task per participating worker (the
//    workers pull blocks from a shared atomic cursor), not one task per
//    block.
//  * Oversubscription — the number of OS threads that participate in a
//    parallel region is capped at the physical core count
//    (`Parallelism::width()`).  Requesting more threads than cores
//    cannot make CPU-bound work faster, only slower (context switches,
//    cache interference), and the work *plan* never depends on the
//    thread count, so clamping the dispatch width is invisible in the
//    results — `threads=8` on a 1-core host computes bit-identically
//    to `threads=1`, at `threads=1` speed.
//  * Safety under nesting — a ParallelFor issued from inside a pool
//    task runs serially inline, and a Submit issued from inside a pool
//    task executes inline and returns a ready future.  Neither can
//    deadlock, regardless of pool size.
//  * Exception transparency — the first exception thrown by any block
//    is captured and rethrown on the calling thread after all blocks
//    have finished (every index is still visited exactly once unless
//    its own block threw).
//  * Shutdown drains — the destructor completes every already-queued
//    task (workers drain their own queues, then steal the remainder)
//    before joining, so no Submit future is ever abandoned.
//
// Thread count resolution: `CALTRAIN_THREADS` env var if set and valid,
// else std::thread::hardware_concurrency(); overridable at runtime via
// Parallelism::set_threads (tests, benches).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace caltrain::util {

/// Process-wide thread-count policy for all parallel hot paths.
class Parallelism {
 public:
  /// Hard cap on pool workers and thread-count overrides.
  static constexpr unsigned kMaxThreads = 64;

  /// Effective thread count (>= 1).
  [[nodiscard]] static unsigned threads();
  /// Overrides the thread count.  Requires 1 <= n (values above
  /// kMaxThreads are clamped); 0 throws kInvalidArgument — use
  /// clear_override() to restore the env/hardware default.
  static void set_threads(unsigned n);
  /// Drops any set_threads override; threads() returns the
  /// env/hardware default again.
  static void clear_override();
  /// The env/hardware default, ignoring any set_threads override.
  [[nodiscard]] static unsigned DefaultThreads();
  /// Physical parallel width of the host (hardware_concurrency,
  /// >= 1).
  [[nodiscard]] static unsigned HardwareThreads();
  /// Dispatch width: min(threads(), HardwareThreads()).  Parallel
  /// regions plan their work from threads() but enqueue at most
  /// width() - 1 helpers, so oversubscribing a small host degrades to
  /// serial speed instead of below it.
  [[nodiscard]] static unsigned width();
};

/// RAII thread-count override (tests and benches).
class ScopedThreads {
 public:
  explicit ScopedThreads(unsigned n)
      : previous_(Parallelism::threads()) {
    Parallelism::set_threads(n);
  }
  ~ScopedThreads() { Parallelism::set_threads(previous_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  unsigned previous_;
};

/// True on a thread currently executing a pool task or a ParallelFor
/// block (used to serialize nested parallel regions).
[[nodiscard]] bool InParallelRegion() noexcept;

/// Scans argv for `--threads N` and applies it via
/// Parallelism::set_threads — the flag therefore wins over the
/// CALTRAIN_THREADS environment variable.  A malformed value (`0`,
/// trailing garbage, out of range) or a bare trailing `--threads`
/// throws kInvalidArgument instead of silently running at an
/// unexpected thread count.  Returns the thread count in effect
/// afterwards.  Shared by the benches and the examples.
unsigned ApplyThreadsFlag(int argc, char** argv);

class ThreadPool {
 public:
  /// A bulk-dispatch slot body.  `slot` identifies the participant
  /// (0 = the dispatching thread, 1..helpers = pool workers); work
  /// must be pulled from shared state in `ctx` (e.g. an atomic
  /// cursor), never derived from `slot`, because helpers that fail to
  /// dispatch simply never run.
  using BulkFn = void (*)(void* ctx, unsigned slot);

  /// Spawns `workers` threads immediately (0 is allowed; the pool then
  /// grows on demand via EnsureWorkers).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queues `fn` on one of the per-worker queues (round-robin; idle
  /// workers steal it if the owner is busy).  Called from inside a
  /// pool task, executes `fn` inline instead (nested-submit safety) —
  /// the returned future is ready.
  std::future<void> Submit(std::function<void()> fn);

  /// Bulk dispatch for parallel regions: enqueues up to `helpers`
  /// fixed-slot loop tasks (one per worker, no allocation), runs
  /// `fn(ctx, 0)` on the calling thread, and returns only after every
  /// dispatched task finished.  Queued-but-unstarted helper tasks are
  /// reclaimed and run inline by the caller while it waits, so a
  /// blocked worker can delay the region only by the task it is
  /// already running.  Dispatch failures (thread creation, queue
  /// allocation) degrade the region to fewer participants; the work
  /// still completes.  Returns the number of helpers actually
  /// enqueued.  `fn` must confine exceptions to `ctx` (helper slots
  /// swallow them; the caller slot rethrows after the region ends).
  unsigned RunOnWorkers(unsigned helpers, BulkFn fn, void* ctx);

  /// Grows the pool to at least `n` worker threads (capped internally).
  void EnsureWorkers(unsigned n);

  [[nodiscard]] unsigned worker_count() const;

  /// The process-wide pool used by ParallelFor and the hot paths.
  /// Created lazily on first parallel dispatch; never torn down before
  /// process exit.
  static ThreadPool& Global();

 private:
  /// Fixed-slot task record: 24 bytes, trivially copyable, no type
  /// erasure.  Submit's std::function lives behind `ctx` (a
  /// heap-allocated packaged_task node); bulk tasks point `ctx` at the
  /// dispatcher's stack frame.
  struct Task {
    void (*fn)(void* ctx, unsigned slot);
    void* ctx;
    unsigned slot;
  };

  struct Worker {
    Mutex mutex;
    CondVar ready;
    std::deque<Task> queue GUARDED_BY(mutex);
    // True while the worker executes a task.  A push onto a busy
    // worker's queue must advertise the work to thieves: the owner may
    // stay inside its current task indefinitely, and a sleeping thief
    // re-checks queues only when signalled.  Not GUARDED_BY(mutex):
    // the worker clears it after finishing a task without the lock;
    // the store/load pairing that matters (Enqueue's advertise read vs
    // the owner's pop) does happen under the queue mutex.
    std::atomic<bool> busy{false};
    std::thread thread;
  };

  void WorkerLoop(unsigned self);
  void Enqueue(unsigned target, const Task& task);
  bool TrySteal(unsigned self, Task& out);
  void WakeThief(unsigned except);

  // Worker registry: slots are created once, never moved or destroyed
  // before the pool itself, so dispatch paths read `worker_count_`
  // (acquire) and index `workers_` without the growth lock.  Not
  // GUARDED_BY(grow_mutex_) for that reason: only the slot *writes* in
  // EnsureWorkers happen under the lock; readers synchronize through
  // the worker_count_ acquire load.
  std::array<std::unique_ptr<Worker>, Parallelism::kMaxThreads> workers_;
  std::atomic<unsigned> worker_count_{0};
  Mutex grow_mutex_;
  std::atomic<bool> stop_{false};
  std::atomic<unsigned> round_robin_{0};
  // Bumped (release) whenever a queue develops a backlog; workers
  // re-scan for steals instead of sleeping when it moved.
  std::atomic<std::uint64_t> steal_signal_{0};
};

/// Runs body(i) for every i in [begin, end).  Parallel when
/// Parallelism::threads() > 1, the range is non-trivial, and the caller
/// is not already inside a parallel region; serial inline otherwise.
void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& body);

/// Runs body(b0, b1) over contiguous blocks covering [begin, end);
/// each block is executed by exactly one thread.  `min_grain` is the
/// smallest block size worth dispatching (ranges smaller than
/// 2*min_grain run inline).  The block plan derives from
/// Parallelism::threads() only; the number of OS threads executing it
/// is capped at Parallelism::width().
void ParallelForBlocked(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t, std::size_t)>&
                            body,
                        std::size_t min_grain = 1);

/// Runs body(b0, b1) over consecutive chunks of `chunk` indices
/// covering [begin, end) (the last one may be shorter), in that order
/// when serial.  Participants pull the chunks from a shared cursor, so
/// a thread the OS deschedules holds the region back by at most the
/// chunk it is on, not by a fixed 1/threads() share of the range.  The
/// chunks never depend on the thread count; use it when a range's cost
/// is even and its results are written by index.
void ParallelForChunked(std::size_t begin, std::size_t end, std::size_t chunk,
                        const std::function<void(std::size_t, std::size_t)>&
                            body);

}  // namespace caltrain::util
