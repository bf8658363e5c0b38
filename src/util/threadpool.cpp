#include "util/threadpool.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace caltrain::util {

namespace {

unsigned ReadDefaultThreads() {
  if (const char* env = std::getenv("CALTRAIN_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 &&
        v <= Parallelism::kMaxThreads) {
      return static_cast<unsigned>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1U : std::min(hw, Parallelism::kMaxThreads);
}

std::atomic<unsigned>& ThreadOverride() {
  static std::atomic<unsigned> override_value{0};  // 0 = use default
  return override_value;
}

thread_local bool tls_in_parallel_region = false;

struct RegionGuard {
  RegionGuard() : was(tls_in_parallel_region) {
    tls_in_parallel_region = true;
  }
  ~RegionGuard() { tls_in_parallel_region = was; }
  bool was;
};

/// Heap node behind a Submit: the only allocating dispatch path, kept
/// as the future-returning adapter over the fixed-slot queues.
struct SubmitNode {
  std::packaged_task<void()> task;
};

void RunSubmitNode(void* ctx, unsigned /*slot*/) {
  auto* node = static_cast<SubmitNode*>(ctx);
  node->task();  // packaged_task captures exceptions into the future
  delete node;
}

/// Caller-stack completion record for one RunOnWorkers region.
struct BulkJob {
  ThreadPool::BulkFn fn;
  void* ctx;
  Mutex mutex;
  CondVar done;
  unsigned pending GUARDED_BY(mutex) = 0;  // dispatched, not yet finished
};

void RunBulkSlot(void* ctx, unsigned slot) {
  auto* job = static_cast<BulkJob*>(ctx);
  try {
    job->fn(job->ctx, slot);
  } catch (...) {
    // Bulk bodies own their error channel (ParallelForBlocked stores
    // the first exception in its context and rethrows on the caller);
    // an exception escaping here would otherwise kill the worker.
    CALTRAIN_LOG(kError) << "threadpool: bulk task leaked an exception "
                            "(slot "
                         << slot << "); work may be incomplete";
  }
  // The counter and the notification stay under one lock so the
  // dispatcher cannot observe pending == 0 and destroy the job while
  // this thread still touches it.
  MutexLock lock(job->mutex);
  if (--job->pending == 0) job->done.NotifyAll();
}

}  // namespace

unsigned Parallelism::DefaultThreads() {
  static const unsigned cached = ReadDefaultThreads();
  return cached;
}

unsigned Parallelism::HardwareThreads() {
  static const unsigned cached = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1U : std::min(hw, kMaxThreads);
  }();
  return cached;
}

unsigned Parallelism::threads() {
  const unsigned override_value =
      ThreadOverride().load(std::memory_order_relaxed);
  return override_value != 0 ? override_value : DefaultThreads();
}

unsigned Parallelism::width() {
  return std::min(threads(), HardwareThreads());
}

void Parallelism::set_threads(unsigned n) {
  CALTRAIN_REQUIRE(n >= 1,
                   "thread count override must be >= 1 (use "
                   "Parallelism::clear_override() to restore the default)");
  ThreadOverride().store(std::min(n, kMaxThreads),
                         std::memory_order_relaxed);
}

void Parallelism::clear_override() {
  ThreadOverride().store(0, std::memory_order_relaxed);
}

bool InParallelRegion() noexcept { return tls_in_parallel_region; }

unsigned ApplyThreadsFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") != 0) continue;
    if (i + 1 >= argc) {
      ThrowError(ErrorKind::kInvalidArgument,
                 "--threads requires a value (1.." +
                     std::to_string(Parallelism::kMaxThreads) + ")");
    }
    const char* value = argv[i + 1];
    char* end = nullptr;
    const unsigned long v = std::strtoul(value, &end, 10);
    if (end == value || *end != '\0' || v < 1 ||
        v > Parallelism::kMaxThreads) {
      ThrowError(ErrorKind::kInvalidArgument,
                 std::string("invalid --threads value '") + value +
                     "' (expected an integer in 1.." +
                     std::to_string(Parallelism::kMaxThreads) + ")");
    }
    Parallelism::set_threads(static_cast<unsigned>(v));
    ++i;  // the value token is consumed; never re-parsed as a flag
  }
  return Parallelism::threads();
}

ThreadPool::ThreadPool(unsigned workers) { EnsureWorkers(workers); }

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  const unsigned count = worker_count_.load(std::memory_order_acquire);
  for (unsigned i = 0; i < count; ++i) {
    // Lock/unlock pairs with the predicate check: any worker that read
    // stop_ == false is inside wait() by the time we notify.
    { MutexLock lock(workers_[i]->mutex); }
    workers_[i]->ready.NotifyAll();
  }
  for (unsigned i = 0; i < count; ++i) workers_[i]->thread.join();
}

void ThreadPool::EnsureWorkers(unsigned n) {
  n = std::min(n, Parallelism::kMaxThreads);
  MutexLock lock(grow_mutex_);
  unsigned count = worker_count_.load(std::memory_order_relaxed);
  while (count < n) {
    workers_[count] = std::make_unique<Worker>();
    workers_[count]->thread = std::thread([this, count] {
      WorkerLoop(count);
    });
    worker_count_.store(++count, std::memory_order_release);
  }
}

unsigned ThreadPool::worker_count() const {
  return worker_count_.load(std::memory_order_acquire);
}

void ThreadPool::Enqueue(unsigned target, const Task& task) {
  Worker& worker = *workers_[target];
  bool advertise;
  {
    MutexLock lock(worker.mutex);
    worker.queue.push_back(task);
    // An owner that is executing a task may not return to its queue
    // for an arbitrarily long time (it may be blocked inside the
    // task), and a queue that is backing up means the same thing: in
    // either case the pushed work must be advertised so sleeping
    // workers re-scan for steals — the notify_one below only helps an
    // owner that is parked idle.  busy is set under this same mutex
    // when the owner pops, so the read cannot miss an in-flight task.
    advertise = worker.queue.size() > 1 ||
                worker.busy.load(std::memory_order_relaxed);
  }
  worker.ready.NotifyOne();
  if (advertise) WakeThief(target);
}

void ThreadPool::WakeThief(unsigned except) {
  const unsigned count = worker_count_.load(std::memory_order_acquire);
  if (count < 2) return;
  steal_signal_.fetch_add(1, std::memory_order_release);
  // Wake every other worker: any single victim may itself be busy or
  // blocked, and a sleeping worker only re-evaluates its predicate
  // (which reads steal_signal_) when notified.  Stray wakeups cost one
  // queue scan; a stranded task costs a stalled caller.
  for (unsigned i = 0; i < count; ++i) {
    if (i == except) continue;
    Worker& thief = *workers_[i];
    // Lock/unlock before notifying so a thief between its predicate
    // check and wait() cannot miss the signal.
    { MutexLock lock(thief.mutex); }
    thief.ready.NotifyOne();
  }
}

bool ThreadPool::TrySteal(unsigned self, Task& out) {
  const unsigned count = worker_count_.load(std::memory_order_acquire);
  for (unsigned i = 1; i < count; ++i) {
    Worker& victim = *workers_[(self + i) % count];
    MutexLock lock(victim.mutex);
    if (!victim.queue.empty()) {
      out = victim.queue.front();  // FIFO steal keeps Submit ordering fair
      victim.queue.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(unsigned self) {
  Worker& me = *workers_[self];
  for (;;) {
    Task task;
    bool have = false;
    {
      MutexLock lock(me.mutex);
      if (!me.queue.empty()) {
        task = me.queue.front();
        me.queue.pop_front();
        // Under the queue mutex, paired with Enqueue's locked read:
        // once this worker commits to running a task, any push onto
        // its queue sees busy == true and advertises to thieves.
        me.busy.store(true, std::memory_order_relaxed);
        have = true;
      }
    }
    std::uint64_t steal_seen = 0;
    if (!have) {
      steal_seen = steal_signal_.load(std::memory_order_acquire);
      have = TrySteal(self, task);
      if (have) {
        // Same pairing as the own-queue pop: take the queue mutex so
        // a concurrent Enqueue cannot read a stale busy == false.
        MutexLock lock(me.mutex);
        me.busy.store(true, std::memory_order_relaxed);
      }
    }
    if (have) {
      {
        RegionGuard guard;
        task.fn(task.ctx, task.slot);
      }
      me.busy.store(false, std::memory_order_relaxed);
      continue;
    }
    // Own queue and every other queue were empty: on shutdown that
    // means fully drained (nothing enqueues after stop_), so exit.
    if (stop_.load(std::memory_order_acquire)) return;
    MutexLock lock(me.mutex);
    // Explicit wait loop (not wait(lock, pred)): the guarded
    // me.queue read must stay in this annotated scope, not inside a
    // predicate lambda the analysis cannot see into.
    while (!(stop_.load(std::memory_order_acquire) || !me.queue.empty() ||
             steal_signal_.load(std::memory_order_acquire) != steal_seen)) {
      me.ready.Wait(lock);
    }
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto* node = new SubmitNode{std::packaged_task<void()>(std::move(fn))};
  std::future<void> result = node->task.get_future();
  if (tls_in_parallel_region) {
    // Nested submit: run inline so a task waiting on this future can
    // never deadlock the pool.
    RunSubmitNode(node, 0);
    return result;
  }
  const unsigned count = worker_count_.load(std::memory_order_acquire);
  if (count == 0) {
    // No workers yet: execute inline rather than strand the task, with
    // the region flag set so its own nested submits also run inline.
    RegionGuard guard;
    RunSubmitNode(node, 0);
    return result;
  }
  const unsigned target =
      round_robin_.fetch_add(1, std::memory_order_relaxed) % count;
  try {
    Enqueue(target, Task{&RunSubmitNode, node, 0});
  } catch (...) {
    RegionGuard guard;
    RunSubmitNode(node, 0);
  }
  return result;
}

unsigned ThreadPool::RunOnWorkers(unsigned helpers, BulkFn fn, void* ctx) {
  if (helpers > Parallelism::kMaxThreads) helpers = Parallelism::kMaxThreads;
  if (helpers == 0 || tls_in_parallel_region) {
    RegionGuard guard;
    fn(ctx, 0);
    return 0;
  }

  BulkJob job{fn, ctx, {}, {}, 0};
  unsigned dispatched = 0;
  try {
    EnsureWorkers(helpers);
  } catch (...) {
    // Thread creation failed; run with whatever workers exist.
  }
  const unsigned count = worker_count_.load(std::memory_order_acquire);
  const unsigned target_helpers = std::min(helpers, count);
  for (unsigned i = 0; i < target_helpers; ++i) {
    {
      MutexLock lock(job.mutex);
      ++job.pending;
    }
    try {
      Enqueue(i, Task{&RunBulkSlot, &job, i + 1});
      ++dispatched;
    } catch (...) {
      MutexLock lock(job.mutex);
      --job.pending;
      break;
    }
  }

  std::exception_ptr caller_error;
  {
    RegionGuard guard;
    try {
      fn(ctx, 0);
    } catch (...) {
      caller_error = std::current_exception();
    }

    // Reclaim helper tasks still sitting unstarted in worker queues
    // and run them here: the region then only waits on helpers that
    // are actually executing, so a worker blocked on an unrelated
    // long task cannot stall this caller.
    for (unsigned i = 0; i < target_helpers; ++i) {
      std::vector<Task> reclaimed;
      {
        MutexLock lock(workers_[i]->mutex);
        auto& queue = workers_[i]->queue;
        for (auto it = queue.begin(); it != queue.end();) {
          if (it->fn == &RunBulkSlot && it->ctx == &job) {
            reclaimed.push_back(*it);
            it = queue.erase(it);
          } else {
            ++it;
          }
        }
      }
      for (const Task& task : reclaimed) task.fn(task.ctx, task.slot);
    }
  }

  {
    MutexLock lock(job.mutex);
    while (job.pending != 0) job.done.Wait(lock);
  }
  if (caller_error) std::rethrow_exception(caller_error);
  return dispatched;
}

ThreadPool& ThreadPool::Global() {
  // Leaked intentionally: worker threads may outlive static destructors
  // of translation units that still dispatch work during teardown.
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

namespace {

/// Shared context for one ParallelForBlocked / ParallelForChunked
/// region: participants pull blocks from `next_block` until the range
/// is exhausted.
struct BlockLoopContext {
  std::size_t begin, end, chunk, num_blocks;
  const std::function<void(std::size_t, std::size_t)>* body;
  std::atomic<std::size_t> next_block{0};
  Mutex error_mutex;
  std::exception_ptr first_error GUARDED_BY(error_mutex);
};

void RunBlockLoop(void* ctx, unsigned /*slot*/) {
  auto* loop = static_cast<BlockLoopContext*>(ctx);
  for (;;) {
    const std::size_t b = loop->next_block.fetch_add(1);
    if (b >= loop->num_blocks) return;
    const std::size_t b0 = loop->begin + b * loop->chunk;
    const std::size_t b1 = std::min(loop->end, b0 + loop->chunk);
    if (b0 >= b1) continue;
    try {
      (*loop->body)(b0, b1);
    } catch (...) {
      MutexLock lock(loop->error_mutex);
      if (!loop->first_error) {
        loop->first_error = std::current_exception();
      }
    }
  }
}

void LogDegradedDispatchOnce(unsigned wanted, unsigned got) {
  static std::atomic<bool> logged{false};
  if (logged.exchange(true, std::memory_order_relaxed)) return;
  CALTRAIN_LOG(kWarn) << "threadpool: parallel dispatch degraded ("
                      << got + 1 << "/" << wanted + 1
                      << " participants); work completed on fewer "
                         "threads.  Further occurrences are not logged.";
}

/// Runs `num_blocks` blocks of `chunk` indices covering [begin, end)
/// as one region of at most Parallelism::width() participants, then
/// rethrows the first exception any block threw.
void RunBlocks(std::size_t begin, std::size_t end, std::size_t chunk,
               std::size_t num_blocks,
               const std::function<void(std::size_t, std::size_t)>& body) {
  BlockLoopContext loop;
  loop.begin = begin;
  loop.end = end;
  loop.chunk = chunk;
  loop.num_blocks = num_blocks;
  loop.body = &body;

  const unsigned participants = static_cast<unsigned>(std::min<std::size_t>(
      Parallelism::width(), num_blocks));
  if (participants <= 1) {
    RegionGuard guard;
    RunBlockLoop(&loop, 0);
  } else {
    const unsigned helpers = participants - 1;
    const unsigned dispatched =
        ThreadPool::Global().RunOnWorkers(helpers, &RunBlockLoop, &loop);
    if (dispatched < helpers) LogDegradedDispatchOnce(helpers, dispatched);
  }

  // Read under the lock even though the region barrier means no helper
  // can still be writing: the annotation pass flagged the previous
  // unlocked read, and the locked form costs nothing off the hot path.
  std::exception_ptr first_error;
  {
    MutexLock lock(loop.error_mutex);
    first_error = loop.first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

void ParallelForBlocked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_grain) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const unsigned threads = Parallelism::threads();
  if (min_grain == 0) min_grain = 1;
  if (threads <= 1 || tls_in_parallel_region || count < 2 * min_grain) {
    body(begin, end);
    return;
  }

  // The block plan depends on threads() only — never on the dispatch
  // width below — so the caller-visible partition is stable across
  // hosts and oversubscription clamps.
  const std::size_t max_blocks = count / min_grain;
  const std::size_t num_blocks =
      std::max<std::size_t>(1, std::min<std::size_t>(threads, max_blocks));
  if (num_blocks == 1) {
    body(begin, end);
    return;
  }
  const std::size_t chunk = (count + num_blocks - 1) / num_blocks;

  RunBlocks(begin, end, chunk, num_blocks, body);
}

void ParallelForChunked(
    std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  if (chunk == 0) chunk = 1;
  const std::size_t num_blocks = count / chunk + (count % chunk != 0 ? 1 : 0);
  if (Parallelism::threads() <= 1 || tls_in_parallel_region ||
      num_blocks == 1) {
    for (std::size_t b0 = begin; b0 < end;) {
      const std::size_t b1 = b0 + std::min(chunk, end - b0);
      body(b0, b1);
      b0 = b1;
    }
    return;
  }
  RunBlocks(begin, end, chunk, num_blocks, body);
}

void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& body) {
  ParallelForBlocked(begin, end,
                     [&body](std::size_t b0, std::size_t b1) {
                       for (std::size_t i = b0; i < b1; ++i) body(i);
                     });
}

}  // namespace caltrain::util
