// Parallel runtime tests: thread-count policy, ParallelFor coverage
// and determinism guarantees, exception propagation, nested dispatch
// safety, and the threads=1 serial fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/bounded_queue.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace caltrain::util {
namespace {

TEST(ParallelismTest, EffectiveThreadsIsAtLeastOne) {
  EXPECT_GE(Parallelism::threads(), 1U);
  EXPECT_GE(Parallelism::DefaultThreads(), 1U);
}

TEST(ParallelismTest, DefaultHonoursEnvWhenSet) {
  // The suite is registered with ctest twice, once with
  // CALTRAIN_THREADS=4 in the environment (see CMakeLists.txt); this
  // asserts the env override is what DefaultThreads resolves to.
  const char* env = std::getenv("CALTRAIN_THREADS");
  char* end = nullptr;
  const unsigned long parsed = env ? std::strtoul(env, &end, 10) : 0;
  if (env && end != env && *end == '\0' && parsed >= 1 && parsed <= 64) {
    EXPECT_EQ(Parallelism::DefaultThreads(), parsed);
  } else {
    // Unset or invalid (garbage, 0, out of range): hardware default.
    EXPECT_GE(Parallelism::DefaultThreads(), 1U);
  }
}

TEST(ParallelismTest, SetThreadsOverridesAndClearRestoresDefault) {
  const unsigned original = Parallelism::threads();
  Parallelism::set_threads(3);
  EXPECT_EQ(Parallelism::threads(), 3U);
  Parallelism::clear_override();
  EXPECT_EQ(Parallelism::threads(), Parallelism::DefaultThreads());
  Parallelism::set_threads(original);
}

TEST(ParallelismTest, SetThreadsRejectsZero) {
  const unsigned original = Parallelism::threads();
  EXPECT_THROW(Parallelism::set_threads(0), Error);
  // A rejected override must leave the effective count untouched.
  EXPECT_EQ(Parallelism::threads(), original);
}

TEST(ParallelismTest, WidthNeverExceedsHardwareOrThreads) {
  const unsigned original = Parallelism::threads();
  Parallelism::set_threads(Parallelism::kMaxThreads);
  EXPECT_LE(Parallelism::width(), Parallelism::HardwareThreads());
  Parallelism::set_threads(1);
  EXPECT_EQ(Parallelism::width(), 1U);
  Parallelism::set_threads(original);
}

class ThreadsFlagTest : public ::testing::Test {
 protected:
  void SetUp() override { original_ = Parallelism::threads(); }
  void TearDown() override { Parallelism::set_threads(original_); }

  static unsigned Apply(std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    return ApplyThreadsFlag(static_cast<int>(argv.size()),
                            const_cast<char**>(argv.data()));
  }

  unsigned original_ = 1;
};

TEST_F(ThreadsFlagTest, AppliesValidValue) {
  EXPECT_EQ(Apply({"--threads", "3"}), 3U);
  EXPECT_EQ(Parallelism::threads(), 3U);
}

TEST_F(ThreadsFlagTest, LastFlagWinsAndOtherArgsPassThrough) {
  EXPECT_EQ(Apply({"--foo", "--threads", "2", "bar", "--threads", "5"}), 5U);
}

TEST_F(ThreadsFlagTest, RejectsZero) {
  EXPECT_THROW(Apply({"--threads", "0"}), Error);
}

TEST_F(ThreadsFlagTest, RejectsTrailingGarbage) {
  EXPECT_THROW(Apply({"--threads", "4x"}), Error);
  EXPECT_THROW(Apply({"--threads", "threads"}), Error);
}

TEST_F(ThreadsFlagTest, RejectsOutOfRange) {
  EXPECT_THROW(Apply({"--threads", "65"}), Error);
}

TEST_F(ThreadsFlagTest, RejectsBareTrailingFlag) {
  EXPECT_THROW(Apply({"--threads"}), Error);
}

TEST(ParallelismTest, ScopedThreadsRestoresOnExit) {
  const unsigned before = Parallelism::threads();
  {
    ScopedThreads guard(7);
    EXPECT_EQ(Parallelism::threads(), 7U);
    {
      ScopedThreads inner(2);
      EXPECT_EQ(Parallelism::threads(), 2U);
    }
    EXPECT_EQ(Parallelism::threads(), 7U);
  }
  EXPECT_EQ(Parallelism::threads(), before);
}

TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  ScopedThreads guard(4);
  constexpr std::size_t kCount = 10007;  // prime: uneven block split
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(0, kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, RespectsBeginOffsetAndEmptyRange) {
  ScopedThreads guard(4);
  std::atomic<std::size_t> sum{0};
  ParallelFor(100, 200, [&](std::size_t i) {
    ASSERT_GE(i, 100U);
    ASSERT_LT(i, 200U);
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), (100U + 199U) * 100U / 2U);

  bool ran = false;
  ParallelFor(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, BlockedPartitionTilesTheRange) {
  ScopedThreads guard(4);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  ParallelForBlocked(
      3, 130,
      [&](std::size_t b0, std::size_t b1) {
        std::lock_guard<std::mutex> lock(mutex);
        blocks.emplace_back(b0, b1);
      },
      /*min_grain=*/4);
  std::sort(blocks.begin(), blocks.end());
  ASSERT_FALSE(blocks.empty());
  EXPECT_EQ(blocks.front().first, 3U);
  EXPECT_EQ(blocks.back().second, 130U);
  for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].second, blocks[i + 1].first) << "gap or overlap";
  }
}

// The chunks are a function of the range and the chunk size only: the
// same set at every thread count, and in order when serial.
TEST(ParallelForTest, ChunkedPlanIgnoresThreadCount) {
  const auto chunks_at = [](unsigned threads) {
    ScopedThreads guard(threads);
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    ParallelForChunked(3, 130, 16, [&](std::size_t b0, std::size_t b1) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.emplace_back(b0, b1);
    });
    return chunks;
  };
  const auto serial = chunks_at(1);
  ASSERT_EQ(serial.size(), 8U);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, 3 + 16 * i);
    EXPECT_EQ(serial[i].second, std::min<std::size_t>(130, 19 + 16 * i));
  }
  auto parallel = chunks_at(4);
  std::sort(parallel.begin(), parallel.end());
  EXPECT_EQ(parallel, serial);

  // A zero chunk means one index per chunk; an empty range runs nothing.
  ScopedThreads guard(4);
  std::atomic<std::size_t> calls{0};
  ParallelForChunked(0, 40, 0, [&](std::size_t b0, std::size_t b1) {
    EXPECT_EQ(b1, b0 + 1);
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 40U);
  ParallelForChunked(7, 7, 4, [&](std::size_t, std::size_t) {
    ADD_FAILURE() << "empty range ran a chunk";
  });
}

TEST(ParallelForTest, ChunkedPropagatesExceptionsToCaller) {
  ScopedThreads guard(4);
  std::atomic<std::size_t> visited{0};
  EXPECT_THROW(ParallelForChunked(0, 1000, 8,
                                  [&](std::size_t b0, std::size_t b1) {
                                    visited.fetch_add(b1 - b0);
                                    if (b0 == 616) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);
  EXPECT_EQ(visited.load(), 1000U);
}

TEST(ParallelForTest, PropagatesExceptionsToCaller) {
  ScopedThreads guard(4);
  EXPECT_THROW(
      ParallelFor(0, 1000,
                  [](std::size_t i) {
                    if (i == 617) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, SerialFallbackRunsInlineOnCaller) {
  ScopedThreads guard(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t count = 0;  // non-atomic on purpose: must be single-threaded
  ParallelFor(0, 128, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++count;
  });
  EXPECT_EQ(count, 128U);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelForTest, NestedParallelForRunsSerialInline) {
  ScopedThreads guard(4);
  std::atomic<int> total{0};
  ParallelFor(0, 8, [&](std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    EXPECT_TRUE(InParallelRegion());
    ParallelFor(0, 16, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), outer)
          << "nested region must not re-dispatch";
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, SubmitRunsTaskAndFutureCompletes) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  pool.Submit([&] { ran.store(true); }).wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.Submit([&] { seen = std::this_thread::get_id(); }).wait();
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolTest, ZeroWorkerInlineTaskMayReenterPool) {
  // The inline path must run with the pool mutex released: a task
  // submitted to a worker-less pool may itself query or submit to the
  // same pool.
  ThreadPool pool(0);
  std::atomic<int> ran{0};
  pool.Submit([&] {
        EXPECT_EQ(pool.worker_count(), 0U);
        pool.Submit([&] { ran.fetch_add(1); }).wait();
        ran.fetch_add(1);
      })
      .wait();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, NestedSubmitIsDeadlockFree) {
  ThreadPool pool(1);  // single worker: naive nesting would deadlock
  std::atomic<int> ran{0};
  auto outer = pool.Submit([&] {
    auto inner = pool.Submit([&] { ran.fetch_add(1); });
    inner.wait();  // safe: nested submits execute inline
    ran.fetch_add(1);
  });
  outer.wait();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, IdleWorkerStealsBehindBlockedWorker) {
  // Flood a 2-worker pool while one worker is parked on a long task.
  // Round-robin puts half the quick tasks behind the blocker; with
  // per-worker queues they complete only if the idle worker (or a
  // thief) drains the blocked worker's backlog.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> blocker_started{false};
  std::future<void> blocker = pool.Submit([&] {
    blocker_started.store(true);
    gate.wait();
  });
  while (!blocker_started.load()) std::this_thread::yield();

  constexpr int kQuick = 64;
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kQuick);
  for (int i = 0; i < kQuick; ++i) {
    futures.push_back(pool.Submit([&] { done.fetch_add(1); }));
  }
  int stranded = 0;
  for (std::future<void>& f : futures) {
    if (f.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      ++stranded;
    }
  }
  // Release the blocker BEFORE asserting: a failure must not leave the
  // worker parked on the gate (the pool destructor would never join).
  release.set_value();
  blocker.wait();
  EXPECT_EQ(stranded, 0) << "quick tasks stranded behind the blocked worker";
  EXPECT_EQ(done.load(), kQuick);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  // Every Submit future must complete even when the pool is destroyed
  // with a deep backlog (shutdown drains, never abandons).
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  {
    ThreadPool pool(3);
    for (int i = 0; i < kTasks; ++i) {
      futures.push_back(pool.Submit([&] { done.fetch_add(1); }));
    }
  }  // ~ThreadPool joins after the queues drain
  EXPECT_EQ(done.load(), kTasks);
  for (std::future<void>& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

TEST(ThreadPoolTest, SubmitInsidePoolTaskRunsInline) {
  ThreadPool pool(2);
  std::thread::id outer_id;
  std::thread::id inner_id;
  pool.Submit([&] {
        outer_id = std::this_thread::get_id();
        EXPECT_TRUE(InParallelRegion());
        pool.Submit([&] { inner_id = std::this_thread::get_id(); }).wait();
      })
      .wait();
  EXPECT_EQ(inner_id, outer_id) << "nested submit must not re-dispatch";
}

namespace {

struct CursorContext {
  std::atomic<std::size_t> next{0};
  std::size_t total = 0;
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::vector<unsigned> slots_seen;
};

void PullFromCursor(void* ctx, unsigned slot) {
  auto* cursor = static_cast<CursorContext*>(ctx);
  {
    std::lock_guard<std::mutex> lock(cursor->mutex);
    cursor->slots_seen.push_back(slot);
  }
  for (;;) {
    const std::size_t i = cursor->next.fetch_add(1);
    if (i >= cursor->total) return;
    cursor->done.fetch_add(1);
  }
}

}  // namespace

TEST(ThreadPoolTest, RunOnWorkersCompletesAllItems) {
  ThreadPool pool(3);
  CursorContext cursor;
  cursor.total = 10000;
  const unsigned dispatched = pool.RunOnWorkers(3, &PullFromCursor, &cursor);
  EXPECT_EQ(cursor.done.load(), cursor.total);
  EXPECT_LE(dispatched, 3U);
  // Slot 0 (the caller) always participates; helper slots are distinct.
  std::sort(cursor.slots_seen.begin(), cursor.slots_seen.end());
  ASSERT_FALSE(cursor.slots_seen.empty());
  EXPECT_EQ(cursor.slots_seen.front(), 0U);
  EXPECT_EQ(std::unique(cursor.slots_seen.begin(), cursor.slots_seen.end()),
            cursor.slots_seen.end())
      << "duplicate slot ids";
}

TEST(ThreadPoolTest, RunOnWorkersInsideRegionRunsInlineOnly) {
  ThreadPool pool(2);
  pool.Submit([&] {
        CursorContext cursor;
        cursor.total = 100;
        const unsigned dispatched =
            pool.RunOnWorkers(2, &PullFromCursor, &cursor);
        EXPECT_EQ(dispatched, 0U) << "nested bulk dispatch must run inline";
        EXPECT_EQ(cursor.done.load(), cursor.total);
      })
      .wait();
}

TEST(ThreadPoolTest, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1U);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.worker_count(), 3U);
  pool.EnsureWorkers(2);
  EXPECT_EQ(pool.worker_count(), 3U);
}

TEST(BoundedQueueTest, FifoOrderSingleThread) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_EQ(queue.size(), 3U);
  EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  EXPECT_EQ(queue.Pop(), std::optional<int>(2));
  EXPECT_EQ(queue.TryPop(), std::optional<int>(3));
  EXPECT_EQ(queue.TryPop(), std::nullopt);
  EXPECT_TRUE(queue.empty());
}

TEST(BoundedQueueTest, RejectPolicyFailsFastWhenFull) {
  BoundedQueue<int> queue(2, BackpressurePolicy::kReject);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  EXPECT_FALSE(queue.Push(3)) << "kReject must not block on a full queue";
  EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  EXPECT_TRUE(queue.Push(3));
  EXPECT_EQ(queue.Pop(), std::optional<int>(2));
  EXPECT_EQ(queue.Pop(), std::optional<int>(3));
}

TEST(BoundedQueueTest, BlockPolicyWaitsForRoom) {
  BoundedQueue<int> queue(1, BackpressurePolicy::kBlock);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2));  // blocks until the consumer pops
    pushed.store(true);
  });
  EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.Pop(), std::optional<int>(2));
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsConsumers) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(7));
  queue.Close();
  EXPECT_FALSE(queue.Push(8)) << "pushes fail after Close";
  EXPECT_EQ(queue.Pop(), std::optional<int>(7)) << "items drain after Close";
  EXPECT_EQ(queue.Pop(), std::nullopt) << "drained + closed terminates Pop";
}

TEST(BoundedQueueTest, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> full(1, BackpressurePolicy::kBlock);
  ASSERT_TRUE(full.Push(1));
  std::thread producer([&] { EXPECT_FALSE(full.Push(2)); });
  BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_EQ(empty.Pop(), std::nullopt); });
  full.Close();
  empty.Close();
  producer.join();
  consumer.join();
}

TEST(BoundedQueueTest, MpmcStressDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> queue(8, BackpressurePolicy::kBlock);
  std::mutex seen_mu;
  std::vector<int> seen;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (const std::optional<int> item = queue.Pop()) {
        std::lock_guard<std::mutex> lock(seen_mu);
        seen.push_back(*item);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  queue.Close();
  for (int c = 0; c < kConsumers; ++c) {
    threads[static_cast<std::size_t>(kProducers + c)].join();
  }
  ASSERT_EQ(seen.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPoolTest, ManyConcurrentParallelForsAgree) {
  // Stress the shared global pool from several submitting threads.
  ScopedThreads guard(4);
  constexpr int kLoops = 32;
  constexpr std::size_t kCount = 501;
  std::atomic<std::size_t> grand_total{0};
  std::vector<std::thread> drivers;
  drivers.reserve(4);
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&] {
      for (int loop = 0; loop < kLoops; ++loop) {
        std::atomic<std::size_t> local{0};
        ParallelFor(0, kCount, [&](std::size_t) {
          local.fetch_add(1, std::memory_order_relaxed);
        });
        grand_total.fetch_add(local.load());
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(grand_total.load(), 4U * kLoops * kCount);
}

}  // namespace
}  // namespace caltrain::util
