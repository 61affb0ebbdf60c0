#ifndef GALOIS_COMMON_THREAD_POOL_H_
#define GALOIS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace galois {

/// A small fixed-size thread pool for overlapping I/O-bound work —
/// primarily the concurrent `CompleteBatch` round trips issued by
/// `llm::BatchScheduler` when `parallel_batches > 1`.
///
/// Tasks are plain `std::function<void()>` thunks executed FIFO by a fixed
/// set of worker threads created in the constructor. The pool never grows
/// or shrinks; excess submissions queue until a worker frees up. Because
/// the intended workload is round-trip latency (network waits, simulated
/// sleeps) rather than CPU, the pool size is deliberately independent of
/// `std::thread::hardware_concurrency()`.
///
/// Thread safety: `Submit` may be called from any thread, including
/// concurrently. A task must not wait on a raw future of another task of
/// its own pool (it can deadlock once every worker waits). Fan-out is
/// done with TaskHandle, whose claim-on-join runs an unstarted task
/// inline on the joiner, under the tier rule:
///  - round-trip tasks (Shared(): `BatchScheduler::Flush` chunks) wait
///    on nothing but the model;
///  - phase tasks (SharedPhase(), via PhaseTask) may wait on round-trip
///    futures and Join further phase tasks, never the converse;
///  - tasks that wait on remote work (cluster shard dispatches) run on
///    their owner's pool, never SharedPhase(): an in-process node serves
///    that work on the phase pool.
///
/// Error behavior: a task that throws has the exception captured in its
/// future (rethrown by `future::get`); the worker thread survives. Project
/// code reports failures through `Status`, so in practice futures only
/// carry completion, not errors.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains nothing: queued-but-unstarted tasks are abandoned (their
  /// futures become broken promises). Joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` for execution and returns a future that becomes ready
  /// when it finishes.
  std::future<void> Submit(std::function<void()> fn);

  size_t num_threads() const { return threads_.size(); }

  /// The process-wide shared pool used by the batch scheduler for
  /// CompleteBatch round trips. Created lazily on first use with
  /// kSharedThreads workers and intentionally never destroyed (avoids
  /// static-destruction-order races with worker threads at exit).
  static ThreadPool& Shared();

  /// Size of the shared pool. Sized for overlapped round-trip latency,
  /// not CPU parallelism; a `parallel_batches` above this still works but
  /// keeps at most this many round trips in flight.
  static constexpr size_t kSharedThreads = 16;

  /// The process-wide pool for *phase-level* tasks, all launched as
  /// TaskHandles through PhaseTask: the per-table and per-column
  /// materialisation tasks of the pipelined Galois executor and the
  /// speculative key-scan page tasks. Kept separate from Shared() because
  /// a phase task blocks on round-trip futures: the two-tier split
  /// guarantees a waiting phase can never occupy a worker the round trips
  /// underneath it need. Same lifetime rules as Shared().
  static ThreadPool& SharedPhase();

  /// Size of the phase pool: bounds how many phases (table tasks, column
  /// chains, scan pages) overlap. TaskHandle's claim-on-join makes
  /// saturation safe — a joiner runs unstarted work inline — so this is a
  /// throughput knob, not a correctness bound.
  static constexpr size_t kSharedPhaseThreads = 8;

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// A joinable handle to one task launched on a ThreadPool, with
/// claim-on-join semantics: the task body runs exactly once, either on a
/// pool worker or — when no worker has picked it up by the time the owner
/// joins — inline on the joining thread. This makes nested fan-out
/// (a pool task launching and joining further tasks on the same pool)
/// deadlock-free: a saturated pool degrades to inline execution instead
/// of a cyclic wait.
///
/// A handle is a move-only-in-spirit shared wrapper: copying shares the
/// underlying task, but Join (or Drop) must be called at most once across
/// all copies. A launched handle abandoned without Join is safe as long as
/// the task owns all captured state by value — the pool still runs it,
/// the result is simply dropped. A task that borrows its caller's state
/// must be Joined or Dropped before that state goes away.
template <typename T>
class TaskHandle {
 public:
  TaskHandle() = default;

  /// Returns a handle whose task no worker will ever pick up: it runs
  /// inline at Join, or never when the handle is Dropped or abandoned.
  /// Lets one code path serve both concurrent (Launch) and strictly
  /// sequential execution.
  static TaskHandle Defer(std::function<T()> fn) {
    TaskHandle handle;
    handle.state_ = std::make_shared<State>();
    handle.state_->run = std::move(fn);
    handle.state_->result = handle.state_->promise.get_future();
    return handle;
  }

  /// Launches `fn` on `pool` and returns the joinable handle.
  static TaskHandle Launch(ThreadPool& pool, std::function<T()> fn) {
    TaskHandle handle = Defer(std::move(fn));
    pool.Submit([state = handle.state_] {
      if (!state->claimed.exchange(true)) {
        state->promise.set_value(state->run());
      }
    });
    return handle;
  }

  bool valid() const { return state_ != nullptr; }

  /// Returns the task's result, running it inline first when no pool
  /// worker has claimed it yet. Blocks when a worker is mid-run. Resets
  /// the handle to invalid.
  T Join() {
    auto state = std::move(state_);
    if (!state->claimed.exchange(true)) {
      state->promise.set_value(state->run());
    }
    return state->result.get();
  }

  /// Gives up on the task: when no worker has claimed it yet it never
  /// runs; otherwise blocks until the worker finishes and discards the
  /// result. Either way the task body is not running once Drop returns.
  /// Resets the handle to invalid.
  void Drop() {
    auto state = std::move(state_);
    if (state->claimed.exchange(true)) state->result.wait();
  }

 private:
  struct State {
    std::function<T()> run;
    std::atomic<bool> claimed{false};
    std::promise<T> promise;
    std::future<T> result;
  };
  std::shared_ptr<State> state_;
};

/// The one launch-or-defer helper for phase tasks (a table, a column's
/// retrieve-then-verify chain, a speculative key-scan page). With
/// `concurrent` it launches on ThreadPool::SharedPhase() at once;
/// otherwise it is deferred and runs inline when joined — the paper
/// prototype's strictly sequential order from the same code path.
template <typename T>
TaskHandle<T> PhaseTask(bool concurrent, std::function<T()> fn) {
  return concurrent
             ? TaskHandle<T>::Launch(ThreadPool::SharedPhase(), std::move(fn))
             : TaskHandle<T>::Defer(std::move(fn));
}

}  // namespace galois

#endif  // GALOIS_COMMON_THREAD_POOL_H_
