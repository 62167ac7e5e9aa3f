// Deterministic shared thread pool.
//
// Every parallel region in the repository (GEMM row panels, per-sample conv
// batches, dataset-generation transient solves) runs on one global pool so
// layers never oversubscribe each other. Work is expressed as a fixed list of
// chunks whose *partition* is independent of the thread count; only the
// chunk->thread assignment is dynamic. Callers that reduce across chunks
// accumulate into chunk-indexed partial buffers and fold them in chunk order,
// so results are bit-identical for any pool size (see DESIGN.md, "Threading
// model").
//
// The pool size comes from the PDNN_THREADS environment variable (or the
// bench harnesses' --threads flag via set_global_threads), defaulting to
// std::thread::hardware_concurrency().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pdnn::util {

/// Fixed-size pool executing chunk-indexed jobs; the calling thread
/// participates, so a pool of size N uses N-1 worker threads.
class ThreadPool {
 public:
  /// num_threads <= 0 selects default_threads().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute chunks (workers + the caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Execute fn(chunk) for every chunk in [0, num_chunks), blocking until all
  /// complete. Chunks are claimed dynamically, so fn must not depend on which
  /// thread runs a chunk. Nested calls from inside a chunk run serially on
  /// the calling thread (no deadlock, no oversubscription). The first
  /// exception thrown by fn is rethrown here after all chunks finish.
  void run(std::int64_t num_chunks,
           const std::function<void(std::int64_t)>& fn);

  /// PDNN_THREADS if set to a positive integer, else hardware_concurrency().
  /// A PDNN_THREADS that is not a whole integer in int range throws a
  /// CheckError naming the variable; unset, empty or <= 0 means the default.
  static int default_threads();

  /// The process-wide pool shared by all parallel layers.
  static ThreadPool& global();

  /// Replace the global pool with one of the given size (<= 0 restores the
  /// default). Must not race with concurrent run() calls on the global pool;
  /// intended for test/bench setup and CLI flag handling.
  static void set_global_threads(int num_threads);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;

  std::mutex run_mu_;  ///< serializes concurrent external run() calls

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for a new job epoch
  std::condition_variable done_cv_;  ///< run() waits for pending_ == 0
  std::uint64_t epoch_ = 0;
  bool stop_ = false;

  // State of the in-flight job; job_ points at the caller's function and
  // stays valid until run() observes pending_ == 0.
  const std::function<void(std::int64_t)>* job_ = nullptr;
  std::int64_t num_chunks_ = 0;
  std::atomic<std::int64_t> next_chunk_{0};
  std::int64_t pending_ = 0;  ///< chunks not yet completed (guarded by mu_)
  std::int64_t active_workers_ = 0;  ///< workers inside the claim loop
  std::exception_ptr error_;  ///< first failure (guarded by mu_)
};

/// Half-open index range of one chunk.
struct ChunkRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Number of grain-sized chunks covering [0, n).
inline std::int64_t chunk_count(std::int64_t n, std::int64_t grain) {
  return n <= 0 ? 0 : (n + grain - 1) / grain;
}

/// Partition [0, n) into `chunks` near-equal ranges. The partition depends
/// only on (n, chunks), never on the thread count — the basis for
/// deterministic chunked reductions.
inline ChunkRange reduction_range(std::int64_t n, std::int64_t chunks,
                                  std::int64_t c) {
  return {c * n / chunks, (c + 1) * n / chunks};
}

/// Chunk count for a deterministic reduction over n items: enough chunks to
/// spread load, capped so chunk-local partial buffers stay small, and fixed
/// regardless of how many threads execute them.
inline std::int64_t reduction_chunks(std::int64_t n,
                                     std::int64_t max_chunks = 16) {
  return n < max_chunks ? n : max_chunks;
}

/// Run body(begin, end) over grain-sized slices of [0, n) on the global
/// pool. The slicing is fixed by (n, grain), so any per-index output that is
/// disjoint across slices is bit-identical for every thread count.
inline void parallel_for(
    std::int64_t n, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (n <= 0) return;
  const std::int64_t chunks = chunk_count(n, grain);
  ThreadPool::global().run(chunks, [&](std::int64_t c) {
    const std::int64_t begin = c * grain;
    body(begin, begin + grain < n ? begin + grain : n);
  });
}

}  // namespace pdnn::util
