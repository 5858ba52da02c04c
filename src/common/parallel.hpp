// Deterministic parallel execution layer.
//
// A small shared thread pool behind two primitives:
//
//   ParallelFor(n, chunk, fn)  — run fn(i) for every i in [0, n), the index
//                                space split into chunks handed to workers.
//   ParallelMap<T>(n, fn)      — gather fn(i) results into a vector in index
//                                order, regardless of execution order.
//
// Determinism by construction: the primitives only schedule *which thread*
// runs an index, never *what* an index computes. Callers that need
// randomness derive one child stream per task via Rng::Fork(task_index)
// (SplitMix64 seed-splitting, const — order-independent), so every result
// is a pure function of (inputs, task index) and therefore bit-identical
// across thread counts, including the serial path.
//
// Thread count: SetThreadCount(n) (0 = auto), else the CORDIAL_THREADS
// environment variable, else std::thread::hardware_concurrency(). Nested
// ParallelFor calls from inside a worker run serially inline, so composed
// parallel code (e.g. a parallel forest fit whose trees use the parallel
// split search) cannot deadlock the pool.
//
// Exceptions thrown by fn stop the loop (remaining chunks are abandoned)
// and the first captured exception is rethrown on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace cordial {

/// Worker threads used by ParallelFor/ParallelMap (>= 1). Resolved from
/// SetThreadCount, else CORDIAL_THREADS, else hardware concurrency.
std::size_t ThreadCount();

/// Fix the thread count; 0 restores automatic resolution. Joins and
/// respawns the pool — must not be called while parallel work is running.
void SetThreadCount(std::size_t n);

/// True while the current thread is executing inside a ParallelFor body;
/// nested parallel calls detect this and run serially inline.
bool InParallelRegion();

/// Parse a CORDIAL_THREADS-style value. Returns the thread count, or 0 with
/// `error` filled when `text` is null, empty, has trailing garbage, is
/// non-positive, or exceeds the int range (0 is never a valid result —
/// "auto" is expressed by unsetting the variable). Exposed so the
/// environment-variable handling is testable without mutating the pool.
std::size_t ParseThreadCount(const char* text, std::string& error);

/// Run body(i) for every i in [0, n). `chunk` is the scheduling grain
/// (indices claimed per worker grab); 0 picks a grain that gives each
/// worker several grabs. Runs inline when n <= 1, the pool has one
/// thread, or the caller is already inside a parallel region.
void ParallelFor(std::size_t n, std::size_t chunk,
                 const std::function<void(std::size_t)>& body);

/// Run body(i) for every i in [0, n) at the same time: index 0 on the
/// calling thread, every other index on a short-lived thread of its own.
/// Unlike ParallelFor this never touches the shared pool, so a
/// latency-bound caller (a checkpoint encoding its shard sections) cannot
/// queue behind long pool work such as a forest fit. Returns once every
/// index has finished; the first exception, in index order, is rethrown.
/// An index whose thread cannot be started runs on the calling thread.
void RunConcurrently(std::size_t n,
                     const std::function<void(std::size_t)>& body);

/// Map [0, n) through fn, collecting results in index order. T must be
/// default-constructible and assignable.
template <typename T, typename Fn>
std::vector<T> ParallelMap(std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  ParallelFor(n, 0, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace cordial
