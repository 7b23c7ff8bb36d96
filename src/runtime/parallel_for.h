#ifndef SERD_RUNTIME_PARALLEL_FOR_H_
#define SERD_RUNTIME_PARALLEL_FOR_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"

namespace serd::runtime {

/// Runs `fn(chunk_begin, chunk_end)` over [begin, end) split into chunks of
/// `grain` indices (the last chunk may be shorter).
///
/// Determinism contract (DESIGN.md "Deterministic parallel runtime"):
/// chunk boundaries depend only on (begin, end, grain) — never on the
/// thread count — so per-chunk work keyed on the chunk index
/// ((chunk_begin - begin) / grain) is bit-identical for any pool size,
/// including pool == nullptr (serial execution, chunks in ascending order).
///
/// The calling thread always participates, so nesting a ParallelFor inside
/// a chunk of an outer one cannot deadlock: the inner call drains its own
/// chunks even when every pool worker is busy.
///
/// Exceptions thrown by `fn` are captured; the one from the lowest-indexed
/// throwing chunk is rethrown on the caller after all chunks finish.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/// Deterministic ordered map-reduce. `map(chunk_begin, chunk_end)` produces
/// one T per chunk (chunks may run concurrently); `combine(acc, partial)`
/// folds the per-chunk results strictly in ascending chunk order on the
/// calling thread, so floating-point reductions associate identically for
/// any thread count. T must be default-constructible and movable.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 T init, MapFn map, CombineFn combine) {
  if (end <= begin) return init;
  if (grain == 0) grain = 1;
  const size_t n = end - begin;
  const size_t num_chunks = (n + grain - 1) / grain;
  if (pool == nullptr || pool->num_threads() == 0 || num_chunks == 1) {
    // ParallelFor's serial path, each partial folded as it is made: the
    // same combines in the same order, and no partials vector.
    T acc = std::move(init);
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t lo = begin + c * grain;
      acc = combine(std::move(acc), map(lo, std::min(end, lo + grain)));
    }
    return acc;
  }
  std::vector<T> partials(num_chunks);
  ParallelFor(pool, 0, num_chunks, 1, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      const size_t lo = begin + c * grain;
      const size_t hi = std::min(end, lo + grain);
      partials[c] = map(lo, hi);
    }
  });
  T acc = std::move(init);
  for (auto& p : partials) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace serd::runtime

#endif  // SERD_RUNTIME_PARALLEL_FOR_H_
