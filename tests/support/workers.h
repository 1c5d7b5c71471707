// Running one enumeration at a chosen worker count.
#ifndef KVCC_TESTS_SUPPORT_WORKERS_H_
#define KVCC_TESTS_SUPPORT_WORKERS_H_

#include <cstdint>

#include "kvcc/engine.h"
#include "kvcc/kvcc_enum.h"

namespace kvcc::testing {

/// EnumerateKVccs(g, k, options) at 1 worker, the serial path on the
/// calling thread. Any other count runs the job on a KvccEngine of that
/// many workers (0 = one per hardware thread).
inline KvccResult EnumerateOnWorkers(const Graph& g, std::uint32_t k,
                                     const KvccOptions& options,
                                     unsigned workers) {
  if (workers == 1) return EnumerateKVccs(g, k, options);
  KvccEngine engine(workers);
  return engine.Wait(engine.Submit(g, k, options));
}

}  // namespace kvcc::testing

#endif  // KVCC_TESTS_SUPPORT_WORKERS_H_
