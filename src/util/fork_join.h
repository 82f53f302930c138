// fork_join: run one body per worker and wait for all of them.
//
// The calling thread is worker 0, so one worker starts no thread and runs
// the body inline. Every started worker is joined before fork_join returns
// or throws, so the body may use the caller's locals by reference.
#pragma once

#include <functional>

namespace specnoc::util {

/// Runs `body(w)` for every w in [0, workers): worker 0 on the calling
/// thread, the others on threads of their own. Returns once every worker
/// has finished. If any threw (or a thread could not start), rethrows the
/// first exception in worker order after all have been joined.
void fork_join(unsigned workers, const std::function<void(unsigned)>& body);

}  // namespace specnoc::util
