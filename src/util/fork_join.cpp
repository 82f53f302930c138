#include "util/fork_join.h"

#include <exception>
#include <thread>
#include <vector>

namespace specnoc::util {

void fork_join(unsigned workers, const std::function<void(unsigned)>& body) {
  if (workers <= 1) {
    body(0);
    return;
  }
  std::vector<std::exception_ptr> errors(workers);
  const auto run = [&](unsigned w) {
    try {
      body(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(run, w);
    } catch (...) {
      // Workers from w on never run; the caller learns through w's slot.
      errors[w] = std::current_exception();
      break;
    }
  }
  run(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace specnoc::util
