// Deterministic exception funnel for parallel loops (util::WorkerPool).
//
// A bare `if (!error) error = current_exception()` keeps whichever worker
// LOST the race — a different exception per run when several items fail.
// The collector instead keeps the exception of the lowest failing item
// index and rethrows it wrapped with stage context, so a failing batch
// reports the same item and message on every run and any worker count.
#pragma once

#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>

namespace amdgcnn::util {

/// What a joined parallel stage throws when a worker failed: the message
/// carries the stage name, the failing item index and the original what();
/// the original exception itself is nested (std::rethrow_if_nested).
class WorkerError : public std::runtime_error {
 public:
  WorkerError(const std::string& what, std::int64_t item)
      : std::runtime_error(what), item_(item) {}
  /// Index of the first (lowest) failing loop iteration.
  std::int64_t item() const { return item_; }

 private:
  std::int64_t item_;
};

class WorkerErrorCollector {
 public:
  /// Record the in-flight exception for iteration `item`; call from a
  /// worker's catch block.  Thread-safe; keeps the lowest item.
  void capture(std::int64_t item) noexcept {
    const std::exception_ptr e = std::current_exception();
    const std::lock_guard<std::mutex> lock(mu_);
    if (!error_ || item < item_) {
      error_ = e;
      item_ = item;
    }
  }

  /// After the join: rethrow the first failure as a WorkerError
  /// ("<stage>: worker failed at item N: <what>") with the original
  /// exception nested.  No-op when no worker failed.
  void rethrow(const char* stage) const {
    if (!error_) return;
    const std::string prefix = std::string(stage) + ": worker failed at item " +
                               std::to_string(item_) + ": ";
    try {
      std::rethrow_exception(error_);
    } catch (const std::exception& e) {
      std::throw_with_nested(WorkerError(prefix + e.what(), item_));
    } catch (...) {
      std::throw_with_nested(WorkerError(prefix + "unknown exception", item_));
    }
  }

 private:
  mutable std::mutex mu_;  // guards capture races between workers
  std::exception_ptr error_;
  std::int64_t item_ = -1;
};

}  // namespace amdgcnn::util
