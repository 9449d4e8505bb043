// Annotated mutex primitives: a CAPABILITY-carrying Mutex over std::mutex,
// the MutexLock RAII guard, and a CondVar that re-exposes
// std::condition_variable against Mutex (LevelDB port:: style).
//
// std::mutex itself carries no thread-safety-analysis attributes, so code
// locking it directly is invisible to `clang++ -Wthread-safety`. Everything
// in src/ locks through these wrappers instead; see
// util/thread_annotations.h for the macro contract.

#ifndef CUPID_UTIL_MUTEX_H_
#define CUPID_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace cupid {

class CondVar;

/// \brief std::mutex with thread-safety-analysis attributes.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII guard: holds `mu` for its whole scope (the only way src/
/// code takes a Mutex, so every critical section has block-scoped extent).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// \brief Condition variable usable with Mutex.
///
/// Wait atomically releases and reacquires the caller's Mutex; the analysis
/// sees it as "held before, held after" (REQUIRES), which is exactly the
/// caller-visible contract.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the mutex
  }

  /// \brief Wait bounded by `timeout_ms`; returns false on timeout. Like
  /// Wait, the caller's mutex is held again on return either way.
  bool WaitFor(Mutex* mu, int timeout_ms) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    bool signaled = cv_.wait_for(lock, std::chrono::milliseconds(
                                           timeout_ms)) ==
                    std::cv_status::no_timeout;
    lock.release();  // the caller still owns the mutex
    return signaled;
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cupid

#endif  // CUPID_UTIL_MUTEX_H_
