#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cordial {

std::size_t ParseThreadCount(const char* text, std::string& error) {
  error.clear();
  if (text == nullptr || *text == '\0') {
    error = "empty value";
    return 0;
  }
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    error = "not a number";
    return 0;
  }
  if (errno == ERANGE || parsed > std::numeric_limits<int>::max()) {
    error = "out of range";
    return 0;
  }
  if (parsed <= 0) {
    error = "must be a positive thread count";
    return 0;
  }
  return static_cast<std::size_t>(parsed);
}

namespace {

thread_local bool t_in_parallel_region = false;

/// One ParallelFor invocation. Lives on the caller's stack; workers must
/// not touch it after the caller observes active == 0.
struct Job {
  std::size_t n = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
};

/// Claim and run chunks until the index space (or the job, on error) is
/// exhausted. Runs on workers and on the calling thread alike.
void DrainJob(Job& job) {
  const bool was_nested = t_in_parallel_region;
  t_in_parallel_region = true;
  while (!job.failed.load(std::memory_order_relaxed)) {
    const std::size_t start =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (start >= job.n) break;
    const std::size_t end = std::min(job.n, start + job.chunk);
    try {
      for (std::size_t i = start; i < end; ++i) (*job.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      if (!job.error) job.error = std::current_exception();
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
  t_in_parallel_region = was_nested;
}

std::size_t HardwareThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t AutoThreadCount() {
  if (const char* env = std::getenv("CORDIAL_THREADS")) {
    std::string error;
    const std::size_t parsed = ParseThreadCount(env, error);
    if (parsed > 0) return parsed;
    // Warn once, not per pool query: a rejected value falls back to
    // hardware concurrency for the rest of the process either way.
    static const bool warned = [&] {
      std::fprintf(stderr,
                   "cordial: ignoring CORDIAL_THREADS=\"%s\" (%s); using "
                   "hardware concurrency\n",
                   env, error.c_str());
      return true;
    }();
    (void)warned;
  }
  return HardwareThreadCount();
}

class Pool {
 public:
  static Pool& Instance() {
    static Pool* pool = new Pool();  // leaked: workers may outlive statics
    return *pool;
  }

  std::size_t thread_count() {
    std::lock_guard<std::mutex> lock(mu_);
    return requested_ == 0 ? AutoThreadCount() : requested_;
  }

  void set_thread_count(std::size_t n) {
    std::vector<std::thread> old;
    {
      std::lock_guard<std::mutex> lock(mu_);
      requested_ = n;
      stop_generation_ = spawned_generation_;
      old.swap(workers_);
    }
    work_cv_.notify_all();
    for (std::thread& t : old) t.join();
  }

  void Run(Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureWorkersLocked(thread_count_unlocked() - 1);
      job_ = &job;
      ++job_seq_;
    }
    work_cv_.notify_all();
    DrainJob(job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_ = nullptr;  // late wakers must not join a finished job
      done_cv_.wait(lock, [&] { return active_ == 0; });
    }
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  std::size_t thread_count_unlocked() const {
    return requested_ == 0 ? AutoThreadCount() : requested_;
  }

  void EnsureWorkersLocked(std::size_t want) {
    if (workers_.size() == want) return;
    // Grown or shrunk between jobs: respawn a fresh generation. Jobs never
    // overlap (Run holds the job slot), so no work is in flight here.
    stop_generation_ = spawned_generation_;
    ++spawned_generation_;
    std::vector<std::thread> old;
    old.swap(workers_);
    if (!old.empty()) {
      mu_.unlock();
      work_cv_.notify_all();
      for (std::thread& t : old) t.join();
      mu_.lock();
    }
    workers_.reserve(want);
    for (std::size_t i = 0; i < want; ++i) {
      workers_.emplace_back([this, gen = spawned_generation_] {
        WorkerLoop(gen);
      });
    }
  }

  void WorkerLoop(std::uint64_t generation) {
    std::uint64_t seen_seq = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] {
          return stop_generation_ >= generation ||
                 (job_ != nullptr && job_seq_ != seen_seq);
        });
        if (stop_generation_ >= generation) return;
        seen_seq = job_seq_;
        job = job_;
        ++active_;
      }
      DrainJob(*job);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --active_;
      }
      done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  std::uint64_t job_seq_ = 0;
  std::size_t active_ = 0;
  std::size_t requested_ = 0;            // 0 = auto
  std::uint64_t spawned_generation_ = 0; // generation of current workers
  std::uint64_t stop_generation_ = 0;    // generations <= this must exit
};

}  // namespace

std::size_t ThreadCount() { return Pool::Instance().thread_count(); }

void SetThreadCount(std::size_t n) { Pool::Instance().set_thread_count(n); }

bool InParallelRegion() { return t_in_parallel_region; }

void ParallelFor(std::size_t n, std::size_t chunk,
                 const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t threads = ThreadCount();
  if (n == 1 || threads <= 1 || t_in_parallel_region) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  Job job;
  job.n = n;
  job.chunk = chunk > 0 ? chunk : std::max<std::size_t>(1, n / (threads * 8));
  job.body = &body;
  Pool::Instance().Run(job);
}

void RunConcurrently(std::size_t n,
                     const std::function<void(std::size_t)>& body) {
  std::vector<std::exception_ptr> errors(n);
  const auto run = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n > 0 ? n - 1 : 0);
  for (std::size_t i = 1; i < n; ++i) {
    try {
      threads.emplace_back(run, i);
    } catch (...) {
      run(i);  // no thread to spare: this index runs here instead
    }
  }
  if (n > 0) run(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace cordial
