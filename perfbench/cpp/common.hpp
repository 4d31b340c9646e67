// Shared plumbing for the perfbench workloads: options, timing helpers,
// order statistics, the result record printed as the last stdout line,
// and the in-memory span tracer used by traced runs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for journals, stores and sockets.
  /// Span dumps go to its parent. run.py removes it after the run.
  std::string scratch;
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Measures how much resident memory one pass adds: begin() trims the heap
/// (so the pass does not start on top of allocator arenas earlier passes
/// freed but kept) and resets VmHWM; end() returns the pass's peak resident
/// set minus the resident set it started from, in MiB.
class PassRss {
 public:
  void begin();
  double end() const;

 private:
  double start_mb_ = 0.0;
};

/// Restricts the calling thread, and every thread it starts afterwards, to
/// cores [first, first + count). Best effort: a host with fewer cores
/// leaves the thread where it was.
void pin_to_cores(std::size_t first, std::size_t count = 1);

/// Commits the file system holding @p path (syncfs), so a timed phase does
/// not start under deferred journal and discard work left by earlier
/// writes and deletions.
void sync_disk(const std::string& path);
/// Removes a pass's on-disk state (journals, checkpoints, model stores),
/// then sync_disk().
void remove_and_sync(const std::string& dir);

/// What one run reports. Checks that fail mark the run incorrect and are
/// echoed to stderr; a run that is not correct exits non-zero and prints
/// no rates.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; returns @p ok.
  bool check(bool ok, const std::string& what);

  bool correct() const noexcept { return failures_ == 0; }
  std::uint64_t attempted = 0;  ///< packets offered, or users trained
  std::uint64_t failed = 0;     ///< rejected, dropped, unsettled, failed

  std::string json() const;

 private:
  std::size_t failures_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Span name -> seconds, as Tracer::self_seconds() reports it.
using StageSeconds = std::vector<std::pair<std::string, double>>;
/// Seconds recorded for @p name (0 when absent).
double stage_seconds(const StageSeconds& stages, const std::string& name);

/// One span per benchmark call into a layer: name, start, end, parent and
/// the window or user it served. Spans live in memory while the run is
/// timed and are written out once at exit. Only the thread that owns the
/// tracer records into it.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int64_t item = -1;  ///< window or user id
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open span; returns its index.
  std::int32_t begin(const char* name, std::int64_t item);
  void end(std::int32_t index);

  /// Sum of self time (duration minus the part covered by direct
  /// children) per span name, in seconds.
  StageSeconds self_seconds() const;
  std::size_t count(const std::string& name) const;

  /// Tab-separated dump: index, name, start_ns, end_ns, parent, item.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t item = -1)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.begin(name, item) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

/// Traced replays are repeated so one scheduler hiccup inside a span does
/// not set a stage's cost; the ledger keeps each stage's median.
inline constexpr int kLedgerReplays = 3;

/// Per span name, the median over replays of its self seconds.
StageSeconds median_self_seconds(const std::vector<StageSeconds>& replays);

/// FNV-1a over bytes, for content checks (store hashes).
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ull);

int run_online(const Options& opt, Result& result);
int run_cohort(const Options& opt, Result& result);

}  // namespace perfbench
