#include "common.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/// One "VmXXX:  N kB" field of /proc/self/status, in MiB (0 if absent).
double status_mb(const char* field) {
  double mib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    const std::size_t len = std::strlen(field);
    while (std::fgets(line, sizeof line, f) != nullptr) {
      long kib = 0;
      if (std::strncmp(line, field, len) == 0 &&
          std::sscanf(line + len, ": %ld kB", &kib) == 1) {
        mib = static_cast<double>(kib) / 1024.0;
        break;
      }
    }
    std::fclose(f);
  }
  return mib;
}

}  // namespace

void PassRss::begin() {
  malloc_trim(0);
  // Writing "5" resets VmHWM to the current RSS (see proc(5), clear_refs).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
  start_mb_ = status_mb("VmRSS");
}

double PassRss::end() const { return status_mb("VmHWM") - start_mb_; }

void pin_to_cores(std::size_t first, std::size_t count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t c = first; c < first + count; ++c) {
    CPU_SET(static_cast<int>(c % CPU_SETSIZE), &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void sync_disk(const std::string& path) {
  const int fd = ::open(path.empty() ? "." : path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

void remove_and_sync(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  sync_disk(std::filesystem::path(dir).parent_path().string());
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

bool Result::check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", vu.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  return out;
}

std::int32_t Tracer::begin(const char* name, std::int64_t item) {
  Span span;
  span.name = name;
  span.item = item;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::end(std::int32_t index) {
  // Spans close innermost first (ScopedSpan nesting), so the span being
  // closed is the top of the open stack.
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  open_.pop_back();
}

StageSeconds Tracer::self_seconds() const {
  // Children are recorded after their parent and close before it, and one
  // thread records them, so the part of a span its children cover is the
  // sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += (s.end_ns - s.start_ns) - child_ns[i];
  }
  StageSeconds out;
  for (const auto& [name, ns] : self) {
    out.emplace_back(name, static_cast<double>(ns) * 1e-9);
  }
  return out;
}

double stage_seconds(const StageSeconds& stages, const std::string& name) {
  for (const auto& [n, s] : stages) {
    if (n == name) return s;
  }
  return 0.0;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ++n;
  }
  return n;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\titem\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%lld\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.item));
  }
  std::fclose(f);
}

StageSeconds median_self_seconds(const std::vector<StageSeconds>& replays) {
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& replay : replays) {
    for (const auto& [name, s] : replay) by_name[name].push_back(s);
  }
  StageSeconds out;
  for (auto& [name, values] : by_name) out.emplace_back(name, median(values));
  return out;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
