// perfbench: the repository benchmark driver binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//
// Workloads: fleet-inproc, gateway-durable, cohort-train. Prints progress
// on stderr and one JSON result object as the last stdout line; exits
// non-zero when a correctness check fails (and then reports no rates).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "simd/simd.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::string_view(value) == "1";
    } else if (key == "--scratch") {
      opt.scratch = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  const bool online =
      opt.workload == "fleet-inproc" || opt.workload == "gateway-durable";
  if ((!online && opt.workload != "cohort-train") || opt.scratch.empty() ||
      opt.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fleet-inproc|gateway-durable|"
                 "cohort-train --seed N --seconds S --trace 0|1 --scratch DIR\n");
    return 2;
  }
  std::filesystem::create_directories(opt.scratch);
  sync_disk(opt.scratch);
  // Host context: numbers from hosts that differ in either are not
  // comparable.
  std::fprintf(stderr,
               "perfbench: %s seed=%llu seconds=%.0f trace=%d nproc=%u simd=%s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? 1 : 0,
               std::thread::hardware_concurrency(),
               sift::simd::to_string(sift::simd::active_level()));

  Result result;
  int rc = 1;
  try {
    rc = online ? run_online(opt, result) : run_cohort(opt, result);
  } catch (const std::exception& e) {
    result.check(false, std::string("exception: ") + e.what());
  }
  if (!result.correct()) {
    Result failed;
    failed.check(false, "run failed its correctness checks");
    failed.attempted = result.attempted == 0 ? 1 : result.attempted;
    failed.failed = failed.attempted;
    std::printf("%s\n", failed.json().c_str());
    return 1;
  }
  std::printf("%s\n", result.json().c_str());
  return rc;
}
