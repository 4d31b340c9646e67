// siftctl — command-line front end for the SIFT library.
//
// Drives the whole pipeline from a shell, the way a downstream user (or a
// provisioning server feeding Amulets) would. Run it without arguments for
// every command, its operands and its flags; that text is printed from the
// same per-command flag tables the parser reads.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "amulet/amulet_c_check.hpp"
#include "cohort/archive.hpp"
#include "cohort/model_store.hpp"
#include "cohort/trainer.hpp"
#include "amulet/app_codegen.hpp"
#include "amulet/profiler.hpp"
#include "attack/attack.hpp"
#include "attack/scenario.hpp"
#include "core/attack_matrix.hpp"
#include "core/detector.hpp"
#include "core/trainer.hpp"
#include "fleet/durable/durability.hpp"
#include "fleet/engine.hpp"
#include "fleet/faults.hpp"
#include "fleet/replay.hpp"
#include "io/csv.hpp"
#include "io/model_file.hpp"
#include "net/client.hpp"
#include "net/packet_pool.hpp"
#include "net/server.hpp"
#include "peaks/pan_tompkins.hpp"
#include "peaks/systolic.hpp"
#include "physio/dataset.hpp"
#include "simd/simd.hpp"

namespace {

using namespace sift;

// --- command-line grammar ---------------------------------------------------

/// Parses the whole of @p text into @p out. std::from_chars takes no blank
/// and no '+', and no '-' for an unsigned target, so "2x", "" and a count
/// of "-1" all fail.
template <typename T>
  requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
bool parse_value(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// An empty token is a missing value.
bool parse_value(std::string_view text, std::string& out) {
  out = text;
  return !text.empty();
}

bool parse_value(std::string_view text, std::chrono::milliseconds& out) {
  std::size_t ms = 0;
  if (!parse_value(text, ms)) return false;
  out = std::chrono::milliseconds(ms);
  return true;
}

bool parse_value(std::string_view text, core::DetectorVersion& out) {
  using V = core::DetectorVersion;
  for (const V v : {V::kOriginal, V::kSimplified, V::kReduced}) {
    if (text == core::to_string(v)) out = v;
  }
  return text == core::to_string(out);
}

bool parse_value(std::string_view text, fleet::BackpressurePolicy& out) {
  using P = fleet::BackpressurePolicy;
  for (const P p : {P::kBlock, P::kDropOldest}) {
    if (text == fleet::to_string(p)) out = p;
  }
  return text == fleet::to_string(out);
}

/// What a flag sets: a typed target read by parse_value(), or a lambda
/// over the value that returns false to reject it. A switch (a flag with
/// no metavar) is set with an empty value; a bool target turns on.
struct Binding {
  template <typename T>
    requires requires(std::string_view text, T& out) { parse_value(text, out); }
  Binding(T& target)
      : set([&target](std::string_view v) { return parse_value(v, target); }) {}
  Binding(bool& on) : set([&on](std::string_view) { return on = true; }) {}
  template <std::invocable<std::string_view> F>
  Binding(F parse) : set(std::move(parse)) {}

  std::function<bool(std::string_view value)> set;
};

constexpr bool kRequired = true;

/// One row of a command's flag table.
struct Flag {
  std::string_view name;
  std::string_view metavar;  ///< names the value; empty for a switch
  std::string_view help;     ///< '\n' breaks a line in the usage
  Binding binding;
  bool required = false;
};

using FlagTable = std::vector<Flag>;

struct Cli;

struct Command {
  std::string_view name;  ///< as typed after `siftctl`, e.g. "cohort gen"
  /// Also sets the operand count: each "<x>" is required, each "[x]"
  /// optional, and a trailing "..." repeats the last.
  std::string_view operands;
  std::string_view about;  ///< '\n' breaks a line in the usage
  int (*run)(Cli& cli);
};

/// Thrown once a usage text is printed; main() then exits 2.
struct UsageExit {};

/// Prints @p text to stderr, continuing each '\n' at column @p indent.
void print_indented(std::string_view text, int indent) {
  for (const char c : text) {
    std::fputc(c, stderr);
    if (c == '\n') std::fprintf(stderr, "%*s", indent, "");
  }
  std::fputc('\n', stderr);
}

/// A command's arguments. Every command calls parse() before anything
/// else. When siftctl runs without a command, main() enters each command
/// in listing mode: parse() prints the command's usage and throws
/// UsageExit, so none of them runs.
struct Cli {
  const Command& command;
  std::span<const std::string> args;
  bool listing = false;
  /// The table parse() last read. Kept for the usage text only: its
  /// bindings point into the command's locals and are not called again.
  FlagTable flags = {};

  /// Sets each flag in @p table from the arguments and returns the other
  /// tokens, the operands, in order. An unknown flag, a missing or
  /// malformed value, a missing required flag or an operand count the
  /// synopsis does not allow fail()s.
  std::vector<std::string> parse(FlagTable table = {}) {
    flags = std::move(table);
    if (listing) {
      print("  ");
      throw UsageExit{};
    }
    std::vector<std::string> operands;
    std::vector<bool> seen(flags.size());
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& token = args[i];
      const auto flag = std::ranges::find(flags, token, &Flag::name);
      if (flag == flags.end()) {
        if (token.size() > 1 && token[0] == '-') fail("unknown flag " + token);
        operands.push_back(token);
        continue;
      }
      seen[static_cast<std::size_t>(flag - flags.begin())] = true;
      const bool takes_value = !flag->metavar.empty();
      if (takes_value && ++i == args.size()) fail(token + " needs a value");
      if (!flag->binding.set(takes_value ? args[i] : "")) {
        fail("bad value '" + args[i] + "' for " + token);
      }
    }
    for (std::size_t f = 0; f < flags.size(); ++f) {
      if (flags[f].required && !seen[f]) {
        fail("missing " + std::string(flags[f].name));
      }
    }
    const std::string_view synopsis = command.operands;
    const auto required = std::ranges::count(synopsis, '<');
    const auto allowed =
        std::ranges::count(synopsis, ' ') + (synopsis.empty() ? 0 : 1);
    if (std::ssize(operands) < required ||
        (std::ssize(operands) > allowed && !synopsis.ends_with("..."))) {
      fail("expected operands " + std::string(synopsis));
    }
    return operands;
  }

  /// Reads operand @p text as a number, or fail()s.
  template <typename T>
  T number(const std::string& text) const {
    T value{};
    if (!parse_value(text, value)) fail("bad number '" + text + "'");
    return value;
  }

  /// Prints @p why and this command's usage, then throws UsageExit.
  [[noreturn]] void fail(const std::string& why) const {
    std::fprintf(stderr, "siftctl %s: %s\n", std::string(command.name).c_str(),
                 why.c_str());
    print("usage: siftctl ");
    throw UsageExit{};
  }

  /// Prints the synopsis, the description, then each flag with its help
  /// on the lines below it.
  void print(const std::string& lead) const {
    std::string line = lead + std::string(command.name);
    if (!command.operands.empty()) (line += ' ') += command.operands;
    print_indented(line, 8);
    if (!command.about.empty()) {
      print_indented(std::string(8, ' ').append(command.about), 8);
    }
    for (const Flag& f : flags) {
      line = std::string(8, ' ').append(f.name);
      if (!f.metavar.empty()) (line += ' ') += f.metavar;
      print_indented(f.required ? line + " (required)" : line, 8);
      if (!f.help.empty()) {
        print_indented(std::string(12, ' ').append(f.help), 12);
      }
    }
  }
};

// --- commands --------------------------------------------------------------

std::string archive_name(int user_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "u%06d.arc", user_id);
  return buf;
}

/// User ids present in an archive directory (uNNNNNN.arc), ascending.
std::vector<int> list_archive_ids(const std::string& dir) {
  std::vector<int> ids;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    int id = 0;
    if (name.size() < 5 || name.front() != 'u' ||
        name.substr(name.size() - 4) != ".arc" ||
        !parse_value(std::string_view(name).substr(1, name.size() - 5), id)) {
      continue;
    }
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

int cmd_cohort_gen(Cli& cli) {
  std::string out_dir;
  std::size_t users = 256;
  double seconds = 24.0;
  std::uint64_t seed = 2017;
  double dup_frac = 0.0;
  cli.parse({{"--out", "DIR", "", out_dir, kRequired},
             {"--users", "N", "", users},
             {"--seconds", "S", "", seconds},
             {"--seed", "S", "", seed},
             {"--dup-frac", "F", "", dup_frac}});
  if (users == 0) cli.fail("--users must be positive");
  std::filesystem::create_directories(out_dir);

  const core::SiftConfig sift_config;
  const auto window_samples = static_cast<std::size_t>(
      std::lround(sift_config.window_s * physio::kDefaultRateHz));
  const auto stride_samples = static_cast<std::size_t>(
      std::lround(sift_config.train_stride_s * physio::kDefaultRateHz));

  const auto profiles = physio::synthetic_cohort(users, seed);
  std::uint64_t archive_bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t duplicates = 0;
  for (std::size_t u = 0; u < users; ++u) {
    physio::Record record = physio::generate_record(
        profiles[u], seconds, physio::kDefaultRateHz, /*salt=*/u);
    if (dup_frac > 0.0) {
      duplicates += physio::inject_duplicate_windows(
          record, window_samples, stride_samples, dup_frac,
          seed ^ static_cast<std::uint64_t>(u));
    }
    const auto bytes =
        cohort::encode_archive(record, cohort::kDefaultChunkSamples);
    raw_bytes += record.ecg.size() * 2 * sizeof(double);
    archive_bytes += bytes.size();
    io::write_file_atomic(
        out_dir + "/" + archive_name(static_cast<int>(u)), bytes);
  }
  std::printf(
      "cohort gen: %zu archives x %.0f s -> %s (%.1f MB, %.2fx vs raw "
      "samples, %llu duplicate windows injected)\n",
      users, seconds, out_dir.c_str(),
      static_cast<double>(archive_bytes) / 1.0e6,
      archive_bytes > 0
          ? static_cast<double>(raw_bytes) /
                static_cast<double>(archive_bytes)
          : 0.0,
      static_cast<unsigned long long>(duplicates));
  return 0;
}

/// `cohort extract` / `cohort train` set-up: the flags both take (train
/// adds --store), the archive ids, and a trainer reading a directory
/// written by `cohort gen` (or a real provisioning pipeline) behind a small
/// LRU that absorbs the donor pattern's re-reads.
struct CohortRun {
  std::string archives_dir;
  std::string store_dir;  // train only
  cohort::CohortConfig config;
  std::vector<int> ids;
  std::optional<cohort::CachingArchiveSource> archives;
  std::optional<cohort::CohortTrainer> trainer;

  /// Returns the exit code to stop with, or 0 once the trainer is ready.
  int open(Cli& cli, bool wants_store) {
    FlagTable flags = {
        {"--archives", "DIR", "", archives_dir, kRequired},
        {"--workers", "N", "", config.workers},
        {"--donors", "K", "", config.donors_per_user}};
    if (wants_store) {
      flags.insert(flags.begin() + 1,
                   {"--store", "DIR", "", store_dir, kRequired});
    }
    cli.parse(std::move(flags));
    config.workers = std::max<std::size_t>(1, config.workers);
    ids = list_archive_ids(archives_dir);
    if (ids.empty()) {
      std::fprintf(stderr, "%s: no uNNNNNN.arc files in %s\n",
                   std::string(cli.command.name).c_str(), archives_dir.c_str());
      return 1;
    }
    archives.emplace(
        [dir = archives_dir](int user_id) {
          return io::read_file_bytes(dir + "/" + archive_name(user_id));
        },
        std::max<std::size_t>(16,
                              config.workers * (config.donors_per_user + 2)));
    trainer.emplace(archives->as_source(), config);
    return 0;
  }
};

void print_cohort_stats(const cohort::CohortStats& stats, double elapsed_s) {
  std::printf(
      "  %llu windows walked, %llu duplicate(s) dropped (%llu hash "
      "collision(s) kept), %llu unique rows, %.0f windows/s\n",
      static_cast<unsigned long long>(stats.windows_extracted),
      static_cast<unsigned long long>(stats.dedup_hits),
      static_cast<unsigned long long>(stats.hash_collisions),
      static_cast<unsigned long long>(stats.rows_stored),
      elapsed_s > 0.0
          ? static_cast<double>(stats.windows_extracted) / elapsed_s
          : 0.0);
}

int cmd_cohort_extract(Cli& cli) {
  CohortRun run;
  if (const int rc = run.open(cli, /*wants_store=*/false)) return rc;
  const auto start = std::chrono::steady_clock::now();
  const auto stats = run.trainer->extract_only(run.ids);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("cohort extract: %zu users over %zu worker(s) in %.2f s\n",
              run.ids.size(), run.config.workers, secs);
  print_cohort_stats(stats, secs);
  return 0;
}

int cmd_cohort_train(Cli& cli) {
  CohortRun run;
  if (const int rc = run.open(cli, /*wants_store=*/true)) return rc;
  const cohort::ModelStore store(run.store_dir);
  const auto start = std::chrono::steady_clock::now();
  const auto stats = run.trainer->train(run.ids, store);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf(
      "cohort train: %llu users -> %llu models in %s (%zu shards, "
      "%.1f users/s over %zu worker(s))\n",
      static_cast<unsigned long long>(stats.users_trained),
      static_cast<unsigned long long>(stats.models_written),
      run.store_dir.c_str(), store.shards(),
      secs > 0.0 ? static_cast<double>(stats.users_trained) / secs : 0.0,
      run.config.workers);
  print_cohort_stats(stats, secs);
  return 0;
}

int cmd_cohort(Cli& cli) {
  const auto args = cli.parse();
  const auto n = args.size() > 0 ? cli.number<std::size_t>(args[0]) : 12;
  const auto seed =
      args.size() > 1 ? cli.number<std::uint64_t>(args[1]) : 2017;
  std::printf("%-4s %-12s %6s %8s %8s %8s\n", "id", "name", "age", "HR",
              "SBP", "DBP");
  for (const auto& u : physio::synthetic_cohort(n, seed)) {
    std::printf("%-4d %-12s %6.0f %8.1f %8.0f %8.0f\n", u.user_id,
                u.name.c_str(), u.age_years, u.rr.mean_hr_bpm,
                u.abp.diastolic_mmhg + u.abp.pulse_pressure_mmhg,
                u.abp.diastolic_mmhg);
  }
  return 0;
}

int cmd_synth(Cli& cli) {
  const auto args = cli.parse();
  const auto user_index = cli.number<std::size_t>(args[0]);
  const auto seconds = cli.number<double>(args[1]);
  const std::string& out = args[2];
  const auto seed =
      args.size() > 3 ? cli.number<std::uint64_t>(args[3]) : 2017;
  const auto salt = args.size() > 4 ? cli.number<std::uint64_t>(args[4]) : 0;

  const auto cohort = physio::synthetic_cohort(
      std::max<std::size_t>(12, user_index + 1), seed);
  const auto record =
      physio::generate_record(cohort[user_index], seconds,
                              physio::kDefaultRateHz, salt);
  io::save_record_csv(out, record);
  std::printf("wrote %s: %.0f s, %zu samples, %zu R peaks, %zu systolic\n",
              out.c_str(), seconds, record.ecg.size(), record.r_peaks.size(),
              record.systolic_peaks.size());
  return 0;
}

int cmd_peaks(Cli& cli) {
  const auto args = cli.parse();
  const auto record = io::load_record_csv(args[0]);
  const auto r = peaks::detect_r_peaks(record.ecg);
  const auto s = peaks::detect_systolic_peaks(record.abp);
  std::printf("run-time detection: %zu R peaks (annotated: %zu), "
              "%zu systolic (annotated: %zu)\n",
              r.size(), record.r_peaks.size(), s.size(),
              record.systolic_peaks.size());
  return 0;
}

int cmd_train(Cli& cli) {
  std::string out;
  core::SiftConfig config;
  const auto csvs =
      cli.parse({{"-o", "<model.txt>", "", out, kRequired},
                 {"-v", "Original|Simplified|Reduced", "", config.version}});

  const auto wearer = io::load_record_csv(csvs[0]);
  std::vector<physio::Record> donors;
  for (std::size_t i = 1; i < csvs.size(); ++i) {
    donors.push_back(io::load_record_csv(csvs[i]));
  }
  const auto model = core::train_user_model(wearer, donors, config);
  io::save_user_model(out, model);
  std::printf("trained %s model (%zu features) -> %s\n",
              core::to_string(config.version), model.svm.w.size(),
              out.c_str());
  return 0;
}

int cmd_detect(Cli& cli) {
  const auto args = cli.parse();
  const auto model = io::load_user_model(args[0]);
  const auto trace = io::load_record_csv(args[1]);
  const core::Detector detector(model);
  const auto verdicts = detector.classify_record(trace);
  std::size_t alerts = 0;
  for (std::size_t w = 0; w < verdicts.size(); ++w) {
    if (verdicts[w].altered) ++alerts;
    std::printf("window %3zu [%6.1fs]: %-7s margin %+8.3f%s\n", w,
                w * model.config.window_s,
                verdicts[w].altered ? "ALERT" : "ok",
                verdicts[w].decision_value,
                verdicts[w].peak_check_failed ? "  (peak check failed)" : "");
  }
  std::printf("%zu/%zu windows alerted\n", alerts, verdicts.size());
  return 0;
}

int cmd_attack(Cli& cli) {
  const auto args = cli.parse();
  const double fraction =
      args.size() > 3 ? cli.number<double>(args[3]) : 0.5;
  const auto victim = io::load_record_csv(args[0]);
  const auto donor = io::load_record_csv(args[1]);

  attack::SubstitutionAttack substitution;
  const std::vector<physio::Record> donors{donor};
  const auto window =
      static_cast<std::size_t>(3.0 * victim.ecg.sample_rate_hz());
  const auto attacked = attack::corrupt_windows(victim, donors, substitution,
                                                fraction, window, 1);
  io::save_record_csv(args[2], attacked.record);
  std::size_t altered = 0;
  for (bool b : attacked.window_altered) altered += b ? 1 : 0;
  std::printf("wrote %s: %zu/%zu windows substituted\n", args[2].c_str(),
              altered, attacked.window_altered.size());
  return 0;
}

int cmd_attack_matrix(Cli& cli) {
  core::AttackMatrixConfig config;
  core::ExperimentConfig& experiment = config.experiment;
  std::string json_path;
  std::string md_path;
  cli.parse({{"--users", "N", "", experiment.n_users},
             {"--seed", "S", "", experiment.cohort_seed},
             {"--train-s", "S", "", experiment.train_duration_s},
             {"--test-s", "S", "", experiment.test_duration_s},
             {"--fpr-budget", "F", "", config.fpr_budget},
             {"--json", "PATH", "", json_path},
             {"--md", "PATH", "", md_path},
             // The CI corpus: small enough to finish in single-digit
             // minutes, big enough that every attack family still has
             // both classes per user.
             {"--smoke", "",
              "the reduced CI corpus (4 users, 4 min training)",
              [&](std::string_view) {
                experiment.n_users = 4;
                experiment.train_duration_s = 240.0;
                experiment.test_duration_s = 120.0;
                return true;
              }}});

  const auto result = core::run_attack_matrix(config);
  const std::string markdown = core::attack_matrix_markdown(result);
  std::fputs(markdown.c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os.good()) throw std::runtime_error("cannot open " + json_path);
    os << core::attack_matrix_json(result);
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  if (!md_path.empty()) {
    std::ofstream os(md_path);
    if (!os.good()) throw std::runtime_error("cannot open " + md_path);
    os << markdown;
    std::fprintf(stderr, "wrote %s\n", md_path.c_str());
  }
  return 0;
}

int cmd_emit_c(Cli& cli) {
  const auto args = cli.parse();
  std::cout << amulet::emit_amulet_app_c(io::load_user_model(args[0]));
  return 0;
}

int cmd_emit_qm(Cli& cli) {
  const auto args = cli.parse();
  const auto model = io::load_user_model(args[0]);
  std::cout << amulet::emit_qm_model_xml("SiftDetector",
                                         model.config.version);
  return 0;
}

int cmd_check(Cli& cli) {
  bool no_libm = false;
  const auto args = cli.parse(
      {{"--no-libm", "", "reject any use of the C math library", no_libm}});
  // The check gates code destined for scalar-only MCUs, so surface what the
  // *host* pipeline dispatches to — the two must not be conflated.
  std::printf("host simd: %s (available:", simd::to_string(simd::active_level()));
  for (const auto level : simd::available_levels()) {
    std::printf(" %s", simd::to_string(level));
  }
  std::printf(")\n");
  std::ifstream is(args[0]);
  if (!is.good()) throw std::runtime_error("cannot open " + args[0]);
  std::stringstream ss;
  ss << is.rdbuf();
  amulet::AmuletCCheckOptions options;
  options.allow_math_library = !no_libm;
  const auto violations = amulet::check_amulet_c(ss.str(), options);
  for (const auto& v : violations) {
    std::printf("%s:%zu: [%s] %s\n", args[0].c_str(), v.line,
                amulet::to_string(v.rule), v.excerpt.c_str());
  }
  std::printf("%zu violation(s)\n", violations.size());
  return violations.empty() ? 0 : 1;
}

int cmd_profile(Cli& cli) {
  const auto args = cli.parse();
  const auto model = io::load_user_model(args[0]);
  const auto trace = io::load_record_csv(args[1]);
  amulet::Scheduler scheduler;
  amulet::SiftApp app(model, trace, scheduler);
  scheduler.add_app(app);
  amulet::run_app_over_trace(app, scheduler);
  std::cout << amulet::format_arp_view(
      amulet::profile_app(app, amulet::EnergyModel{}, model.config.window_s));
  return 0;
}

// Engine set-up shared by `fleet` and `serve`: the flags both accept, the
// optional cohort model store, durability, warm-load, recovery and the
// background checkpointer. Member order is the teardown contract: the
// checkpointer stops before the engine dies, and the engine before the
// durability layer and the model store it points into.
struct EngineHost {
  explicit EngineHost(const char* command) : cmd(command) {}
  // The checkpointer thread holds `this`.
  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  const char* cmd;  ///< command name, the prefix of every status line
  fleet::FleetConfig config;
  std::string checkpoint_dir;
  std::string model_store_dir;
  std::size_t checkpoint_interval_ms = 500;
  bool recover = false;

  std::optional<cohort::ModelStore> model_store;
  std::vector<int> manifest;
  fleet::TieredModelProvider store_provider;
  std::optional<fleet::durable::Durability> durability;
  std::optional<fleet::FleetEngine> engine;
  fleet::durable::RecoveryResult recovered;
  std::jthread checkpointer;

  /// @p own, the command's flags, then the flags fleet and serve share
  /// (--models lands in @p replay).
  FlagTable flags(FlagTable own, fleet::ReplayConfig& replay) {
    own.insert(own.end(), {
        {"--workers", "N",
         "0 (the default) runs one worker per core; explicit counts\n"
         "are clamped to the cores actually present",
         config.workers},
        {"--pin-cores", "", "pin worker w to CPU core w", config.pin_cores},
        {"--shards", "N", "", config.shards},
        {"--queue-capacity", "N", "", config.queue_capacity},
        {"--max-batch", "N", "", config.max_batch},
        {"--policy", "block|drop-oldest", "", config.backpressure},
        {"--models", "K", "", replay.distinct_users},
        {"--checkpoint-dir", "DIR",
         "journal every verdict and checkpoint session state into DIR",
         checkpoint_dir},
        {"--checkpoint-interval", "MS", "cadence (default 500)",
         checkpoint_interval_ms},
        {"--recover", "",
         "restore DIR's newest checkpoint and resume the replay past\n"
         "its cursors",
         recover},
        {"--model-store", "DIR",
         "skip in-process training and serve models from a `cohort\n"
         "train` store (manifest warm-load; sessions map onto the\n"
         "manifest round-robin)",
         model_store_dir},
    });
    return own;
  }

  /// Sizes the model cache for @p replay's models, then opens the model
  /// store (--model-store) and the durability directory
  /// (--checkpoint-dir). Returns the exit code to stop with, or 0.
  int open(const fleet::ReplayConfig& replay) {
    config.model_cache_capacity =
        std::max<std::size_t>(1, replay.distinct_users);
    // Detection models from a cohort-trained store: sessions map onto the
    // manifest round-robin, and the registry loads them off disk.
    if (!model_store_dir.empty()) {
      model_store.emplace(model_store_dir);
      manifest = model_store->read_manifest();
      if (manifest.empty()) {
        std::fprintf(stderr, "%s: no manifest in %s (run siftctl cohort "
                     "train first)\n", cmd, model_store_dir.c_str());
        return 1;
      }
      config.model_cache_capacity = manifest.size();
      store_provider = [inner = model_store->provider(),
                        ids = manifest](int user_id,
                                        core::DetectorVersion version) {
        return inner(ids[static_cast<std::size_t>(user_id) % ids.size()],
                     version);
      };
    }
    if (!checkpoint_dir.empty()) {
      std::filesystem::create_directories(checkpoint_dir);
      durability.emplace(checkpoint_dir);
      config.durability = &*durability;
    } else if (recover) {
      std::fprintf(stderr, "%s: --recover needs --checkpoint-dir\n", cmd);
      return 2;
    }
    return 0;
  }

  /// Starts the engine over @p provider, warm-loads the store's manifest,
  /// recovers (--recover) and starts the background checkpoint cadence.
  template <typename Provider>
  fleet::FleetEngine& start(Provider provider) {
    engine.emplace(std::move(provider), config);
    if (model_store) {
      const auto warm_start = std::chrono::steady_clock::now();
      const std::size_t warm = engine->models().warm_load(
          manifest, core::DetectorVersion::kOriginal);
      std::fprintf(
          stderr, "%s: warm-loaded %zu/%zu model(s) from %s in %.0f ms\n",
          cmd, warm, manifest.size(), model_store_dir.c_str(),
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - warm_start)
              .count());
    }
    if (recover) {
      recovered = durability->recover_into(*engine);
      std::fprintf(stderr,
                   "%s: recovered %zu session(s) from %s "
                   "(checkpoint %s, %llu journal frame(s), %llu torn "
                   "tail(s) truncated)\n",
                   cmd, recovered.sessions_restored, checkpoint_dir.c_str(),
                   recovered.checkpoint_loaded ? "loaded" : "absent",
                   static_cast<unsigned long long>(recovered.frames_replayed),
                   static_cast<unsigned long long>(
                       recovered.frames_discarded_torn));
    }
    // The way a deployment runs it: the snapshot thread races live ingest
    // on purpose (checkpoints are taken under the shard locks, so this is
    // safe by construction).
    if (durability) {
      checkpointer = std::jthread([this](std::stop_token stop) {
        const auto interval = std::chrono::milliseconds(
            std::max<std::size_t>(1, checkpoint_interval_ms));
        while (!stop.stop_requested()) {
          std::this_thread::sleep_for(interval);
          if (stop.stop_requested()) break;
          durability->checkpoint(*engine);
        }
      });
    }
    return *engine;
  }

  /// Stops the checkpointer, then checkpoints the drained tail.
  void finish() {
    if (checkpointer.joinable()) {
      checkpointer.request_stop();
      checkpointer.join();
    }
    if (durability) durability->checkpoint(*engine);
  }
};

int cmd_fleet(Cli& cli) {
  fleet::ReplayConfig replay;
  std::size_t producers = 4;
  bool chaos = false;
  std::uint64_t chaos_seed = 1;
  // Both outlive the engine the host owns: it calls into them until drain.
  std::optional<fleet::ReplayFixture> fixture;
  std::unique_ptr<fleet::FaultInjector> injector;
  EngineHost host("fleet");
  cli.parse(host.flags(
      {{"--sessions", "N", "", replay.sessions},
       {"--seconds", "S", "", replay.seconds},
       {"--producers", "N", "", producers},
       {"--chaos", "SEED",
        "inject a deterministic fault schedule (corruption, provider\n"
        "failures, worker throws, overload bursts)",
        [&](std::string_view v) {
          return chaos = parse_value(v, chaos_seed);
        }}},
      replay));
  replay.train_all_tiers = chaos;  // chaos exercises the degradation ladder
  if (const int rc = host.open(replay); rc != 0) return rc;
  fleet::FleetConfig& config = host.config;
  // With a model store the fixture is only the packet synthesiser, so its
  // own (unused) model training is cut to the minimum the build path
  // accepts.
  if (host.model_store) replay.train_seconds = 12.0;

  std::fprintf(stderr,
               "fleet: training %zu model(s)%s, synthesising %zu session(s) "
               "of %.0f s...\n",
               replay.distinct_users, chaos ? " x3 tiers" : "",
               replay.sessions, replay.seconds);
  fixture.emplace(fleet::ReplayFixture::build(replay));

  if (chaos) {
    // A representative schedule touching every injection point: the first
    // few sessions get payload corruption, the next few a flaky provider
    // and worker throws, and shard 0 an overload burst that forces the
    // shed ladder down.
    fleet::FaultConfig fc;
    fc.seed = chaos_seed;
    const int n = static_cast<int>(replay.sessions);
    for (int u = 0; u < n && u < 4; ++u) fc.payload_users.push_back(u);
    for (int u = 4; u < n && u < 6; ++u) fc.provider_fail_users.push_back(u);
    for (int u = 6; u < n && u < 8; ++u) fc.worker_throw_users.push_back(u);
    fc.nan_probability = 0.05;
    fc.corrupt_probability = 0.05;
    fc.truncate_probability = 0.05;
    fc.seq_skew_probability = 0.02;
    fc.provider_failures_per_user = 2;
    fc.worker_throws_per_user = 8;
    fc.overload_shards.push_back(0);
    fc.overload_from_dequeue = 16;
    fc.overload_until_dequeue = 96;
    fc.overload_forced_depth = config.queue_capacity;
    injector = std::make_unique<fleet::FaultInjector>(fc);
    config.injector = injector.get();
    config.load_shed.enabled = true;
    config.load_shed.high_watermark = config.queue_capacity / 2;
  }

  // Chaos needs the tiered ladder; a plain fixture run serves one tier.
  fleet::TieredModelProvider tiered = host.store_provider;
  if (!tiered && chaos) tiered = fixture->provider_tiered();
  if (chaos) tiered = injector->wrap_provider(std::move(tiered));
  fleet::FleetEngine& engine = tiered ? host.start(std::move(tiered))
                                      : host.start(fixture->provider());

  std::fprintf(stderr,
               "fleet: replaying %zu packets over %zu worker(s), %zu "
               "shard(s), policy %s...\n",
               fixture->total_packets(), engine.workers(), config.shards,
               fleet::to_string(config.backpressure));

  const auto result =
      host.recover ? fleet::replay_resume(engine, *fixture,
                                          host.recovered.cursors,
                                          injector.get())
                   : fleet::replay_through(engine, *fixture, producers,
                                           injector.get());
  host.finish();
  if (host.durability) {
    const auto& durability = *host.durability;
    std::fprintf(stderr,
                 "durable: %llu checkpoint(s), %llu journal bytes over %zu "
                 "segment(s), %llu verdict(s) journaled, %llu "
                 "deduplicated\n",
                 static_cast<unsigned long long>(
                     durability.checkpoints_written()),
                 static_cast<unsigned long long>(durability.journal_bytes()),
                 durability.segment_count(),
                 static_cast<unsigned long long>(
                     durability.journal_appends()),
                 static_cast<unsigned long long>(
                     durability.frames_deduplicated()));
  }

  const double secs =
      std::chrono::duration<double>(result.elapsed).count();
  std::fprintf(stderr,
               "fleet: %llu windows in %.3f s (%.0f windows/s, %.0f "
               "packets/s)\n",
               static_cast<unsigned long long>(result.windows_classified),
               secs, static_cast<double>(result.windows_classified) / secs,
               static_cast<double>(result.packets_offered) / secs);
  for (std::size_t w = 0; w < engine.workers(); ++w) {
    const std::string prefix = "fleet.worker." + std::to_string(w);
    auto& metrics = engine.metrics();
    std::fprintf(stderr,
                 "  worker %zu: %llu packet(s) in %llu batch(es), "
                 "batch p50 %.0f / p99 %.0f\n",
                 w,
                 static_cast<unsigned long long>(
                     metrics.counter(prefix + ".packets").value()),
                 static_cast<unsigned long long>(
                     metrics.counter(prefix + ".batches").value()),
                 metrics.size_histogram(prefix + ".batch_size")
                     .quantile_us(0.50),
                 metrics.size_histogram(prefix + ".batch_size")
                     .quantile_us(0.99));
  }
  if (injector) {
    const auto c = injector->counts();
    std::fprintf(stderr,
                 "chaos: injected %llu payload faults (%llu nan, %llu "
                 "corrupt, %llu truncated, %llu seq-skew), %llu provider "
                 "throws, %llu worker throws, %llu overloaded dequeues\n",
                 static_cast<unsigned long long>(c.payload_total()),
                 static_cast<unsigned long long>(c.nan_samples),
                 static_cast<unsigned long long>(c.corrupted),
                 static_cast<unsigned long long>(c.truncated),
                 static_cast<unsigned long long>(c.seq_skewed),
                 static_cast<unsigned long long>(c.provider_throws),
                 static_cast<unsigned long long>(c.worker_throws),
                 static_cast<unsigned long long>(c.overload_dequeues));
  }
  std::printf("%s\n", engine.metrics_json().c_str());
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_serve(Cli& cli) {
  fleet::ReplayConfig replay;
  net::NetServerConfig net_config;
  // The pool and the fixture outlive the engine the host owns
  // (packet_return fires from workers until drain, and the fixture's
  // provider serves model loads), and the engine outlives the server —
  // declaration order is the teardown contract.
  net::PacketPool pool;
  std::optional<fleet::ReplayFixture> fixture;
  EngineHost host("serve");
  cli.parse(host.flags(
      {{"--listen", "ADDR",
        "network ingest gateway address: unix:PATH or tcp:HOST:PORT\n"
        "(port 0 picks an ephemeral port)",
        net_config.listen, kRequired},
       {"--train-seconds", "S", "", replay.train_seconds},
       {"--seed", "N", "", replay.seed},
       {"--max-connections", "N", "", net_config.max_connections},
       {"--idle-timeout-ms", "MS", "", net_config.idle_timeout},
       {"--stall-timeout-ms", "MS",
        "reap write-stalled / backpressure-parked peers (0 = 4 x idle\n"
        "timeout)",
        net_config.stall_timeout},
       {"--rate-limit", "PPS",
        "per-connection leaky bucket; over-rate packets are shed and\n"
        "charge anti-replay suspicion",
        net_config.rate_limit_pps},
       {"--accept-burst", "N", "accepts per listener wakeup",
        net_config.accept_burst}},
      replay));
  if (const int rc = host.open(replay); rc != 0) return rc;

  // With a model store the gateway trains nothing: models come off disk
  // through the registry (manifest warm-load), which is what lets a
  // 10k-user gateway start in well under a second.
  if (host.model_store) {
    std::fprintf(stderr, "serve: %zu model(s) from store %s\n",
                 host.manifest.size(), host.model_store_dir.c_str());
  } else {
    std::fprintf(stderr, "serve: training %zu model(s) (%.0f s each)...\n",
                 replay.distinct_users, replay.train_seconds);
    fixture.emplace(fleet::ReplayFixture::build_models_only(replay));
  }

  host.config.packet_return = pool.returner();
  fleet::FleetEngine& engine = host.store_provider
                                   ? host.start(host.store_provider)
                                   : host.start(fixture->provider());

  net::NetServer server(engine, net_config, &pool);
  server.start();
  std::fprintf(stderr,
               "serve: listening on %s (%zu worker(s), %zu shard(s), "
               "policy %s); SIGTERM to drain\n",
               server.address().c_str(), engine.workers(), host.config.shards,
               fleet::to_string(host.config.backpressure));

  g_stop_requested = 0;
  struct sigaction action = {};
  action.sa_handler = handle_stop_signal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  while (!g_stop_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "serve: draining...\n");
  server.stop();    // flush buffered frames into the engine, close sockets
  engine.drain();   // classify everything accepted
  host.finish();

  auto& metrics = engine.metrics();
  std::fprintf(
      stderr,
      "serve: %llu conn(s) accepted, %llu frame(s) / %llu byte(s) in, "
      "%llu packet(s) streamed, %llu backpressure stall(s), %llu protocol "
      "error(s), %llu idle timeout(s)\n",
      static_cast<unsigned long long>(
          metrics.counter("net.connections_accepted").value()),
      static_cast<unsigned long long>(metrics.counter("net.frames_in").value()),
      static_cast<unsigned long long>(metrics.counter("net.bytes_in").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.packets_streamed").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.backpressure_stalls").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.protocol_errors").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.idle_timeouts").value()));
  std::fprintf(
      stderr,
      "serve: %llu reconnect(s), %llu resume(s), %llu stall reap(s), "
      "%llu rate-limited packet(s), %llu fault(s) injected\n",
      static_cast<unsigned long long>(
          metrics.counter("net.reconnects").value()),
      static_cast<unsigned long long>(metrics.counter("net.resumes").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.stall_reaps").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.rate_limited").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.faults_injected").value()));
  std::printf("%s\n", engine.metrics_json().c_str());
  return 0;
}

int cmd_drive(Cli& cli) {
  net::DriveConfig config;
  net::NetFaultConfig fault_config;
  bool chaos_net = false;
  cli.parse({{"--connect", "ADDR", "", config.address, kRequired},
             {"--connections", "N", "", config.connections},
             {"--users", "N", "", config.users},
             {"--seconds", "S", "", config.seconds},
             {"--rate", "HZ", "", config.rate_hz},
             {"--models", "K", "", config.distinct_users},
             {"--seed", "N", "", config.seed},
             {"--samples-per-packet", "N", "", config.samples_per_packet},
             {"--settle-timeout-ms", "MS", "", config.settle_timeout},
             {"--chaos-net", "SEED",
              "run every connection through a deterministic wire-fault shim\n"
              "(partial writes, stalls, resets, mid-frame kills) with\n"
              "reconnect-with-resume senders",
              [&](std::string_view v) {
                return chaos_net = parse_value(v, fault_config.seed);
              }},
             {"--resume", "",
              "resuming senders on a clean wire (survives gateway restarts)",
              config.resume}});

  // The same moderate schedule the chaos tests use: rough enough that every
  // connection reconnects at least once on a real stream, gentle enough
  // that the drive still settles inside its timeout.
  if (chaos_net) {
    fault_config.partial_write_probability = 0.2;
    fault_config.short_read_probability = 0.1;
    fault_config.write_eagain_probability = 0.05;
    fault_config.reset_probability = 0.03;
    fault_config.midframe_kill_probability = 0.03;
    fault_config.stall = std::chrono::milliseconds(1);
  }
  net::FaultyTransport shim(fault_config);
  if (chaos_net) config.faults = &shim;

  std::fprintf(stderr,
               "drive: %zu session(s) of %.0f s over %zu connection(s) "
               "to %s...\n",
               config.users, config.seconds, config.connections,
               config.address.c_str());
  const auto result = net::drive_load(config);
  const auto delta = [&](std::uint64_t net::wire::Stats::* field) {
    return result.after.*field - result.before.*field;
  };
  std::fprintf(stderr,
               "drive: sent %llu packet(s) in %.3f s, settled in %.3f s "
               "total (%.0f packets/s, %.0f windows/s)\n",
               static_cast<unsigned long long>(result.packets_sent),
               result.send_seconds, result.total_seconds,
               static_cast<double>(result.packets_sent) / result.send_seconds,
               static_cast<double>(delta(&net::wire::Stats::windows_classified)) /
                   result.total_seconds);
  std::printf("drive: sent=%llu accepted=%llu rejected=%llu windows=%llu "
              "alerts=%llu frames=%llu reconnects=%llu resumes=%llu "
              "skipped=%llu settled=%d\n",
              static_cast<unsigned long long>(result.packets_sent),
              static_cast<unsigned long long>(
                  delta(&net::wire::Stats::packets_accepted)),
              static_cast<unsigned long long>(
                  delta(&net::wire::Stats::packets_rejected)),
              static_cast<unsigned long long>(
                  delta(&net::wire::Stats::windows_classified)),
              static_cast<unsigned long long>(delta(&net::wire::Stats::alerts)),
              static_cast<unsigned long long>(delta(&net::wire::Stats::frames_in)),
              static_cast<unsigned long long>(result.reconnects),
              static_cast<unsigned long long>(result.resumes),
              static_cast<unsigned long long>(result.packets_skipped),
              result.settled ? 1 : 0);
  if (!result.settled) {
    std::fprintf(stderr, "drive: NOT settled (server still owes packets)\n");
    return 1;
  }
  return 0;
}

int cmd_journal_dump(Cli& cli) {
  const auto args = cli.parse();
  // Merge every per-core segment and print per-user seq order — the same
  // canonicalisation the chaos tests diff, so two dumps being byte-equal
  // means the journals are equivalent no matter how many cores wrote them.
  auto records = fleet::durable::Durability::scan_merged(args[0]);
  std::stable_sort(records.begin(), records.end(),
                   [](const fleet::durable::VerdictRecord& a,
                      const fleet::durable::VerdictRecord& b) {
                     if (a.user_id != b.user_id) return a.user_id < b.user_id;
                     return a.seq < b.seq;
                   });
  for (const auto& rec : records) {
    std::printf("user=%d seq=%llu decision=%.17g tier=%u flags=%u "
                "faults=%u quarantine=%u\n",
                rec.user_id, static_cast<unsigned long long>(rec.seq),
                rec.decision_value, static_cast<unsigned>(rec.tier),
                static_cast<unsigned>(rec.flags), rec.faults_total,
                rec.quarantine_dropped);
  }
  std::fprintf(stderr, "journal-dump: %zu record(s)\n", records.size());
  return 0;
}

/// Every command, in the order the usage lists them.
constexpr Command kCommands[] = {
    {"cohort", "[n] [seed]", "list the synthetic cohort", cmd_cohort},
    {"cohort gen", "", "write per-user compressed archives uNNNNNN.arc",
     cmd_cohort_gen},
    {"cohort extract", "", "stream + window walk + dedup, print counters",
     cmd_cohort_extract},
    {"cohort train", "",
     "train all three tiers per user into a sharded model store\n"
     "+ warm-load manifest",
     cmd_cohort_train},
    {"synth", "<user-index> <seconds> <out.csv> [seed] [salt]",
     "generate a coupled ECG+ABP trace", cmd_synth},
    {"peaks", "<trace.csv>", "run-time peak detection", cmd_peaks},
    {"train", "<wearer.csv> <donor.csv>...", "train a user's model",
     cmd_train},
    {"detect", "<model.txt> <trace.csv>", "classify every window",
     cmd_detect},
    {"attack", "<victim.csv> <donor.csv> <out.csv> [fraction]",
     "substitute the donor's ECG into a fraction of the victim's windows",
     cmd_attack},
    {"attack-matrix", "",
     "runs every attack family against every detector tier;\n"
     "markdown to stdout, JSON snapshot to --json.",
     cmd_attack_matrix},
    {"emit-c", "<model.txt>", "Amulet-C translation unit", cmd_emit_c},
    {"emit-qm", "<model.txt>", "QM model XML", cmd_emit_qm},
    {"check", "<source.c>", "Amulet-C static checker", cmd_check},
    {"profile", "<model.txt> <trace.csv>", "ARP-view resource profile",
     cmd_profile},
    {"fleet", "",
     "replay a cohort through the fleet engine, print a metrics report",
     cmd_fleet},
    {"serve", "",
     "run the network ingest gateway; SIGTERM/SIGINT drain\n"
     "gracefully and print a final metrics snapshot on stdout",
     cmd_serve},
    {"drive", "",
     "closed-loop load driver against a running gateway; exits\n"
     "nonzero unless every packet sent was accounted for by the\n"
     "server",
     cmd_drive},
    {"journal-dump", "<dir>",
     "print a checkpoint dir's merged verdict journal, one line\n"
     "per record in per-user seq order",
     cmd_journal_dump},
};

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const auto find = [](std::string_view name) {
    const auto it = std::ranges::find(kCommands, name, &Command::name);
    return it == std::end(kCommands) ? nullptr : &*it;
  };
  // A two-word subcommand ("cohort gen") wins over its parent ("cohort").
  std::size_t words = 2;
  const Command* command =
      args.size() >= 2 ? find(args[0] + " " + args[1]) : nullptr;
  if (command == nullptr && !args.empty()) {
    words = 1;
    command = find(args[0]);
  }
  if (command == nullptr) {
    std::fprintf(stderr, "usage: siftctl <command> [args]\n");
    for (const Command& c : kCommands) {
      Cli listing{c, {}, /*listing=*/true};
      try {
        c.run(listing);
      } catch (const UsageExit&) {
      }
    }
    return 2;
  }
  Cli cli{*command, std::span(args).subspan(words)};
  try {
    return command->run(cli);
  } catch (const UsageExit&) {
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "siftctl %s: %s\n",
                 std::string(command->name).c_str(), e.what());
    return 1;
  }
}
