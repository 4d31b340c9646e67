// The offline workload, cohort-train.
//
// Set-up synthesises a small set of distinct signal records (duplicate
// windows injected at dup_frac 0.5) and encodes each with encode_archive;
// user u trains on archive u % archives, so a pass of ~1k users costs
// seconds of set-up. Each pass trains all three detector tiers for a fresh
// block of user ids with two workers into a fresh ModelStore. The pass's
// counters and store contents must equal a one-worker train of the same
// archives. "Recovery" for this workload is what a gateway booting from
// the store does: load every model of the pass back from disk.
//
// A traced run replays a sample of users single-threaded through the
// public stage functions (decode -> walk -> dedup -> features -> fit ->
// store), one span per call, and checks the replayed models are
// byte-identical to the trainer's.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cohort/archive.hpp"
#include "cohort/dedup.hpp"
#include "cohort/extractor.hpp"
#include "cohort/feature_store.hpp"
#include "cohort/model_store.hpp"
#include "cohort/trainer.hpp"
#include "common.hpp"
#include "io/model_file.hpp"
#include "ml/svm.hpp"
#include "physio/dataset.hpp"
#include "physio/user_profile.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sift::core::DetectorVersion;

struct Shape {
  std::size_t archives = 176;       ///< distinct records
  std::size_t users = 1056;         ///< users per pass (multiple of archives)
  double record_s = 24.0;
  double dup_frac = 0.5;
  std::size_t donors = 2;
  std::size_t workers = 2;
  std::size_t ledger_users = 48;    ///< users replayed by a traced run
};

constexpr DetectorVersion kTiers[] = {DetectorVersion::kOriginal,
                                      DetectorVersion::kSimplified,
                                      DetectorVersion::kReduced};

/// Store loads per pass; recover_s is the median of all of a run's loads.
/// On a shared host one load runs in a fast or a ~50% slower mode for
/// seconds at a time, so loads are taken in long bursts: a burst of 5 left
/// the run's median hanging on which mode a few bursts caught.
constexpr int kLoads = 16;

using Bytes = std::vector<std::uint8_t>;

struct Setup {
  std::vector<std::shared_ptr<const Bytes>> archives;
  double synth_s = 0;
};

Setup build_setup(const Shape& shape, std::uint64_t seed) {
  Setup s;
  const auto t0 = Clock::now();
  sift::core::SiftConfig config;
  const auto window = static_cast<std::size_t>(
      std::lround(config.window_s * sift::physio::kDefaultRateHz));
  const auto stride = static_cast<std::size_t>(
      std::lround(config.train_stride_s * sift::physio::kDefaultRateHz));
  const auto profiles = sift::physio::synthetic_cohort(shape.archives, seed);
  for (std::size_t k = 0; k < shape.archives; ++k) {
    auto record = sift::physio::generate_record(
        profiles[k], shape.record_s, sift::physio::kDefaultRateHz, k);
    sift::physio::inject_duplicate_windows(record, window, stride,
                                           shape.dup_frac, seed ^ k);
    s.archives.push_back(std::make_shared<const Bytes>(
        sift::cohort::encode_archive(record)));
  }
  s.synth_s = seconds_between(t0, Clock::now());
  return s;
}

/// Archive source that also timestamps every fetch per worker thread. The
/// trainer fetches a user's own archive and then its donors', so on each
/// thread every (donors + 1)-th fetch starts a new user: the gap between
/// two such fetches is one user's time from claim to models stored.
class TimedSource {
 public:
  TimedSource(const Setup& setup, std::size_t fetches_per_user)
      : setup_(setup), per_user_(fetches_per_user) {}

  sift::cohort::ArchiveSource source() {
    return [this](int user) {
      const auto now = Clock::now();
      {
        std::lock_guard lock(mu_);
        log_[std::this_thread::get_id()].push_back(now);
      }
      return setup_.archives[static_cast<std::size_t>(user) %
                             setup_.archives.size()];
    };
  }

  /// Per-user latencies in ms; each thread's last user is censored (its
  /// end is not observable from a fetch).
  std::vector<double> user_latency_ms() const {
    std::vector<double> out;
    for (const auto& [tid, times] : log_) {
      for (std::size_t i = per_user_; i < times.size(); i += per_user_) {
        out.push_back(std::chrono::duration<double, std::milli>(
                          times[i] - times[i - per_user_])
                          .count());
      }
    }
    return out;
  }

 private:
  const Setup& setup_;
  std::size_t per_user_;
  std::mutex mu_;
  std::map<std::thread::id, std::vector<Clock::time_point>> log_;
};

/// Every model of users base .. base+users-1, loaded back from the store:
/// the workload's recovery step.
std::vector<sift::core::UserModel> load_store(
    const sift::cohort::ModelStore& store, int base, std::size_t users) {
  std::vector<sift::core::UserModel> models;
  models.reserve(users * 3);
  for (std::size_t i = 0; i < users; ++i) {
    for (DetectorVersion v : kTiers) {
      models.push_back(store.load(base + static_cast<int>(i), v));
    }
  }
  return models;
}

/// Canonical content hash of a store: every model re-serialised with its
/// user id made relative to @p base, in (user, tier) order.
std::uint64_t canonical_hash(std::vector<sift::core::UserModel> models,
                             int base) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (auto& m : models) {
    m.user_id -= base;
    std::ostringstream os;
    sift::io::write_user_model(os, m);
    const std::string bytes = os.str();
    h = fnv1a(bytes.data(), bytes.size(), h);
  }
  return h;
}

struct PassStats {
  double seconds = 0;
  sift::cohort::CohortStats stats;
  std::uint64_t hash = 0;
  std::vector<double> loads_s;
};

class CohortRun {
 public:
  CohortRun(const Options& opt, Result& result, const Setup& setup,
            const Shape& shape)
      : opt_(opt), result_(result), setup_(setup), shape_(shape),
        tracer_(opt.trace) {}

  sift::cohort::CohortConfig config(std::size_t workers) const {
    sift::cohort::CohortConfig c;
    c.donors_per_user = shape_.donors;
    c.workers = workers;
    return c;
  }

  PassStats pass(int base, std::size_t workers, bool traced,
                 std::vector<double>* latency_ms, const std::string& dir) {
    Tracer off(false);
    Tracer& tr = traced ? tracer_ : off;
    ScopedSpan pass_span(tr, "pass.train", base);
    std::vector<int> ids(shape_.users);
    std::iota(ids.begin(), ids.end(), base);
    fs::create_directories(dir);
    sift::cohort::ModelStore store(dir);
    TimedSource source(setup_, shape_.donors + 1);
    sift::cohort::CohortTrainer trainer(source.source(), config(workers));
    PassStats ps;
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tr, "cohort.train", base);
      ps.stats = trainer.train(ids, store);
    }
    ps.seconds = seconds_between(t0, Clock::now());
    if (latency_ms != nullptr) {
      const auto lat = source.user_latency_ms();
      latency_ms->insert(latency_ms->end(), lat.begin(), lat.end());
    }
    // The store's writes are committed first so the loads do not race the
    // writeback. Loading is repeated; see kLoads.
    sync_disk(dir);
    std::vector<sift::core::UserModel> models;
    for (int r = 0; r < kLoads; ++r) {
      ScopedSpan span(tr, "cohort.load", base);
      const auto t1 = Clock::now();
      models = load_store(store, base, shape_.users);
      ps.loads_s.push_back(seconds_between(t1, Clock::now()));
    }
    ps.hash = canonical_hash(std::move(models), base);
    return ps;
  }

  void check_pass(const PassStats& ps, const PassStats& ref) {
    const auto& a = ps.stats;
    const auto& b = ref.stats;
    bool per_user = a.per_user.size() == b.per_user.size();
    for (std::size_t i = 0; per_user && i < a.per_user.size(); ++i) {
      per_user = a.per_user[i].negatives == b.per_user[i].negatives &&
                 a.per_user[i].positives == b.per_user[i].positives &&
                 a.per_user[i].dedup_hits == b.per_user[i].dedup_hits;
    }
    result_.check(a.users_trained == shape_.users &&
                      a.windows_extracted == b.windows_extracted &&
                      a.dedup_hits == b.dedup_hits &&
                      a.rows_stored == b.rows_stored &&
                      a.models_written == 3 * shape_.users &&
                      a.models_written == b.models_written &&
                      a.hash_collisions == 0 && per_user,
                  "cohort counters equal the one-worker train");
    result_.check(ps.hash == ref.hash,
                  "store contents equal the one-worker train");
  }

  struct Ledger {
    std::size_t users = 0;
    std::uint64_t windows = 0;
    std::uint64_t rows = 0;
    StageSeconds self_s;
    double get(const std::string& name) const {
      return stage_seconds(self_s, name);
    }
  };

  /// Single-threaded replay of CohortTrainer's per-user pipeline for the
  /// first ledger_users users of the reference id block, one span per
  /// stage call. The models it writes must equal the reference store's.
  Ledger replay_ledger(const sift::cohort::ModelStore& ref_store) {
    std::vector<StageSeconds> replays;
    Ledger out;
    for (int r = 0; r < kLedgerReplays; ++r) {
      out = replay_once(ref_store, r + 1 == kLedgerReplays);
      replays.push_back(out.self_s);
    }
    out.self_s = median_self_seconds(replays);
    return out;
  }

  Ledger replay_once(const sift::cohort::ModelStore& ref_store,
                     bool write_trace) {
    Tracer tr(true);
    Ledger out;
    const std::string dir = opt_.scratch + "/ledger";
    fs::create_directories(dir);
    sift::cohort::ModelStore store(dir);
    const sift::core::SiftConfig sift_config;
    const std::size_t n_users = shape_.users;
    sift::cohort::StreamingWindowExtractor extractor;
    sift::cohort::FeatureRowExtractor rows(sift_config.grid_n,
                                           sift_config.arithmetic);
    sift::cohort::WindowDedup dedup;
    sift::cohort::FeatureStore stores[3];
    std::vector<double> ecg, abp, ecg2, abp2, xmat;
    std::vector<std::size_t> rp, sp, rp2, sp2;
    std::vector<std::uint32_t> sel, pos_idx;
    std::vector<int> labels;
    bool identical = true;

    const auto archive = [&](std::size_t pos) -> const Bytes& {
      return *setup_.archives[pos % setup_.archives.size()];
    };
    for (std::size_t index = 0; index < shape_.ledger_users; ++index) {
      const int uid = static_cast<int>(index);
      ScopedSpan user_span(tr, "cohort.user", uid);
      sift::cohort::ArchiveReader wearer(archive(index));
      const double rate = wearer.rate_hz();
      const auto window = static_cast<std::size_t>(sift_config.window_s * rate + 0.5);
      const auto stride =
          static_cast<std::size_t>(sift_config.train_stride_s * rate + 0.5);
      dedup.reset();
      for (std::size_t t = 0; t < 3; ++t) {
        stores[t].reset(sift::core::feature_count(kTiers[t]));
      }
      const sift::cohort::StreamingWindowExtractor::WindowFn consume =
          [&](std::span<const double> e, std::span<const double> a,
              std::span<const std::size_t> r, std::span<const std::size_t> s) {
            ++out.windows;
            bool fresh = false;
            {
              ScopedSpan span(tr, "cohort.dedup", uid);
              fresh = dedup.insert(e, a, r, s);
            }
            if (!fresh) return;
            ScopedSpan span(tr, "cohort.features", uid);
            rows.set_window(e, a, r, s, rate);
            for (std::size_t t = 0; t < 3; ++t) {
              stores[t].push_row(rows.features(kTiers[t]));
            }
            ++out.rows;
          };
      const auto decode = [&](sift::cohort::ArchiveReader& rd,
                              std::vector<double>& e, std::vector<double>& a,
                              std::vector<std::size_t>& r,
                              std::vector<std::size_t>& s) {
        ScopedSpan span(tr, "cohort.decode", uid);
        return rd.next_chunk(e, a, r, s);
      };

      extractor.reset({window, stride});
      while (decode(wearer, ecg, abp, rp, sp)) {
        ScopedSpan span(tr, "cohort.walk", uid);
        extractor.feed_ecg(ecg, rp);
        extractor.feed_abp(abp, sp);
        extractor.drain(consume);
      }
      const std::size_t n_negative = stores[0].rows();
      for (std::size_t k = 1; k <= shape_.donors; ++k) {
        sift::cohort::ArchiveReader donor(archive((index + k) % n_users));
        sift::cohort::ArchiveReader wearer_abp(archive(index));
        extractor.reset({window, stride});
        bool more_donor = true, more_wearer = true;
        while (more_donor || more_wearer) {
          if (more_donor) more_donor = decode(donor, ecg, abp, rp, sp);
          if (more_wearer) more_wearer = decode(wearer_abp, ecg2, abp2, rp2, sp2);
          ScopedSpan span(tr, "cohort.walk", uid);
          if (more_donor) extractor.feed_ecg(ecg, rp);
          if (more_wearer) extractor.feed_abp(abp2, sp2);
          extractor.drain(consume);
        }
      }
      const std::size_t n_positive = stores[0].rows() - n_negative;

      std::mt19937_64 rng(sift_config.seed);
      pos_idx.resize(n_positive);
      std::iota(pos_idx.begin(), pos_idx.end(), 0u);
      std::shuffle(pos_idx.begin(), pos_idx.end(), rng);
      if (pos_idx.size() > n_negative) pos_idx.resize(n_negative);
      sel.clear();
      labels.clear();
      for (std::size_t i = 0; i < n_negative; ++i) {
        sel.push_back(static_cast<std::uint32_t>(i));
        labels.push_back(-1);
      }
      for (std::uint32_t p : pos_idx) {
        sel.push_back(static_cast<std::uint32_t>(n_negative) + p);
        labels.push_back(+1);
      }
      for (std::size_t t = 0; t < 3; ++t) {
        const std::size_t d = sift::core::feature_count(kTiers[t]);
        sift::core::UserModel model;
        model.user_id = uid;
        model.config = sift_config;
        model.config.version = kTiers[t];
        {
          ScopedSpan span(tr, "ml.fit", uid);
          model.scaler.fit_columns(stores[t].column_pointers(), sel);
          xmat.resize(sel.size() * d);
          model.scaler.transform_columns_into(stores[t].column_pointers(),
                                              sel, xmat);
          model.svm = sift::ml::DcdTrainer{}.train_matrix(xmat, d, labels,
                                                          sift_config.svm);
        }
        {
          ScopedSpan span(tr, "cohort.store", uid);
          store.save(model);
        }
        identical = identical && file_bytes(store.path_for(uid, kTiers[t])) ==
                                     file_bytes(ref_store.path_for(uid, kTiers[t]));
      }
      ++out.users;
    }
    result_.check(identical,
                  "ledger replay models are byte-identical to the trainer's");
    out.self_s = tr.self_seconds();
    if (write_trace) {
      tr.write(opt_.scratch + "/../trace-" + opt_.workload + "-ledger.tsv");
    }
    return out;
  }

  static std::string file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  int run() {
    // The trainer's worker threads inherit this mask: they run on cores
    // 0..workers-1, the cores the online workloads pin their engine
    // workers to, rather than wherever the scheduler drops them.
    pin_to_cores(0, shape_.workers);
    std::vector<double> ups, ups_traced, wps, loads, latency_ms, rss;
    std::vector<PassStats> passes;
    int next_base = static_cast<int>(shape_.users);  // block 0 = reference
    const auto start = Clock::now();
    for (int p = 0;; ++p) {
      const bool traced = opt_.trace && p % 2 == 1;
      const std::string dir = opt_.scratch + "/pass" + std::to_string(p);
      PassRss pass_rss;
      pass_rss.begin();
      PassStats ps = pass(next_base, shape_.workers, traced,
                          traced ? nullptr : &latency_ms, dir);
      rss.push_back(pass_rss.end());
      next_base += static_cast<int>(shape_.users);
      const double u = static_cast<double>(ps.stats.users_trained) / ps.seconds;
      (traced ? ups_traced : ups).push_back(u);
      if (!traced) {
        wps.push_back(static_cast<double>(ps.stats.windows_extracted) /
                      ps.seconds);
      }
      loads.insert(loads.end(), ps.loads_s.begin(), ps.loads_s.end());
      remove_and_sync(dir);
      std::fprintf(stderr,
                   "perfbench: cohort pass %d%s: %.1f users/s, load %.4f s\n",
                   p, traced ? " (traced)" : "", u, median(ps.loads_s));
      passes.push_back(std::move(ps));
      const bool enough = ups.size() >= 3 && (!opt_.trace || ups_traced.size() >= 2);
      if (enough && seconds_between(start, Clock::now()) >= opt_.seconds) break;
    }

    // Reference: the same archives, one worker, user ids 0..users-1.
    const std::string ref_dir = opt_.scratch + "/reference";
    const PassStats ref = pass(0, 1, false, nullptr, ref_dir);
    for (const PassStats& ps : passes) check_pass(ps, ref);
    result_.attempted = shape_.users * passes.size();
    std::uint64_t trained = 0;
    for (const PassStats& ps : passes) trained += ps.stats.users_trained;
    result_.failed = result_.attempted - trained;
    if (!result_.correct()) return 1;

    if (!opt_.trace) {
      remove_and_sync(ref_dir);
      result_.metric("setup_s", setup_s, "s");
      result_.metric("windows_per_s", median(wps), "1/s");
      result_.metric("users_per_s", median(ups), "1/s");
      result_.metric("verdict_p50_ms", quantile(latency_ms, 0.50), "ms");
      result_.metric("recover_s", median(loads), "s");
      return 0;
    }

    const Ledger ledger = replay_ledger(sift::cohort::ModelStore(ref_dir));
    remove_and_sync(ref_dir);
    if (!result_.correct()) return 1;
    const double users = static_cast<double>(ledger.users);
    const double windows = static_cast<double>(ledger.windows);
    const double rows = static_cast<double>(ledger.rows);
    double stage_s = 0;
    for (const char* s : {"cohort.decode", "cohort.walk", "cohort.dedup",
                          "cohort.features", "ml.fit", "cohort.store"}) {
      stage_s += ledger.get(s);
    }
    const double per_user_cost_s =
        static_cast<double>(shape_.workers) / median(ups);

    result_.metric("pass_rss_mb", median(rss), "MB");
    result_.metric("verdict_p99_ms", quantile(latency_ms, 0.99), "ms");
    result_.metric("gen.lag_p99_ms", 0.0, "ms");
    result_.metric("gen.block_frac", 0.0, "ratio");
    for (const char* name : {"fleet.e2e_latency_p50_us", "fleet.e2e_latency_p99_us",
                             "fleet.detect_latency_p50_us"}) {
      result_.metric(name, 0.0, "us");
    }
    result_.metric("fleet.worker_skew", 0.0, "ratio");
    result_.metric("fleet.batch_mean", 0.0, "count");
    for (const char* name :
         {"wiot.reassembly_us_per_window", "core.portrait_us_per_window",
          "core.count_matrix_us_per_window", "core.features_us_per_window",
          "ml.infer_us_per_window"}) {
      result_.metric(name, 0.0, "us");
    }
    result_.metric("ml.fit_ms_per_user", ledger.get("ml.fit") / users * 1e3, "ms");
    for (const char* name : {"net.decode_us_per_packet", "net.encode_us_per_packet",
                             "net.client_send_us_per_packet"}) {
      result_.metric(name, 0.0, "us");
    }
    result_.metric("net.bytes_per_window", 0.0, "B");
    result_.metric("net.backpressure_stalls", 0.0, "count");
    result_.metric("durable.append_us_per_window", 0.0, "us");
    result_.metric("durable.journal_bytes_per_window", 0.0, "B");
    result_.metric("durable.flushes_per_s", 0.0, "1/s");
    result_.metric("durable.checkpoint_ms_p50", 0.0, "ms");
    result_.metric("durable.checkpoint_ms_max", 0.0, "ms");
    result_.metric("durable.scan_s", 0.0, "s");
    result_.metric("cohort.decode_us_per_window",
                   ledger.get("cohort.decode") / windows * 1e6, "us");
    result_.metric("cohort.walk_us_per_window",
                   ledger.get("cohort.walk") / windows * 1e6, "us");
    result_.metric("cohort.dedup_us_per_window",
                   ledger.get("cohort.dedup") / windows * 1e6, "us");
    result_.metric("cohort.features_us_per_row",
                   ledger.get("cohort.features") / rows * 1e6, "us");
    result_.metric("cohort.store_ms_per_user",
                   ledger.get("cohort.store") / users * 1e3, "ms");
    const auto& s = passes.front().stats;
    result_.metric("cohort.dedup_hit_ratio",
                   static_cast<double>(s.dedup_hits) /
                       static_cast<double>(s.windows_extracted),
                   "ratio");
    result_.metric("physio.synth_s", setup_.synth_s, "s");
    result_.metric("failed_frac",
                   static_cast<double>(result_.failed) /
                       static_cast<double>(result_.attempted),
                   "ratio");
    result_.metric("ledger.unattributed_frac",
                   1.0 - (stage_s / users) / per_user_cost_s, "ratio");
    result_.metric("trace.overhead_frac", 1.0 - median(ups_traced) / median(ups),
                   "ratio");
    tracer_.write(opt_.scratch + "/../trace-" + opt_.workload + ".tsv");
    return 0;
  }

  double setup_s = 0;

 private:
  const Options& opt_;
  Result& result_;
  const Setup& setup_;
  Shape shape_;
  Tracer tracer_;
};

}  // namespace

int run_cohort(const Options& opt, Result& result) {
  const Shape shape;
  std::vector<double> times;
  Setup setup;
  // Set-up is a fraction of a second here, so it is repeated more often
  // than the online workloads' to keep its median steady.
  for (int r = 0; r < 7; ++r) {
    const auto t0 = Clock::now();
    setup = build_setup(shape, opt.seed);
    times.push_back(seconds_between(t0, Clock::now()));
  }
  CohortRun run(opt, result, setup, shape);
  run.setup_s = median(times);
  return run.run();
}

}  // namespace perfbench
