// The two online workloads.
//
//   fleet-inproc     one producer thread replays every session's packets
//                    into a FleetEngine through try_ingest. No wire, no
//                    journal.
//   gateway-durable  the same sessions and traffic cross a Unix socket into
//                    an in-process NetServer from two net::Client
//                    connections, with a Durability journal attached and a
//                    benchmark thread checkpointing periodically; after
//                    each closed-loop pass a fresh engine recovers from the
//                    pass's directory.
//
// A run alternates closed-loop passes (saturated; windows_per_s) and
// open-loop passes (time steps offered on a fixed schedule; verdict
// latency). Every pass uses a fresh engine and fresh user ids, and every
// pass's per-user verdict totals are checked against the single-threaded
// reference on the same streams. A traced run (--trace 1) adds spans
// around the benchmark's own calls and a single-threaded replay of the
// workload's windows through the public stage functions, which gives the
// per-layer stage ledger.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/count_matrix.hpp"
#include "core/features.hpp"
#include "core/portrait.hpp"
#include "core/window_scratch.hpp"
#include "fleet/durable/durability.hpp"
#include "fleet/engine.hpp"
#include "fleet/replay.hpp"
#include "io/framed.hpp"
#include "net/client.hpp"
#include "net/packet_pool.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "physio/dataset.hpp"
#include "wiot/base_station.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sift::fleet::FleetConfig;
using sift::fleet::FleetEngine;
using sift::fleet::IngestStatus;
using sift::fleet::durable::Durability;
using sift::wiot::BaseStation;
using sift::wiot::Packet;

/// Fixed workload shape. A time step is one packet per channel per
/// session (0.5 s of signal); a 3 s window closes every 6 steps.
struct Shape {
  bool wire = false;
  std::size_t sessions = 384;
  std::size_t streams = 16;  ///< distinct traces, reused across user ids
  std::size_t models = 16;   ///< distinct physiologies (and trained models)
  double trace_s = 360.0;
  std::size_t workers = 2;
  std::size_t connections = 2;
  std::size_t closed_steps = 720;  ///< steps per closed-loop pass
  std::size_t open_steps = 720;    ///< steps per session per open-loop pass
  double open_windows_per_s = 0;   ///< fixed offered rate
  double checkpoint_every_s = 0.25;
};

constexpr std::size_t kStepsPerWindow = 6;
constexpr std::size_t kWarmupSteps = 2 * kStepsPerWindow;
/// Recoveries per closed pass; recover_s is their median.
constexpr int kRecoveries = 9;

Shape shape_for(bool wire) {
  Shape s;
  s.wire = wire;
  if (wire) {
    s.closed_steps = 240;
    s.open_steps = 120;
    s.open_windows_per_s = 3500;
  } else {
    s.open_windows_per_s = 11000;
  }
  return s;
}

/// Per distinct stream: the single-threaded reference's cumulative window
/// and alert counts after each step, plus its per-window decision values.
struct Reference {
  std::vector<std::uint32_t> windows_after;
  std::vector<std::uint32_t> alerts_after;
  std::vector<double> decisions;
};

struct Setup {
  Shape shape;
  sift::fleet::ReplayFixture models;
  std::vector<std::vector<Packet>> streams;
  std::vector<Reference> refs;
  FleetConfig base_config;
  double synth_s = 0;
};

const std::vector<Packet>& stream_of(const Setup& s, int user) {
  return s.streams[static_cast<std::size_t>(user) % s.streams.size()];
}
const Reference& ref_of(const Setup& s, int user) {
  return s.refs[static_cast<std::size_t>(user) % s.refs.size()];
}

Setup build_setup(const Shape& shape, std::uint64_t seed) {
  sift::fleet::ReplayConfig rc;
  rc.sessions = shape.streams;
  rc.seconds = shape.trace_s;
  rc.distinct_users = shape.models;
  rc.seed = seed;
  // Stream s uses physiology s % models and user u replays stream
  // u % streams, so user u's stream matches the provider's model u % models.
  Setup s{shape, sift::fleet::ReplayFixture::build_models_only(rc), {}, {},
          {}, 0};
  const auto t0 = Clock::now();
  s.streams = sift::fleet::build_session_streams(rc);
  s.synth_s = seconds_between(t0, Clock::now());

  s.base_config.workers = shape.workers;
  s.base_config.pin_cores = true;
  auto provider = s.models.provider();
  for (std::size_t k = 0; k < s.streams.size(); ++k) {
    BaseStation station(sift::core::Detector(provider(static_cast<int>(k))),
                        s.base_config.station);
    Reference ref;
    const auto& stream = s.streams[k];
    for (std::size_t p = 0; p < stream.size(); ++p) {
      station.receive(stream[p]);
      if (p % 2 == 1) {
        ref.windows_after.push_back(
            static_cast<std::uint32_t>(station.stats().windows_classified));
        ref.alerts_after.push_back(
            static_cast<std::uint32_t>(station.stats().alerts));
      }
    }
    for (const auto& rep : station.reports()) {
      ref.decisions.push_back(rep.decision_value);
    }
    s.refs.push_back(std::move(ref));
  }
  return s;
}

/// Resolves open-loop samples from outside the engine: every spent packet
/// handed back through FleetConfig::packet_return polls the engine's
/// windows_classified() counter against the cumulative count each due
/// step must produce.
class LatencyObserver {
 public:
  void arm(const FleetEngine* engine, const std::vector<std::uint64_t>* expected,
           const std::vector<Clock::time_point>* due) {
    expected_ = expected;
    due_ = due;
    latency_ms_.assign(expected->size(), -1.0);
    next_.store(0);
    engine_.store(engine, std::memory_order_release);
  }
  void disarm() { engine_.store(nullptr, std::memory_order_release); }

  void poll() {
    const FleetEngine* engine = engine_.load(std::memory_order_acquire);
    if (engine == nullptr) return;
    const std::uint64_t done = engine->windows_classified();
    const auto now = Clock::now();
    std::size_t k = next_.load(std::memory_order_acquire);
    while (k < expected_->size() && (*due_)[k] <= now &&
           done >= (*expected_)[k]) {
      if (next_.compare_exchange_weak(k, k + 1, std::memory_order_acq_rel)) {
        latency_ms_[k] =
            std::chrono::duration<double, std::milli>(now - (*due_)[k])
                .count();
        ++k;
      }
    }
  }

  std::size_t resolved() const { return next_.load(); }
  const std::vector<double>& latency_ms() const { return latency_ms_; }

 private:
  std::atomic<const FleetEngine*> engine_{nullptr};
  const std::vector<std::uint64_t>* expected_ = nullptr;
  const std::vector<Clock::time_point>* due_ = nullptr;
  std::vector<double> latency_ms_;
  std::atomic<std::size_t> next_{0};
};

/// One pass's system under test: engine, packet pool, and for the gateway
/// the journal, the socket server and the checkpointer.
class Harness {
 public:
  Harness(const Setup& setup, const std::string& dir, Tracer& tracer)
      : setup_(setup) {
    ScopedSpan span(tracer, "setup.engine_start");
    const auto t0 = Clock::now();
    FleetConfig config = setup.base_config;
    config.packet_return = [this](Packet&& p) {
      pool_.release(std::move(p));
      observer.poll();
    };
    if (setup.shape.wire) {
      fs::create_directories(dir);
      durability_ = std::make_unique<Durability>(dir);
      config.durability = durability_.get();
    }
    engine_ = std::make_unique<FleetEngine>(setup.models.provider(), config);
    if (setup.shape.wire) {
      sift::net::NetServerConfig nc;
      nc.listen = "unix:" + dir + "/gw.sock";
      nc.max_connections = 16;
      server_ = std::make_unique<sift::net::NetServer>(*engine_, nc, &pool_);
      server_->start();
      checkpointer_ = std::thread([this] { checkpoint_loop(); });
    }
    start_s = seconds_between(t0, Clock::now());
  }

  ~Harness() { stop(); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  FleetEngine& engine() { return *engine_; }
  sift::net::PacketPool& pool() { return pool_; }
  Durability* durability() { return durability_.get(); }
  const std::string& address() const { return server_->address(); }

  /// Stops the checkpointer and the server, then drains the engine.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    stop_checkpoints_.store(true);
    if (checkpointer_.joinable()) checkpointer_.join();
    if (server_) server_->stop();
    engine_->drain();
  }

  /// Blocks until the engine has classified @p windows (or times out).
  bool await_windows(std::uint64_t windows) {
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (engine_->windows_classified() < windows) {
      if (Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
  }

  LatencyObserver observer;
  double start_s = 0;
  std::vector<double> checkpoint_ms;

 private:
  void checkpoint_loop() {
    const auto period = std::chrono::duration<double>(
        setup_.shape.checkpoint_every_s);
    auto next = Clock::now() + std::chrono::duration_cast<Clock::duration>(period);
    while (!stop_checkpoints_.load()) {
      if (Clock::now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      const auto t0 = Clock::now();
      durability_->checkpoint(*engine_);
      checkpoint_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
      next += std::chrono::duration_cast<Clock::duration>(period);
    }
  }

  const Setup& setup_;
  sift::net::PacketPool pool_;
  // Declared before the engine: the engine journals into it until drained.
  std::unique_ptr<Durability> durability_;
  std::unique_ptr<FleetEngine> engine_;
  std::unique_ptr<sift::net::NetServer> server_;
  std::atomic<bool> stop_checkpoints_{false};
  std::thread checkpointer_;
  bool stopped_ = false;
};

/// Copies @p src into @p dst, reusing buffers recycled through the pool.
void fill_packet(sift::net::PacketPool& pool, const Packet& src, Packet& dst) {
  pool.refill(dst);
  dst.kind = src.kind;
  dst.seq = src.seq;
  dst.sample_rate_hz = src.sample_rate_hz;
  dst.samples.assign(src.samples.begin(), src.samples.end());
  dst.peaks.assign(src.peaks.begin(), src.peaks.end());
}

struct Generator {
  std::uint64_t calls = 0;    ///< try_ingest calls
  std::uint64_t blocked = 0;  ///< ... that returned kWouldBlock
  std::uint64_t offered = 0;  ///< packets offered
  std::uint64_t refused = 0;  ///< packets rejected (invalid / closed)
};

/// Offers one packet through try_ingest, spinning on kWouldBlock.
void offer(FleetEngine& engine, int user, Packet& packet, Generator& gen) {
  ++gen.offered;
  for (;;) {
    ++gen.calls;
    const IngestStatus st = engine.try_ingest(user, packet);
    if (st == IngestStatus::kAccepted) return;
    if (st != IngestStatus::kWouldBlock) {
      ++gen.refused;
      return;
    }
    ++gen.blocked;
    std::this_thread::yield();
  }
}

/// Per-pass counters the run aggregates.
struct PassStats {
  double seconds = 0;
  std::uint64_t windows = 0;
  std::uint64_t expected_windows = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t stalls = 0;
  std::uint64_t packets_in = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t flushes = 0;
  double worker_skew = 0;
  double batch_mean = 0;
  double e2e_p50_us = 0, e2e_p99_us = 0, detect_p50_us = 0;
  double recover_s = 0;
  double scan_s = 0;
  double verdict_p50_ms = 0, verdict_p99_ms = 0;
  std::size_t samples = 0;
  double start_s = 0;
};

class OnlineRun {
 public:
  OnlineRun(const Options& opt, Result& result, Setup& setup)
      : opt_(opt), result_(result), setup_(setup), tracer_(opt.trace) {}

  /// Verifies per-user verdict totals against the reference, prefix @p
  /// steps of each user's stream (offsets per user for the open loop).
  void check_verdicts(FleetEngine& engine, int base, std::size_t steps) {
    std::size_t seen = 0;
    bool ok = true;
    engine.sessions().for_each([&](int user, const sift::fleet::Session& s) {
      ++seen;
      const Reference& ref = ref_of(setup_, user);
      if (user < base ||
          user >= base + static_cast<int>(setup_.shape.sessions) ||
          s.stats().windows_classified != ref.windows_after[steps - 1] ||
          s.stats().alerts != ref.alerts_after[steps - 1]) {
        ok = false;
      }
    });
    result_.check(ok && seen == setup_.shape.sessions,
                  "per-user windows and alerts equal the single-thread "
                  "reference (pass base " + std::to_string(base) + ")");
    result_.check(engine.metrics().counter("fleet.packets_rejected").value() == 0 &&
                      engine.metrics().counter("fleet.queue_dropped").value() == 0 &&
                      engine.metrics().counter("fleet.ingest_rejected").value() == 0,
                  "no packet rejected or dropped");
  }

  std::uint64_t expected_total(int base, std::size_t steps) const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < setup_.shape.sessions; ++i) {
      total += ref_of(setup_, base + static_cast<int>(i)).windows_after[steps - 1];
    }
    return total;
  }

  void collect_engine(FleetEngine& engine, PassStats& ps) {
    auto& m = engine.metrics();
    std::vector<double> packets;
    double batches = 0, total = 0;
    for (std::size_t w = 0; w < engine.workers(); ++w) {
      const std::string prefix = "fleet.worker." + std::to_string(w);
      packets.push_back(
          static_cast<double>(m.counter(prefix + ".packets").value()));
      batches += static_cast<double>(m.counter(prefix + ".batches").value());
      total += packets.back();
    }
    const double mean = total / static_cast<double>(packets.size());
    ps.worker_skew =
        mean > 0 ? *std::max_element(packets.begin(), packets.end()) / mean : 0;
    ps.batch_mean = batches > 0 ? total / batches : 0;
    ps.e2e_p50_us = m.histogram("fleet.e2e_latency").quantile_us(0.5);
    ps.e2e_p99_us = m.histogram("fleet.e2e_latency").quantile_us(0.99);
    ps.detect_p50_us = m.histogram("fleet.detect_latency").quantile_us(0.5);
    ps.bytes_in = m.counter("net.bytes_in").value();
    ps.stalls = m.counter("net.backpressure_stalls").value();
    ps.packets_in = m.counter("net.packets_in").value();
  }

  /// Recovers a fresh engine from @p dir and checks every session came
  /// back. Returns the time spent in Durability (scan on open +
  /// recover_into); engine construction is not timed.
  double recover(const std::string& dir) {
    ScopedSpan span(tracer_, "durable.recover");
    const auto t0 = Clock::now();
    Durability d(dir);
    const double open_s = seconds_between(t0, Clock::now());
    FleetConfig config = setup_.base_config;
    config.durability = &d;
    FleetEngine engine(setup_.models.provider(), config);
    const auto t1 = Clock::now();
    const auto rec = d.recover_into(engine);
    const double recover_s = open_s + seconds_between(t1, Clock::now());
    result_.check(rec.checkpoint_loaded &&
                      rec.sessions_restored == setup_.shape.sessions,
                  "recovery restores every session (" +
                      std::to_string(rec.sessions_restored) + ")");
    engine.drain();
    return recover_s;
  }

  /// One producer, time-major over the pass's sessions, buffers recycled
  /// through the packet pool.
  void drive_closed_inproc(Harness& h, int base, Tracer& tr) {
    Packet packet;
    for (std::size_t t = 0; t < setup_.shape.closed_steps; ++t) {
      for (std::size_t i = 0; i < setup_.shape.sessions; ++i) {
        const int user = base + static_cast<int>(i);
        const auto& stream = stream_of(setup_, user);
        for (std::size_t c = 0; c < 2; ++c) {
          ScopedSpan span(tr, "fleet.ingest", user);
          fill_packet(h.pool(), stream[2 * t + c], packet);
          offer(h.engine(), user, packet, closed_gen_);
        }
      }
    }
  }

  /// Runs @p body(c, client) on one thread per connection, connection c
  /// pinned to core workers + c. A connection that throws fails the run.
  template <typename Body>
  void run_clients(Harness& h, Body body) {
    std::mutex mu;
    std::string error;
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < setup_.shape.connections; ++c) {
        threads.emplace_back([&, c] {
          pin_to_cores(setup_.shape.workers + c);
          try {
            sift::net::Client client(h.address());
            body(c, client);
          } catch (const std::exception& e) {
            std::lock_guard lock(mu);
            error = e.what();
          }
        });
      }
    }
    result_.check(error.empty(), "client connection failed: " + error);
  }

  /// Connection c carries sessions i with i % connections == c,
  /// time-major, so per-user order is preserved end to end.
  void drive_closed_wire(Harness& h, int base, bool traced) {
    const std::size_t conns = setup_.shape.connections;
    std::vector<Tracer> tracers;
    for (std::size_t c = 0; c < conns; ++c) tracers.emplace_back(traced);
    std::atomic<std::uint64_t> sent{0};
    run_clients(h, [&](std::size_t c, sift::net::Client& client) {
      std::uint64_t local = 0;
      for (std::size_t t = 0; t < setup_.shape.closed_steps; ++t) {
        for (std::size_t i = c; i < setup_.shape.sessions; i += conns) {
          const int user = base + static_cast<int>(i);
          const auto& stream = stream_of(setup_, user);
          for (std::size_t k = 0; k < 2; ++k) {
            ScopedSpan span(tracers[c], "net.send", user);
            client.send_packet(user, stream[2 * t + k]);
            ++local;
          }
        }
      }
      client.flush();
      sent += local;
    });
    closed_gen_.offered += sent.load();
    for (const Tracer& ct : tracers) {
      client_send_s_ += stage_seconds(ct.self_seconds(), "net.send");
      client_sends_ += ct.count("net.send");
    }
  }

  /// Journal checks and the pass's final checkpoint. fleet-inproc serves
  /// without a journal; one checkpoint after the pass gives its restart
  /// path something to restore.
  void persist(Harness& h, PassStats& ps, const std::string& dir, int base,
               Tracer& tr) {
    if (!setup_.shape.wire) {
      fs::create_directories(dir);
      Durability d(dir);
      ScopedSpan span(tr, "durable.checkpoint", base);
      d.checkpoint(h.engine());
      return;
    }
    Durability& d = *h.durability();
    result_.check(d.journal_appends() == ps.windows,
                  "journal appends " + std::to_string(d.journal_appends()) +
                      " == windows");
    for (std::size_t s = 0; s < d.segment_count(); ++s) {
      ps.flushes += d.journal(s).flushes();
    }
    {
      ScopedSpan span(tr, "durable.checkpoint", base);
      d.checkpoint(h.engine());
    }
    ps.journal_bytes = d.journal_bytes();
    const auto t0 = Clock::now();
    const auto records = Durability::scan_merged(dir);
    ps.scan_s = seconds_between(t0, Clock::now());
    result_.check(records.size() == ps.windows,
                  "merged journal scan returns every verdict");
  }

  /// Closed loop: every packet offered as fast as the system takes it,
  /// timed from the first offer to the drained engine; then recovery.
  PassStats closed_pass(bool traced) {
    const int base = next_user_;
    next_user_ += static_cast<int>(setup_.shape.sessions);
    const std::string dir = opt_.scratch + "/pass" + std::to_string(pass_++);
    Tracer off(false);
    Tracer& tr = traced ? tracer_ : off;
    ScopedSpan pass_span(tr, "pass.closed", base);
    PassStats ps;
    ps.expected_windows = expected_total(base, setup_.shape.closed_steps);
    {  // The serving engine is gone before the recovery engines start.
      Harness h(setup_, dir, tr);
      ps.start_s = h.start_s;
      const auto t0 = Clock::now();
      if (setup_.shape.wire) {
        drive_closed_wire(h, base, traced);
        result_.check(h.await_windows(ps.expected_windows),
                      "gateway pass settled within 60 s");
      } else {
        drive_closed_inproc(h, base, tr);
      }
      {
        ScopedSpan span(tr, "fleet.drain");
        h.stop();
      }
      ps.seconds = seconds_between(t0, Clock::now());
      ps.windows = h.engine().windows_classified();
      result_.check(ps.windows == ps.expected_windows,
                    "closed-loop windows " + std::to_string(ps.windows) +
                        " == expected " + std::to_string(ps.expected_windows));
      check_verdicts(h.engine(), base, setup_.shape.closed_steps);
      collect_engine(h.engine(), ps);
      checkpoint_ms_.insert(checkpoint_ms_.end(), h.checkpoint_ms.begin(),
                            h.checkpoint_ms.end());
      persist(h, ps, dir, base, tr);
    }
    // The serving engine's memory goes back before the recovery engines
    // allocate theirs, so the pass's peak is one engine, not two.
    malloc_trim(0);
    std::vector<double> rec;
    for (int r = 0; r < kRecoveries; ++r) rec.push_back(recover(dir));
    ps.recover_s = median(rec);
    remove_and_sync(dir);
    std::fprintf(stderr,
                 "perfbench: closed pass %d%s: %.0f windows/s, recover %.4f s\n",
                 pass_ - 1, traced ? " (traced)" : "",
                 static_cast<double>(ps.windows) / ps.seconds, ps.recover_s);
    return ps;
  }

  /// Open loop: step G of in-pass session i is due at start + (G + i % 6)
  /// periods, so windows close on every step once the stagger fills.
  PassStats open_pass(std::vector<double>& lag_ms) {
    const int base = next_user_;
    next_user_ += static_cast<int>(setup_.shape.sessions);
    const std::string dir = opt_.scratch + "/pass" + std::to_string(pass_++);
    auto harness = std::make_unique<Harness>(setup_, dir, tracer_);
    Harness& h = *harness;
    PassStats ps;
    const std::size_t n = setup_.shape.sessions;
    const std::size_t steps = setup_.shape.open_steps;
    const std::size_t global_steps = steps + kStepsPerWindow - 1;
    const double steps_per_s = setup_.shape.open_windows_per_s *
                               static_cast<double>(kStepsPerWindow) /
                               static_cast<double>(n);
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / steps_per_s));

    std::vector<std::uint64_t> expected(global_steps, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const Reference& ref = ref_of(setup_, base + static_cast<int>(i));
      const std::size_t off = i % kStepsPerWindow;
      for (std::size_t g = off; g < global_steps; ++g) {
        expected[g] += ref.windows_after[std::min(g - off, steps - 1)];
      }
    }
    ps.expected_windows = expected.back();

    const auto start = Clock::now() + std::chrono::milliseconds(20);
    std::vector<Clock::time_point> due(global_steps);
    for (std::size_t g = 0; g < global_steps; ++g) {
      due[g] = start + period * static_cast<long>(g);
    }
    h.observer.arm(&h.engine(), &expected, &due);

    const auto wait_until = [](Clock::time_point t) {
      for (;;) {
        const auto now = Clock::now();
        if (now >= t) return now;
        if (t - now > std::chrono::microseconds(300)) {
          std::this_thread::sleep_for(t - now - std::chrono::microseconds(200));
        } else {
          std::this_thread::yield();
        }
      }
    };

    if (!setup_.shape.wire) {
      Packet packet;
      for (std::size_t g = 0; g < global_steps; ++g) {
        lag_ms.push_back(std::chrono::duration<double, std::milli>(
                             wait_until(due[g]) - due[g])
                             .count());
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t off = i % kStepsPerWindow;
          if (g < off || g - off >= steps) continue;
          const int user = base + static_cast<int>(i);
          const auto& stream = stream_of(setup_, user);
          for (std::size_t c = 0; c < 2; ++c) {
            fill_packet(h.pool(), stream[2 * (g - off) + c], packet);
            offer(h.engine(), user, packet, open_gen_);
          }
        }
      }
    } else {
      std::mutex mu;
      std::atomic<std::uint64_t> sent{0};
      const std::size_t conns = setup_.shape.connections;
      run_clients(h, [&](std::size_t c, sift::net::Client& client) {
        std::vector<double> lags;
        std::uint64_t local = 0;
        for (std::size_t g = 0; g < global_steps; ++g) {
          lags.push_back(std::chrono::duration<double, std::milli>(
                             wait_until(due[g]) - due[g])
                             .count());
          for (std::size_t i = c; i < n; i += conns) {
            const std::size_t off = i % kStepsPerWindow;
            if (g < off || g - off >= steps) continue;
            const int user = base + static_cast<int>(i);
            const auto& stream = stream_of(setup_, user);
            client.send_packet(user, stream[2 * (g - off)]);
            client.send_packet(user, stream[2 * (g - off) + 1]);
            local += 2;
          }
          client.flush();
        }
        sent += local;
        std::lock_guard lock(mu);
        lag_ms.insert(lag_ms.end(), lags.begin(), lags.end());
      });
      open_gen_.offered += sent.load();
    }
    result_.check(h.await_windows(ps.expected_windows),
                  "open-loop pass settled within 60 s");
    // The last steps may resolve only here, on the final packet returns.
    h.observer.poll();
    h.observer.disarm();
    h.stop();
    ps.windows = h.engine().windows_classified();
    result_.check(ps.windows == ps.expected_windows,
                  "open-loop windows == expected");
    result_.check(h.observer.resolved() == global_steps,
                  "every open-loop step resolved (" +
                      std::to_string(h.observer.resolved()) + "/" +
                      std::to_string(global_steps) + ")");
    check_verdicts(h.engine(), base, steps);
    collect_engine(h.engine(), ps);
    // The first kWarmupSteps create every session and close its first
    // windows; they are lazy set-up, not steady-state serving.
    std::vector<double> latency_ms;
    for (std::size_t g = kWarmupSteps; g < global_steps; ++g) {
      latency_ms.push_back(h.observer.latency_ms()[g]);
    }
    ps.verdict_p50_ms = quantile(latency_ms, 0.50);
    ps.verdict_p99_ms = quantile(latency_ms, 0.99);
    ps.samples = latency_ms.size();
    harness.reset();
    remove_and_sync(dir);
    std::fprintf(stderr,
                 "perfbench: open pass %d: %zu samples at %.1f steps/s, "
                 "p50 %.3f ms, p99 %.3f ms\n",
                 pass_ - 1, ps.samples, steps_per_s, ps.verdict_p50_ms,
                 ps.verdict_p99_ms);
    return ps;
  }

  /// Single-threaded replay of every distinct stream through the public
  /// stage functions, in pipeline order, one span per call.
  struct Ledger {
    std::size_t windows = 0;
    std::size_t packets = 0;
    StageSeconds self_s;
    double get(const std::string& name) const {
      return stage_seconds(self_s, name);
    }
  };

  Ledger replay_ledger() {
    std::vector<StageSeconds> replays;
    Ledger out;
    for (int r = 0; r < kLedgerReplays; ++r) {
      out = replay_once(r, r + 1 == kLedgerReplays);
      replays.push_back(out.self_s);
    }
    out.self_s = median_self_seconds(replays);
    return out;
  }

  /// Replay @p round uses its own user ids, so the journal appends are
  /// fresh rather than deduplicated against the previous round.
  Ledger replay_once(int round, bool write_trace) {
    Tracer tr(true);
    Ledger out;
    const bool wire = setup_.shape.wire;
    const std::string dir = opt_.scratch + "/ledger" + std::to_string(round);
    fs::create_directories(dir);
    std::unique_ptr<Durability> journal;
    if (wire) journal = std::make_unique<Durability>(dir);
    const auto& station_cfg = setup_.base_config.station;
    const std::size_t w = station_cfg.window_samples;
    auto provider = setup_.models.provider();
    sift::net::wire::Encoder encoder;
    sift::io::FrameDecoder decoder;
    std::vector<std::uint8_t> bytes;
    Packet decoded;
    sift::core::WindowScratch scratch;
    sift::core::FeatureVector features, scaled;
    sift::fleet::Session::Health health;
    bool decisions_match = true;

    for (std::size_t k = 0; k < setup_.streams.size(); ++k) {
      const int user = static_cast<int>(
          k + static_cast<std::size_t>(round) * setup_.streams.size());
      const auto model = provider(user);
      BaseStation station(station_cfg);  // reassembly only, no detector
      std::vector<double> ecg, abp;
      std::vector<std::size_t> r_abs, s_abs;
      std::size_t window_index = 0;
      std::int32_t window_span = -1;
      for (const Packet& src : setup_.streams[k]) {
        const auto item = static_cast<std::int64_t>(out.windows);
        if (window_span < 0) window_span = tr.begin("online.window", item);
        const Packet* p = &src;
        if (wire) {
          {
            ScopedSpan s(tr, "net.encode", item);
            bytes.clear();
            encoder.packet(bytes, user, src);
          }
          ScopedSpan s(tr, "net.decode", item);
          decoder.feed(bytes);
          const auto payload = decoder.next();
          if (!payload ||
              sift::net::wire::decode_packet(*payload, decoded) != user) {
            result_.check(false, "ledger replay decodes its own frames");
            return out;
          }
          p = &decoded;
        }
        {
          ScopedSpan s(tr, "wiot.reassembly", item);
          station.receive(*p);
        }
        ++out.packets;
        auto& buf = p->kind == sift::wiot::ChannelKind::kEcg ? ecg : abp;
        auto& peaks = p->kind == sift::wiot::ChannelKind::kEcg ? r_abs : s_abs;
        for (std::size_t rel : p->peaks) peaks.push_back(buf.size() + rel);
        buf.insert(buf.end(), p->samples.begin(), p->samples.end());
        if (ecg.size() < w || abp.size() < w) continue;

        scratch.clear();
        for (std::size_t q : r_abs) {
          if (q < w) scratch.r_peaks.push_back(q);
        }
        for (std::size_t q : s_abs) {
          if (q < w) scratch.sys_peaks.push_back(q);
        }
        sift::core::PortraitInput in;
        in.ecg = std::span<const double>(ecg.data(), w);
        in.abp = std::span<const double>(abp.data(), w);
        in.r_peaks = scratch.r_peaks;
        in.sys_peaks = scratch.sys_peaks;
        in.sample_rate_hz = sift::physio::kDefaultRateHz;
        {
          ScopedSpan s(tr, "core.portrait", item);
          scratch.portrait.rebuild(in);
        }
        {
          ScopedSpan s(tr, "core.count_matrix", item);
          scratch.matrix.rebuild(scratch.portrait, model->config.grid_n);
        }
        {
          ScopedSpan s(tr, "core.features", item);
          sift::core::extract_features_into(
              scratch.portrait, scratch.matrix, model->config.version,
              model->config.arithmetic, features);
        }
        double decision = 0;
        {
          ScopedSpan s(tr, "ml.infer", item);
          scaled.resize(features.size());
          model->scaler.transform_into(features.span(), scaled.span());
          decision = model->svm.decision_value(scaled.span());
        }
        const Reference& ref = setup_.refs[k];
        if (window_index >= ref.decisions.size() ||
            ref.decisions[window_index] != decision) {
          decisions_match = false;
        }
        if (wire) {
          BaseStation::WindowReport report;
          report.window_index = window_index;
          report.decision_value = decision;
          report.altered = decision >= 0.0;
          ScopedSpan s(tr, "durable.append", item);
          journal->on_verdict(user, report, health, 0);
        }
        ++window_index;
        ++out.windows;
        tr.end(window_span);
        window_span = -1;

        ecg.erase(ecg.begin(), ecg.begin() + static_cast<long>(w));
        abp.erase(abp.begin(), abp.begin() + static_cast<long>(w));
        for (auto* v : {&r_abs, &s_abs}) {
          std::vector<std::size_t> kept;
          for (std::size_t q : *v) {
            if (q >= w) kept.push_back(q - w);
          }
          *v = std::move(kept);
        }
      }
      if (window_span >= 0) tr.end(window_span);
      result_.check(station.stats().windows_classified == window_index,
                    "ledger replay windows match reassembly");
    }
    result_.check(decisions_match,
                  "ledger replay decision values equal the reference");
    if (journal) journal->flush();
    out.self_s = tr.self_seconds();
    if (write_trace) {
      tr.write(opt_.scratch + "/../trace-" + opt_.workload + "-ledger.tsv");
    }
    return out;
  }

  int run() {
    const Shape& shape = setup_.shape;
    // The engine pins its workers to cores 0..workers-1. This thread, which
    // is the fleet-inproc producer, takes the next core, and so does every
    // thread it starts (socket server loop, journal flushers,
    // checkpointer). Gateway client c runs on core workers + c.
    pin_to_cores(shape.workers);
    // Closed and open passes alternate so both phases sample the same
    // stretch of host conditions. A traced run also alternates untraced and
    // traced closed passes, so trace.overhead_frac compares like with like.
    std::vector<double> wps, wps_traced, ups, starts, recovers, scans;
    std::vector<double> lag_ms, p50s, p99s, rss;
    std::vector<PassStats> closed, open;
    const auto start = Clock::now();
    for (int p = 0;; ++p) {
      const bool traced = opt_.trace && p % 2 == 1;
      PassRss pass_rss;
      pass_rss.begin();
      const PassStats ps = closed_pass(traced);
      rss.push_back(pass_rss.end());
      const double rate = static_cast<double>(ps.windows) / ps.seconds;
      (traced ? wps_traced : wps).push_back(rate);
      if (!traced) {
        ups.push_back(static_cast<double>(shape.sessions) / ps.seconds);
      }
      starts.push_back(ps.start_s);
      recovers.push_back(ps.recover_s);
      scans.push_back(ps.scan_s);
      closed.push_back(ps);
      if (!result_.correct()) return 1;

      pass_rss.begin();
      open.push_back(open_pass(lag_ms));
      rss.push_back(pass_rss.end());
      p50s.push_back(open.back().verdict_p50_ms);
      p99s.push_back(open.back().verdict_p99_ms);
      starts.push_back(open.back().start_s);
      if (!result_.correct()) return 1;

      const bool enough =
          wps.size() >= 2 && (!opt_.trace || wps_traced.size() >= 2);
      if (enough && seconds_between(start, Clock::now()) >= opt_.seconds) break;
    }

    const std::uint64_t attempted = closed_gen_.offered + open_gen_.offered;
    result_.attempted = attempted;
    result_.failed = closed_gen_.refused + open_gen_.refused;
    result_.check(result_.failed == 0, "no offered packet was refused");
    if (!result_.correct()) return 1;

    const double setup_s = setup_once_s_ + median(starts);
    if (!opt_.trace) {
      result_.metric("setup_s", setup_s, "s");
      result_.metric("windows_per_s", median(wps), "1/s");
      result_.metric("users_per_s", median(ups), "1/s");
      result_.metric("verdict_p50_ms", median(p50s), "ms");
      result_.metric("recover_s", median(recovers), "s");
      return 0;
    }

    const Ledger ledger = replay_ledger();
    if (!result_.correct()) return 1;
    const double nw = static_cast<double>(ledger.windows);
    const double np = static_cast<double>(ledger.packets);
    const auto per_window_us = [&](const char* name) {
      return ledger.get(name) / nw * 1e6;
    };
    const auto per_packet_us = [&](const char* name) {
      return ledger.get(name) / np * 1e6;
    };
    std::vector<const char*> stages = {"wiot.reassembly", "core.portrait",
                                       "core.count_matrix", "core.features",
                                       "ml.infer"};
    if (shape.wire) {
      stages.insert(stages.begin(), {"net.encode", "net.decode"});
      stages.push_back("durable.append");
    }
    double stage_s = 0;
    for (const char* s : stages) stage_s += ledger.get(s);
    const double untraced_wps = median(wps);
    const double per_window_cost_s =
        static_cast<double>(shape.workers) / untraced_wps;
    const double unattributed = 1.0 - (stage_s / nw) / per_window_cost_s;

    auto pick = [&](const std::vector<PassStats>& v, auto field) {
      std::vector<double> xs;
      for (const auto& ps : v) xs.push_back(field(ps));
      return median(xs);
    };
    double bytes = 0, windows = 0, stalls = 0, packets_in = 0, jbytes = 0,
           flushes = 0, secs = 0;
    for (const auto& ps : closed) {
      bytes += static_cast<double>(ps.bytes_in);
      windows += static_cast<double>(ps.windows);
      stalls += static_cast<double>(ps.stalls);
      packets_in += static_cast<double>(ps.packets_in);
      jbytes += static_cast<double>(ps.journal_bytes);
      flushes += static_cast<double>(ps.flushes);
      secs += ps.seconds;
    }
    const double block_frac =
        shape.wire ? (packets_in > 0 ? stalls / packets_in : 0.0)
                   : static_cast<double>(closed_gen_.blocked) /
                         static_cast<double>(std::max<std::uint64_t>(1, closed_gen_.calls));

    result_.metric("pass_rss_mb", median(rss), "MB");
    result_.metric("verdict_p99_ms", median(p99s), "ms");
    result_.metric("gen.lag_p99_ms", quantile(lag_ms, 0.99), "ms");
    result_.metric("gen.block_frac", block_frac, "ratio");
    result_.metric("fleet.e2e_latency_p50_us",
                   pick(open, [](const PassStats& p) { return p.e2e_p50_us; }), "us");
    result_.metric("fleet.e2e_latency_p99_us",
                   pick(open, [](const PassStats& p) { return p.e2e_p99_us; }), "us");
    result_.metric("fleet.detect_latency_p50_us",
                   pick(open, [](const PassStats& p) { return p.detect_p50_us; }), "us");
    result_.metric("fleet.worker_skew",
                   pick(closed, [](const PassStats& p) { return p.worker_skew; }), "ratio");
    result_.metric("fleet.batch_mean",
                   pick(closed, [](const PassStats& p) { return p.batch_mean; }), "count");
    result_.metric("wiot.reassembly_us_per_window", per_window_us("wiot.reassembly"), "us");
    result_.metric("core.portrait_us_per_window", per_window_us("core.portrait"), "us");
    result_.metric("core.count_matrix_us_per_window", per_window_us("core.count_matrix"), "us");
    result_.metric("core.features_us_per_window", per_window_us("core.features"), "us");
    result_.metric("ml.infer_us_per_window", per_window_us("ml.infer"), "us");
    result_.metric("ml.fit_ms_per_user", 0.0, "ms");
    result_.metric("net.decode_us_per_packet", per_packet_us("net.decode"), "us");
    result_.metric("net.encode_us_per_packet", per_packet_us("net.encode"), "us");
    result_.metric("net.client_send_us_per_packet",
                   client_sends_ > 0 ? client_send_s_ / static_cast<double>(client_sends_) * 1e6 : 0.0,
                   "us");
    result_.metric("net.bytes_per_window", windows > 0 ? bytes / windows : 0.0, "B");
    result_.metric("net.backpressure_stalls",
                   pick(closed, [](const PassStats& p) { return static_cast<double>(p.stalls); }),
                   "count");
    result_.metric("durable.append_us_per_window", per_window_us("durable.append"), "us");
    result_.metric("durable.journal_bytes_per_window",
                   windows > 0 ? jbytes / windows : 0.0, "B");
    result_.metric("durable.flushes_per_s", secs > 0 ? flushes / secs : 0.0, "1/s");
    result_.metric("durable.checkpoint_ms_p50", quantile(checkpoint_ms_, 0.5), "ms");
    result_.metric("durable.checkpoint_ms_max",
                   checkpoint_ms_.empty() ? 0.0
                                          : *std::max_element(checkpoint_ms_.begin(),
                                                              checkpoint_ms_.end()),
                   "ms");
    result_.metric("durable.scan_s", median(scans), "s");
    for (const char* name :
         {"cohort.decode_us_per_window", "cohort.walk_us_per_window",
          "cohort.dedup_us_per_window", "cohort.features_us_per_row"}) {
      result_.metric(name, 0.0, "us");
    }
    result_.metric("cohort.store_ms_per_user", 0.0, "ms");
    result_.metric("cohort.dedup_hit_ratio", 0.0, "ratio");
    result_.metric("physio.synth_s", setup_.synth_s, "s");
    result_.metric("failed_frac",
                   static_cast<double>(result_.failed) /
                       static_cast<double>(std::max<std::uint64_t>(1, attempted)),
                   "ratio");
    result_.metric("ledger.unattributed_frac", unattributed, "ratio");
    result_.metric("trace.overhead_frac",
                   1.0 - median(wps_traced) / untraced_wps, "ratio");
    tracer_.write(opt_.scratch + "/../trace-" + opt_.workload + ".tsv");
    return 0;
  }

  double setup_once_s_ = 0;

 private:
  const Options& opt_;
  Result& result_;
  Setup& setup_;
  Tracer tracer_;
  int next_user_ = 1000;
  int pass_ = 0;
  Generator closed_gen_;
  Generator open_gen_;
  std::vector<double> checkpoint_ms_;
  double client_send_s_ = 0;
  std::size_t client_sends_ = 0;
};

}  // namespace

int run_online(const Options& opt, Result& result) {
  const Shape shape = shape_for(opt.workload == "gateway-durable");
  // Set-up is repeated and its median reported, so setup_s is steady; the
  // repetitions are deterministic and the last one is kept.
  std::vector<double> setup_times;
  std::unique_ptr<Setup> setup;
  for (int r = 0; r < 3; ++r) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = std::make_unique<Setup>(build_setup(shape, opt.seed));
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  OnlineRun run(opt, result, *setup);
  run.setup_once_s_ = median(setup_times);
  return run.run();
}

}  // namespace perfbench
