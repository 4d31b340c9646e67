// Cross-version golden values for every seeded decision stream: the fleet
// chaos injector, the wire-fault shim, the packet-attack streams, the
// user → shard map and the cohort dedup hash — plus the base station's
// checkpoint bytes, which pin its reassembly state across storage layouts.
//
// The same-build determinism tests (ChaosTest.SameSeedReplaysIdentically
// and friends) replay a seed twice in one binary, so they cannot notice the
// mixer itself changing: every run still agrees with itself. These tests
// compare against values recorded once, so a drift in any of these streams
// (and with it the meaning of every recorded chaos seed, attack stream,
// dedup bucket and shard assignment) fails here instead of passing quietly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cohort/dedup.hpp"
#include "fleet/faults.hpp"
#include "fleet/model_registry.hpp"
#include "fleet/session_table.hpp"
#include "io/state.hpp"
#include "net/faults.hpp"
#include "wiot/base_station.hpp"
#include "wiot/packet.hpp"
#include "wiot/packet_attack.hpp"

namespace sift {

// WindowDedup::hash_window is private. An explicit instantiation may name a
// private member ([temp.spec.general]/6), which lets the test call the real
// function without widening the class's interface.
using HashWindowFn = std::uint64_t (cohort::WindowDedup::*)(
    std::span<const double>, std::span<const double>,
    std::span<const std::size_t>, std::span<const std::size_t>) const;
HashWindowFn hash_window_member();
template <HashWindowFn Fn>
struct HashWindowAccess {
  friend HashWindowFn hash_window_member() { return Fn; }
};
template struct HashWindowAccess<&cohort::WindowDedup::hash_window>;

namespace {

/// FNV-1a over raw bytes: an independent digest, so the golden values do
/// not depend on the mixer under test.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void packet(const wiot::Packet& p) {
    u64(static_cast<std::uint64_t>(p.kind));
    u64(p.seq);
    u64(p.samples.size());
    for (const double x : p.samples) u64(std::bit_cast<std::uint64_t>(x));
  }
};

TEST(DeterminismGolden, FleetCorruptPacketDecisions) {
  fleet::FaultConfig fc;
  fc.seed = 7;
  fc.payload_users = {0, 1};
  fc.nan_probability = 0.1;
  fc.corrupt_probability = 0.1;
  fc.truncate_probability = 0.1;
  fc.seq_skew_probability = 0.1;
  fleet::FaultInjector injector(fc);

  // 2 users x 2 channels x 16 sequence numbers = 64 decisions.
  std::string kinds;
  Digest digest;
  for (int user = 0; user < 2; ++user) {
    for (std::uint32_t seq = 0; seq < 16; ++seq) {
      for (const auto kind :
           {wiot::ChannelKind::kEcg, wiot::ChannelKind::kAbp}) {
        wiot::Packet p;
        p.kind = kind;
        p.seq = seq;
        for (int i = 0; i < 12; ++i) p.samples.push_back(seq + 0.25 * i);
        const fleet::FaultCounts before = injector.counts();
        const bool hit = injector.corrupt_packet(user, p);
        const fleet::FaultCounts after = injector.counts();
        char c = '.';
        if (after.nan_samples > before.nan_samples) c = 'n';
        if (after.corrupted > before.corrupted) c = 'c';
        if (after.truncated > before.truncated) c = 't';
        if (after.seq_skewed > before.seq_skewed) c = 's';
        EXPECT_EQ(hit, c != '.');
        kinds.push_back(c);
        digest.packet(p);
      }
    }
  }
  EXPECT_EQ(kinds,
            ".t.tcs..n...n....t..ss...t....s..n..n..n.sn.....s......ts.s..t..");
  EXPECT_EQ(digest.h, 5546231096598036098ULL);
}

net::NetFaultConfig net_fault_config() {
  net::NetFaultConfig c;
  c.seed = 11;
  c.partial_write_probability = 0.08;
  c.write_stall_probability = 0.08;
  c.write_eagain_probability = 0.08;
  c.read_stall_probability = 0.08;
  c.short_read_probability = 0.08;
  c.reset_probability = 0.08;
  c.midframe_kill_probability = 0.08;
  c.stall = std::chrono::milliseconds(0);
  return c;
}

/// The fault kind one shim call injected, read off the counter that moved.
char net_fault_kind(const net::NetFaultCounts& a,
                    const net::NetFaultCounts& b) {
  if (b.resets > a.resets) return 'R';
  if (b.midframe_kills > a.midframe_kills) return 'K';
  if (b.write_stalls > a.write_stalls) return 'S';
  if (b.write_eagain > a.write_eagain) return 'E';
  if (b.partial_writes > a.partial_writes) return 'P';
  if (b.read_stalls > a.read_stalls) return 'S';
  if (b.short_reads > a.short_reads) return 'T';
  return '.';
}

constexpr std::uint64_t kNetConn = 5;
constexpr std::size_t kNetLen = 64;

TEST(DeterminismGolden, NetSendFaultKindsFor256Offsets) {
  net::FaultyTransport shim(net_fault_config());
  std::string kinds;
  const std::vector<char> buf(kNetLen, 'x');
  for (std::uint64_t offset = 0; offset < 256; ++offset) {
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const net::NetFaultCounts before = shim.counts();
    (void)shim.send(kNetConn, offset, fds[0], buf.data(), kNetLen,
                    MSG_NOSIGNAL | MSG_DONTWAIT);
    kinds.push_back(net_fault_kind(before, shim.counts()));
    ::close(fds[0]);
    ::close(fds[1]);
  }
  EXPECT_EQ(kinds,
      "R.....S..K..S.....E....K.E....S.......R.K.P....SR.P..........KK."
      "........RPS..SS.R...EK...KE....P....R.K.R.ERPS.KRS.R...S.E.E...."
      "..S...P.....R..ER.KR..........EK...K.....SS...E...R.E......K.E.R"
      "ESP.KP...ESSK.R........R......ES...PPE.RP....SK....K.....RSK..SE");
}

TEST(DeterminismGolden, NetRecvFaultKindsFor256Offsets) {
  net::FaultyTransport shim(net_fault_config());
  std::string kinds;
  std::vector<char> buf(kNetLen, 'x');
  for (std::uint64_t offset = 0; offset < 256; ++offset) {
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::send(fds[1], buf.data(), kNetLen, MSG_NOSIGNAL),
              static_cast<ssize_t>(kNetLen));
    const net::NetFaultCounts before = shim.counts();
    (void)shim.recv(kNetConn, offset, fds[0], buf.data(), kNetLen,
                    MSG_DONTWAIT);
    kinds.push_back(net_fault_kind(before, shim.counts()));
    ::close(fds[0]);
    ::close(fds[1]);
  }
  EXPECT_EQ(kinds,
      "R.............T.T..TT...S.............RS..S....TRS..T......T...S"
      "TST.S..TRS......R....S....SS.....T.TR...R..RS.T.R..R........T..."
      "............R.S.R..R....S.......T.S.....T.........R.....S....S.R"
      ".......TTT..T.R.......TR........TS.....R.....TT.S.....S..R......");
}

TEST(DeterminismGolden, StreamAttackOutputForEveryKind) {
  std::vector<wiot::Packet> clean;
  for (std::uint32_t i = 0; i < 200; ++i) {
    wiot::Packet p;
    p.kind = (i % 2 == 0) ? wiot::ChannelKind::kEcg : wiot::ChannelKind::kAbp;
    p.seq = i / 2;
    p.samples = {static_cast<double>(i), -0.5 * i};
    clean.push_back(std::move(p));
  }
  struct Golden {
    wiot::StreamAttackKind kind;
    std::size_t size;
    std::size_t injected;
    std::uint64_t digest;
  };
  const Golden golden[] = {
      {wiot::StreamAttackKind::kSeqSpoof, 217, 17, 8397307243650948432ULL},
      {wiot::StreamAttackKind::kReplayPastCursor, 239, 39,
       5953246511444529559ULL},
      {wiot::StreamAttackKind::kStaleCursorResume, 208, 8,
       12965517306174232077ULL},
      {wiot::StreamAttackKind::kDuplicateFlood, 263, 63,
       1246795684134687852ULL},
  };
  for (const Golden& g : golden) {
    wiot::StreamAttackConfig config;
    config.kind = g.kind;
    config.seed = 3;
    config.probability = 0.1;
    config.replay_depth = 16;
    config.burst = 3;
    config.onset = 8;
    wiot::StreamAttackStats stats;
    const auto out = wiot::apply_stream_attack(clean, config, &stats);
    Digest digest;
    for (const auto& p : out) digest.packet(p);
    EXPECT_EQ(out.size(), g.size) << wiot::to_string(g.kind);
    EXPECT_EQ(stats.clean, clean.size()) << wiot::to_string(g.kind);
    EXPECT_EQ(stats.injected, g.injected) << wiot::to_string(g.kind);
    EXPECT_EQ(digest.h, g.digest) << wiot::to_string(g.kind);
  }
}

TEST(DeterminismGolden, ShardOfFirst64UsersAt8Shards) {
  fleet::ModelRegistry registry(
      fleet::ModelProvider([](int) { return nullptr; }), 1);
  const fleet::SessionTable table(8, registry, {});
  std::string shards;
  for (int user = 0; user < 64; ++user) {
    shards.push_back(static_cast<char>('0' + table.shard_of(user)));
  }
  EXPECT_EQ(shards,
            "0520444407154111561721350034222557462063552273344701744341065735");
}

TEST(DeterminismGolden, DedupHashOfFixedWindow) {
  std::vector<double> ecg;
  std::vector<double> abp;
  for (int i = 0; i < 16; ++i) {
    ecg.push_back(0.01 * i * i - 0.3);
    abp.push_back(80.0 + 2.5 * i);
  }
  const std::vector<std::size_t> r_peaks = {2, 9};
  const std::vector<std::size_t> sys_peaks = {4, 11};
  const cohort::WindowDedup dedup;
  EXPECT_EQ((dedup.*hash_window_member())(ecg, abp, r_peaks, sys_peaks),
            2541680140232009886ULL);
}

// export_state is the checkpoint format: residue samples oldest first, their
// gap-fill flags, peaks rebased onto the residue, stats and reports. Its
// bytes are pinned after three phases that each leave a different residue:
// a half-built window, a gap-filled (degraded) window, and a leading channel
// shed by the 16-window bound. A change to how the station stores its
// buffers must reproduce them exactly, and so must an import/export round
// trip.
TEST(DeterminismGolden, BaseStationExportStateBytes) {
  const wiot::BaseStation::Config config;  // 1080-sample windows, 180/packet
  wiot::BaseStation station(config);
  auto send = [&](wiot::ChannelKind kind, std::uint32_t seq) {
    wiot::Packet p;
    p.kind = kind;
    p.seq = seq;
    const double offset = kind == wiot::ChannelKind::kEcg ? 0.0 : 0.5;
    for (std::size_t i = 0; i < config.samples_per_packet; ++i) {
      p.samples.push_back(offset + 0.001 * static_cast<double>(seq * 180 + i));
    }
    p.peaks = {seq % 60, 90 + seq % 60};
    station.receive(p);
  };
  auto export_digest = [&] {
    std::vector<std::uint8_t> bytes;
    io::StateWriter writer(bytes);
    station.export_state(writer);

    wiot::BaseStation restored(config);
    io::StateReader reader(bytes);
    restored.import_state(reader);
    std::vector<std::uint8_t> again;
    io::StateWriter rewriter(again);
    restored.export_state(rewriter);
    EXPECT_EQ(again, bytes) << "import then export must reproduce the bytes";

    Digest digest;
    digest.bytes(bytes.data(), bytes.size());
    return digest.h;
  };

  // Phase 1: in-order packets stop mid-window — one window classified and
  // three packets of residue per channel.
  for (std::uint32_t seq = 0; seq < 9; ++seq) {
    send(wiot::ChannelKind::kEcg, seq);
    send(wiot::ChannelKind::kAbp, seq);
  }
  ASSERT_EQ(station.stats().windows_classified, 1u);
  EXPECT_EQ(export_digest(), 17540835146564690352ULL);

  // Phase 2: ECG loses packets 9-11; packet 12 gap-fills them, and the
  // window they land in is degraded.
  send(wiot::ChannelKind::kEcg, 12);
  for (std::uint32_t seq = 9; seq < 13; ++seq) {
    send(wiot::ChannelKind::kAbp, seq);
  }
  ASSERT_EQ(station.stats().gaps_filled, 3u);
  ASSERT_EQ(station.stats().windows_classified, 2u);
  EXPECT_TRUE(station.reports().back().degraded);
  EXPECT_EQ(export_digest(), 15745286468498877372ULL);

  // Phase 3: ECG runs ahead until the bound (96 packets) sheds, then ABP
  // closes one window against the long ECG residue.
  for (std::uint32_t seq = 13; seq < 116; ++seq) {
    send(wiot::ChannelKind::kEcg, seq);
  }
  ASSERT_GT(station.stats().overflow_dropped, 0u);
  for (std::uint32_t seq = 13; seq < 20; ++seq) {
    send(wiot::ChannelKind::kAbp, seq);
  }
  ASSERT_EQ(station.stats().windows_classified, 3u);
  EXPECT_EQ(export_digest(), 633393791090365453ULL);
}

}  // namespace
}  // namespace sift
