#include "fleet/faults.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "signal/splitmix64.hpp"

namespace sift::fleet {

namespace {

using signal::splitmix64;

bool contains(const std::vector<int>& v, int x) noexcept {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

FaultInjector::FaultInjector(FaultConfig config) : config_(std::move(config)) {}

bool FaultInjector::coin(int user_id, std::uint64_t seq, std::uint64_t salt,
                         double probability) const noexcept {
  return signal::coin(probability,
                      signal::seeded_hash(config_.seed, salt, user_id, seq));
}

bool FaultInjector::targets_payload(int user_id) const noexcept {
  return contains(config_.payload_users, user_id);
}
bool FaultInjector::targets_worker(int user_id) const noexcept {
  return contains(config_.worker_throw_users, user_id);
}
bool FaultInjector::targets_provider(int user_id) const noexcept {
  return contains(config_.provider_fail_users, user_id);
}
bool FaultInjector::targets_shard(std::size_t shard) const noexcept {
  return std::find(config_.overload_shards.begin(),
                   config_.overload_shards.end(),
                   shard) != config_.overload_shards.end();
}

bool FaultInjector::corrupt_packet(int user_id, wiot::Packet& packet) {
  if (!targets_payload(user_id) || packet.samples.empty()) return false;
  // Channel-distinct streams share a seq space per kind; salt the coin with
  // the kind so the two channels corrupt independently.
  const std::uint64_t seq =
      (static_cast<std::uint64_t>(packet.seq) << 1) |
      (packet.kind == wiot::ChannelKind::kEcg ? 0u : 1u);

  if (coin(user_id, seq, /*salt=*/1, config_.nan_probability)) {
    // Poison a deterministic sample position with NaN and one with +Inf.
    packet.samples[splitmix64(seq) % packet.samples.size()] =
        std::numeric_limits<double>::quiet_NaN();
    packet.samples[splitmix64(seq + 7) % packet.samples.size()] =
        std::numeric_limits<double>::infinity();
    nan_samples_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (coin(user_id, seq, /*salt=*/2, config_.corrupt_probability)) {
    // Radio bit flips in the exponent field: set the exponent to all-ones,
    // which turns the sample into Inf/NaN — i.e. corruption the validator
    // is guaranteed to catch (finite-garbage flips are modelled by the
    // attack library instead; they are a detection problem, not a
    // robustness one).
    const std::size_t at = splitmix64(seq + 13) % packet.samples.size();
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(packet.samples[at]);
    packet.samples[at] = std::bit_cast<double>(bits | 0x7ff0000000000000ULL);
    corrupted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (coin(user_id, seq, /*salt=*/3, config_.truncate_probability)) {
    packet.samples.resize(
        1 + splitmix64(seq + 17) % (packet.samples.size() / 2 + 1));
    truncated_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (coin(user_id, seq, /*salt=*/4, config_.seq_skew_probability)) {
    packet.seq |= 0x60000000u;  // past the wraparound guard
    seq_skewed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

TieredModelProvider FaultInjector::wrap_provider(TieredModelProvider inner) {
  return [this, inner = std::move(inner)](int user_id,
                                          core::DetectorVersion version) {
    if (targets_provider(user_id)) {
      bool fail = false;
      {
        std::lock_guard lock(mu_);
        std::size_t& used = provider_fails_[user_id];
        if (used < config_.provider_failures_per_user) {
          ++used;
          fail = true;
        }
      }
      if (fail) {
        if (config_.provider_stall.count() > 0) {
          std::this_thread::sleep_for(config_.provider_stall);
        }
        provider_throws_.fetch_add(1, std::memory_order_relaxed);
        throw FaultInjected("injected model-provider failure");
      }
    }
    return inner(user_id, version);
  };
}

ModelProvider FaultInjector::wrap_provider(ModelProvider inner) {
  auto tiered = wrap_provider(TieredModelProvider(
      [inner = std::move(inner)](int user_id, core::DetectorVersion) {
        return inner(user_id);
      }));
  return [tiered = std::move(tiered)](int user_id) {
    return tiered(user_id, core::DetectorVersion::kOriginal);
  };
}

std::optional<std::size_t> FaultInjector::on_worker_dequeue(std::size_t shard) {
  if (!targets_shard(shard)) return std::nullopt;
  std::size_t index;
  {
    std::lock_guard lock(mu_);
    index = shard_dequeues_[shard]++;
  }
  if (index < config_.overload_from_dequeue ||
      index >= config_.overload_until_dequeue) {
    return std::nullopt;
  }
  overload_dequeues_.fetch_add(1, std::memory_order_relaxed);
  if (config_.overload_stall.count() > 0) {
    std::this_thread::sleep_for(config_.overload_stall);
  }
  if (config_.overload_forced_depth > 0) return config_.overload_forced_depth;
  return std::nullopt;
}

void FaultInjector::maybe_throw_in_worker(int user_id) {
  if (!targets_worker(user_id)) return;
  {
    std::lock_guard lock(mu_);
    std::size_t& used = worker_fails_[user_id];
    if (used >= config_.worker_throws_per_user) return;
    ++used;
  }
  worker_throws_.fetch_add(1, std::memory_order_relaxed);
  throw FaultInjected("injected worker-path failure");
}

FaultCounts FaultInjector::counts() const {
  FaultCounts c;
  c.nan_samples = nan_samples_.load(std::memory_order_relaxed);
  c.corrupted = corrupted_.load(std::memory_order_relaxed);
  c.truncated = truncated_.load(std::memory_order_relaxed);
  c.seq_skewed = seq_skewed_.load(std::memory_order_relaxed);
  c.provider_throws = provider_throws_.load(std::memory_order_relaxed);
  c.worker_throws = worker_throws_.load(std::memory_order_relaxed);
  c.overload_dequeues = overload_dequeues_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace sift::fleet
