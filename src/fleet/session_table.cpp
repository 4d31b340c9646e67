#include "fleet/session_table.hpp"

#include <stdexcept>

#include "signal/splitmix64.hpp"

namespace sift::fleet {

SessionTable::SessionTable(std::size_t num_shards, ModelRegistry& registry,
                           wiot::BaseStation::Config station_config)
    : registry_(registry), station_config_(station_config) {
  if (num_shards == 0) {
    throw std::invalid_argument("SessionTable: need at least one shard");
  }
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::size_t SessionTable::shard_of(int user_id) const noexcept {
  // splitmix64 finaliser: cheap, and decouples shard choice from any
  // structure in the id space (sequential ids, per-site id ranges...).
  const std::uint64_t x = signal::splitmix64_finalize(
      static_cast<std::uint32_t>(user_id));
  return static_cast<std::size_t>(x % shards_.size());
}

std::size_t SessionTable::active_sessions() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    n += shard->sessions.size();
  }
  return n;
}

}  // namespace sift::fleet
