// DHT wire messages. Modeled on the libp2p Kademlia protobuf RPCs; carried
// over the simulated overlay as net::Payload subclasses.
#pragma once

#include <cstdint>
#include <vector>

#include "cid/cid.hpp"
#include "crypto/keys.hpp"
#include "net/address.hpp"
#include "net/network.hpp"

namespace ipfsmon::dht {

/// How long a DHT request waits for its reply before the peer counts as
/// failed; DhtNode and DhtCrawler both use it. Calibrated; no published
/// figure.
constexpr util::SimDuration kRpcTimeout = 10 * util::kSecond;

/// Contact info exchanged in replies; lets the querier dial closer peers.
struct PeerRecord {
  crypto::PeerId id;
  net::Address address;
};

struct DhtMessage : net::Payload {
  enum class Type : std::uint8_t {
    Ping,
    Pong,
    FindNode,           // target: key to approach
    FindNodeReply,      // closer: up to k closest known servers
    GetProviders,       // key: content key
    GetProvidersReply,  // providers + closer
    AddProvider,        // key + provider record (the sender)
  };

  Type type = Type::Ping;
  std::uint64_t request_id = 0;  // matches replies to requests
  std::array<std::uint8_t, 32> target{};  // FindNode / provider key
  std::vector<PeerRecord> closer;
  std::vector<PeerRecord> providers;
  /// Whether the sender operates in DHT server mode; clients are never
  /// added to routing tables (paper Sec. III-A).
  bool sender_is_server = false;

  std::size_t wire_size() const override {
    // Header + key, ~44 B per peer record (peer id + address).
    return 48 + (closer.size() + providers.size()) * 44;
  }
};

using DhtMessagePtr = std::shared_ptr<const DhtMessage>;

}  // namespace ipfsmon::dht
