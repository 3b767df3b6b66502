// The Bitswap requester: implements the two-step content-retrieval strategy
// from paper Sec. III-C / Fig. 1 —
//
//   1. broadcast a want for the CID to ALL connected peers,
//   2. if that stalls, search the DHT for providers and ask them directly,
//   and keep re-broadcasting every 30 s ("idle looping state") until the
//   block arrives, the user cancels, or the fetch deadline expires.
//
// Sessions (Sec. III-D2) scope follow-up requests for related blocks to the
// peers that answered for the root — which is precisely why passive monitors
// generally only observe requests for DAG roots.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "bitswap/message.hpp"
#include "dht/message.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace ipfsmon::bitswap {

using SessionId = std::uint64_t;
constexpr SessionId kNoSession = 0;

struct ClientConfig {
  /// v0.5+ clients probe with WANT_HAVE; pre-v0.5 clients broadcast
  /// WANT_BLOCK directly (drives the migration in paper Fig. 4).
  bool use_want_have = true;
  /// Give up entirely after this long (sends CANCELs, reports failure).
  util::SimDuration fetch_timeout = 10 * util::kMinute;
  // --- Countermeasure ablation knobs (paper Sec. VI-C) ---
  /// Item 3: retrieve via DHT-found providers only, never broadcast.
  bool broadcast_wants = true;
  /// Disable the 30 s re-broadcast loop (the paper notes these messages
  /// "serve little purpose, as want_lists are persisted").
  bool rebroadcast = true;
  /// Item 4: broadcast wants carry H(salt ‖ CID) instead of the plaintext
  /// CID. Monitors see unlinkable opaque values; only actual providers can
  /// resolve the request (at a per-stored-CID hashing cost). Directed
  /// requests to peers that already proved knowledge stay plaintext.
  bool salted_wants = false;
};

class BitswapClient {
 public:
  /// Block delivered (or nullptr on failure/timeout).
  using FetchCallback = std::function<void(dag::BlockPtr)>;
  /// Asynchronous provider search, wired to the node's DHT.
  using ProviderSearchFn = std::function<void(
      const cid::Cid&, std::function<void(std::vector<dht::PeerRecord>)>)>;

  BitswapClient(net::Network& network, const crypto::PeerId& self,
                ClientConfig config, ProviderSearchFn search,
                util::RngStream rng);

  /// Creates a session for scoping related fetches.
  SessionId create_session();

  /// Fetches one block. With kNoSession (or an empty session) the want is
  /// broadcast to all connected peers; within a populated session it goes
  /// to session peers only.
  void fetch(const cid::Cid& cid, SessionId session, FetchCallback on_done);

  /// User-level cancel: sends CANCEL to every peer holding our want.
  void cancel(const cid::Cid& cid);

  /// Routes the response side (presences, blocks) of an inbound message.
  void handle_response(const crypto::PeerId& from,
                       const BitswapMessage& message);

  /// New connection established: Bitswap sends the full current wantlist
  /// to the new peer — this is how late-connecting monitors still observe
  /// outstanding requests.
  void on_peer_connected(net::ConnectionId conn, const crypto::PeerId& peer);

  /// Stops all activity and fails outstanding fetches (churn-down).
  void shutdown();

  /// Re-enables the client after a shutdown (node came back online).
  void restart() { shut_down_ = false; }

  /// Switches between the v0.5+ WANT_HAVE probe and the legacy WANT_BLOCK
  /// broadcast (a client "upgrade" — drives the paper's Fig. 4 migration).
  void set_use_want_have(bool use) { config_.use_want_have = use; }
  bool use_want_have() const { return config_.use_want_have; }

  std::size_t active_fetches() const { return active_.size(); }
  bool is_fetching(const cid::Cid& cid) const { return active_.count(cid) != 0; }

  /// Peers attached to a session (HAVE responders + providers).
  std::vector<crypto::PeerId> session_peers(SessionId session) const;

 private:
  struct WantState {
    cid::Cid cid;
    SessionId session = kNoSession;
    std::vector<FetchCallback> callbacks;
    bool broadcast = true;  // broadcast vs session-scoped
    /// Peers currently holding one of our want entries (CANCEL targets).
    std::unordered_set<crypto::PeerId> told;
    /// HAVE responders not yet asked for the block.
    std::vector<crypto::PeerId> candidates;
    std::unordered_set<crypto::PeerId> candidate_set;
    std::unordered_set<crypto::PeerId> tried;
    std::optional<crypto::PeerId> block_in_flight;
    bool provider_search_running = false;
    bool done = false;
    util::SimTime started = 0;  // for the fetch-duration histogram
    /// Fetch-lifetime span (inert unless the request is traced). Its
    /// context is stamped on every outgoing want/cancel payload so
    /// monitors and responders can link their spans to this fetch.
    obs::Span span;
    /// Covers one in-flight DHT provider search (at most one at a time).
    obs::Span provider_span;
    sim::EventHandle rebroadcast_timer;
    sim::EventHandle provider_delay_timer;
    sim::EventHandle block_timeout_timer;
    sim::EventHandle deadline_timer;
  };
  using WantStatePtr = std::shared_ptr<WantState>;

  void send_want(const WantStatePtr& state, const crypto::PeerId& peer,
                 net::ConnectionId conn, WantType type, bool send_dont_have,
                 bool allow_salted = true);
  WantEntry build_entry(const cid::Cid& cid, WantType type,
                        bool send_dont_have, bool allow_salted);
  void broadcast_want(const WantStatePtr& state);
  void try_next_candidate(const WantStatePtr& state);
  void start_provider_search(const WantStatePtr& state);
  void on_rebroadcast(const WantStatePtr& state);
  // By value: both erase the state from active_ mid-function, which would
  // destroy a caller's reference into the map (e.g. cancel()'s it->second).
  void complete(WantStatePtr state, const dag::BlockPtr& block);
  void fail(WantStatePtr state);
  void send_cancels(const WantStatePtr& state);
  void arm_deadline(const WantStatePtr& state);
  void arm_rebroadcast(const WantStatePtr& state);
  std::vector<crypto::PeerId> want_targets(const WantStatePtr& state) const;

  net::Network& network_;
  crypto::PeerId self_;
  ClientConfig config_;
  ProviderSearchFn search_;
  util::RngStream rng_;

  // Network-wide obs instruments (shared across all clients on the same
  // network; grabbed once at construction, bumped inline on hot paths).
  struct Instruments {
    obs::Counter* want_messages = nullptr;
    obs::Counter* want_have = nullptr;
    obs::Counter* want_block = nullptr;
    obs::Counter* cancels = nullptr;
    obs::Counter* rebroadcast_rounds = nullptr;
    obs::Counter* fetches_started = nullptr;
    obs::Counter* fetches_completed = nullptr;
    obs::Counter* fetches_failed = nullptr;
    obs::Counter* provider_searches = nullptr;
    obs::Histogram* fetch_duration = nullptr;
  } metrics_;

  std::unordered_map<cid::Cid, WantStatePtr> active_;
  std::unordered_map<SessionId, std::unordered_set<crypto::PeerId>> sessions_;
  SessionId next_session_ = 1;
  bool shut_down_ = false;
};

}  // namespace ipfsmon::bitswap
