// The synthetic content catalog: the population of data items that nodes
// and gateway users request. Item codecs follow the paper's Table I
// request shares, popularity weights follow a log-normal (heavy-skewed but
// NOT power-law — the paper rejects the power-law hypothesis for its
// measured popularity, Sec. V-E), and a small
// share of items is unresolvable (no provider) — the paper observes that
// popular-by-RRP CIDs are often unresolvable because stalled fetches
// re-broadcast forever.
#pragma once

#include <vector>

#include "cid/multicodec.hpp"
#include "dag/builder.hpp"
#include "util/rng.hpp"

namespace ipfsmon::scenario {

struct CatalogItem {
  cid::Cid root;
  cid::Multicodec codec = cid::Multicodec::Raw;
  std::vector<dag::BlockPtr> blocks;  // all blocks (root included)
  bool resolvable = true;             // false ⇒ never given to providers
  bool is_dag = false;                // multi-block file (fetched via session)
  double weight = 1.0;                // request-popularity weight
};

struct CatalogConfig {
  std::size_t item_count = 4000;
};

class ContentCatalog {
 public:
  ContentCatalog(const CatalogConfig& config, util::RngStream rng);

  const std::vector<CatalogItem>& items() const { return items_; }
  std::size_t size() const { return items_.size(); }

  /// Samples an item index by popularity weight.
  std::size_t sample_index(util::RngStream& rng) const;
  const CatalogItem& sample(util::RngStream& rng) const {
    return items_[sample_index(rng)];
  }

  /// Head-biased sampling (tournament selection over `bias` weighted
  /// draws): models gateway HTTP users, whose interest concentrates on
  /// popular web content far more than node operators' — the reason
  /// Cloudflare can report a 97% cache-hit ratio.
  const CatalogItem& sample_popular(util::RngStream& rng,
                                    std::size_t bias) const;

  /// Creates a fresh single-block "one-off" item — unique content that
  /// only one user will ever request (personal files, fresh uploads). The
  /// bulk of real-world CIDs behave this way: the paper observes >80% of
  /// CIDs requested by exactly one peer. The caller decides whether (and
  /// where) to host the blocks.
  CatalogItem create_oneoff(util::RngStream& rng) const;

  std::size_t resolvable_count() const { return resolvable_count_; }

 private:
  std::vector<double> codec_weights_;
  std::vector<CatalogItem> items_;
  std::vector<double> cumulative_weight_;
  std::size_t resolvable_count_ = 0;
};

}  // namespace ipfsmon::scenario
