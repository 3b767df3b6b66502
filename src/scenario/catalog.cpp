#include "scenario/catalog.hpp"

#include <algorithm>
#include <array>

namespace ipfsmon::scenario {

namespace {

struct CodecShare {
  cid::Multicodec codec;
  double weight;
};

/// Item codecs follow the paper's Table I (share of data requests by
/// multicodec, in percent).
constexpr std::array<CodecShare, 7> kCodecMix = {{
    {cid::Multicodec::DagProtobuf, 86.21},
    {cid::Multicodec::Raw, 13.42},
    {cid::Multicodec::DagCBOR, 0.37},
    {cid::Multicodec::GitRaw, 0.002},
    {cid::Multicodec::EthereumTx, 0.0006},
    {cid::Multicodec::DagJSON, 0.0005},
    {cid::Multicodec::EthereumBlock, 0.0003},
}};
/// Share of items without any provider (requests for them stall and
/// re-broadcast until the fetch deadline). Calibrated; no published figure.
constexpr double kUnresolvableShare = 0.11;
/// Share of DagProtobuf items built as real multi-block file DAGs.
/// Calibrated; no published figure.
constexpr double kDagShare = 0.10;
/// Chunks of a multi-block file DAG. Calibrated; no published figure.
constexpr std::size_t kDagChunks = 4;
/// Bytes of payload per block. Calibrated; no published figure.
constexpr std::size_t kBlockSize = 256;
/// Log-normal popularity-weight parameters. The large sigma produces the
/// paper's shape (Sec. V-E): a vast majority of CIDs requested by a single
/// peer, a few heavily requested ones, and no power-law tail. Calibrated;
/// no published figure.
constexpr double kLognormalMu = 0.0;
constexpr double kLognormalSigma = 2.4;

}  // namespace

ContentCatalog::ContentCatalog(const CatalogConfig& config,
                               util::RngStream rng) {
  items_.reserve(config.item_count);
  codec_weights_.reserve(kCodecMix.size());
  for (const auto& share : kCodecMix) codec_weights_.push_back(share.weight);

  // Pass 1: popularity weights. Pass 2 assigns codecs *stratified by
  // weight tier* (greedy largest-remainder over the weight-sorted order):
  // with a finite catalog, a handful of head items dominates the request
  // volume, and independently-sampled codecs would make the realized
  // request mix swing wildly by seed. Codec and popularity are
  // approximately independent in the real network, which stratification
  // preserves at any prefix of the popularity order.
  std::vector<double> weights(config.item_count);
  std::vector<bool> resolvable(config.item_count);
  for (std::size_t i = 0; i < config.item_count; ++i) {
    weights[i] = rng.lognormal(kLognormalMu, kLognormalSigma);
    resolvable[i] = !rng.bernoulli(kUnresolvableShare);
    // Dead references attract little *genuine* demand — their apparent
    // (RRP) popularity comes from re-broadcast inflation, as the paper
    // observes ("popular data items according to RRP are often not
    // resolvable"). Damping their intrinsic weight also keeps a single
    // unlucky head item from dominating the raw codec mix.
    if (!resolvable[i]) weights[i] *= 0.1;
  }
  std::vector<std::size_t> order(config.item_count);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return weights[a] > weights[b];
  });
  double total_codec_weight = 0.0;
  for (double w : codec_weights_) total_codec_weight += w;
  std::vector<double> codec_deficit(codec_weights_.size(), 0.0);
  std::vector<cid::Multicodec> codec_of(config.item_count);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    // Each codec accrues credit proportional to its share; assign the item
    // to the codec with the largest outstanding credit.
    std::size_t best = 0;
    for (std::size_t c = 0; c < codec_weights_.size(); ++c) {
      codec_deficit[c] += codec_weights_[c] / total_codec_weight;
      if (codec_deficit[c] > codec_deficit[best]) best = c;
    }
    codec_deficit[best] -= 1.0;
    codec_of[order[rank]] = kCodecMix[best].codec;
  }

  for (std::size_t i = 0; i < config.item_count; ++i) {
    CatalogItem item;
    item.codec = codec_of[i];
    item.resolvable = resolvable[i];
    item.weight = weights[i];

    const bool build_dag = item.codec == cid::Multicodec::DagProtobuf &&
                           rng.bernoulli(kDagShare);
    if (build_dag) {
      // A real multi-chunk file DAG: consumers fetch it via a session, so
      // monitors will only observe the root CID.
      util::Bytes data(kBlockSize * kDagChunks);
      rng.fill_bytes(data.data(), data.size());
      dag::BuilderOptions options;
      options.chunk_size = kBlockSize;
      const dag::DagBuildResult built = dag::build_file(data, options);
      item.root = built.root;
      item.is_dag = true;
      for (const auto& block : built.blocks) {
        item.blocks.push_back(std::make_shared<dag::Block>(block));
      }
    } else {
      util::Bytes data(kBlockSize);
      rng.fill_bytes(data.data(), data.size());
      auto block = std::make_shared<dag::Block>(
          dag::Block::create(item.codec, std::move(data)));
      item.root = block->id();
      item.blocks.push_back(std::move(block));
    }

    if (item.resolvable) ++resolvable_count_;
    items_.push_back(std::move(item));
  }

  cumulative_weight_.reserve(items_.size());
  double acc = 0.0;
  for (const auto& item : items_) {
    acc += item.weight;
    cumulative_weight_.push_back(acc);
  }
}

const CatalogItem& ContentCatalog::sample_popular(util::RngStream& rng,
                                                  std::size_t bias) const {
  std::size_t best = sample_index(rng);
  for (std::size_t i = 1; i < bias; ++i) {
    const std::size_t candidate = sample_index(rng);
    if (items_[candidate].weight > items_[best].weight) best = candidate;
  }
  return items_[best];
}

CatalogItem ContentCatalog::create_oneoff(util::RngStream& rng) const {
  CatalogItem item;
  item.codec = kCodecMix[rng.weighted_index(codec_weights_)].codec;
  item.resolvable = !rng.bernoulli(kUnresolvableShare);
  item.weight = 0.0;
  util::Bytes data(kBlockSize);
  rng.fill_bytes(data.data(), data.size());
  auto block = std::make_shared<dag::Block>(
      dag::Block::create(item.codec, std::move(data)));
  item.root = block->id();
  item.blocks.push_back(std::move(block));
  return item;
}

std::size_t ContentCatalog::sample_index(util::RngStream& rng) const {
  if (items_.empty()) return 0;
  const double target = rng.uniform() * cumulative_weight_.back();
  const auto it = std::lower_bound(cumulative_weight_.begin(),
                                   cumulative_weight_.end(), target);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - cumulative_weight_.begin()),
      items_.size() - 1);
}

}  // namespace ipfsmon::scenario
