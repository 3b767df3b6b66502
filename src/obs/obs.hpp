// Umbrella context bundling the metrics registry and the span tracer. One
// Obs instance is owned by each net::Network, so every protocol layer built
// on the network (DHT, Bitswap, nodes, monitors) reaches the same registry
// without extra plumbing.
#pragma once

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace ipfsmon::obs {

struct Obs {
  MetricsRegistry metrics;
  Tracer tracer;  // inert until configured with enabled = true
};

}  // namespace ipfsmon::obs
