// The runtime message format of compiled ΔV programs, and its combiner.
//
// One message type serves both variants: ΔV* messages carry full values
// with zero counters; ΔV messages carry Δ-payloads plus the absorbing-state
// transition counters of §6.4.1. Both combine with the site's own ⊞ (for
// Δ-payloads the combination of two deltas is again a delta — Eq. 11 is
// associative in the update), and the counters combine additively, which is
// what makes the format legal under Pregel's commutative/associative
// combiner contract (§2).
//
// `wire` records the logical on-the-wire size in bytes, assigned at send
// time from the site's element type: payload bytes, plus one site-id byte
// when the program has more than one aggregation site, plus one tag byte
// for incrementalized multiplicative sites. Figure-4 byte counts use this,
// not sizeof(DvMessage).
#pragma once

#include <cstdint>
#include <vector>

#include "dv/runtime/delta.h"
#include "dv/runtime/value.h"
#include "graph/csr_graph.h"
#include "pregel/engine.h"

namespace deltav::dv {

struct DvMessage {
  Value payload{};
  std::int32_t nulls = 0;
  std::int32_t denulls = 0;
  std::uint8_t site = 0;
  std::uint8_t wire = 0;
};

/// The Δ-message that carries `d` for aggregation site `site`.
inline DvMessage delta_message(int site, std::uint8_t wire,
                               const DeltaPayload& d) {
  DvMessage m;
  m.payload = d.value;
  m.nulls = d.nulls;
  m.denulls = d.denulls;
  m.site = static_cast<std::uint8_t>(site);
  m.wire = wire;
  return m;
}

struct DvMessageTraits {
  static std::size_t wire_size(const DvMessage& m) { return m.wire; }
};

/// Per-site operator table shared by the combiner and the interpreter.
struct SiteOpTable {
  std::vector<AggOp> ops;
  std::vector<Type> types;
};

struct DvCombiner {
  const SiteOpTable* table = nullptr;

  void operator()(DvMessage& acc, const DvMessage& in) const {
    DV_DCHECK(acc.site == in.site);
    const auto s = static_cast<std::size_t>(acc.site);
    const AggOp op = table->ops[s];
    const Type t = table->types[s];
    // Float-sum is the dominant combine (PageRank/HITS contributions); its
    // agg_apply reduces to one add when both payloads already carry the
    // float tag, skipping the operator switch and Value re-boxing.
    if (op == AggOp::kSum && t == Type::kFloat &&
        acc.payload.type == Type::kFloat &&
        in.payload.type == Type::kFloat) {
      acc.payload.f += in.payload.f;
    } else {
      acc.payload = agg_apply(op, t, acc.payload, in.payload);
    }
    acc.nulls += in.nulls;
    acc.denulls += in.denulls;
  }

  /// Combine per (destination, site): deltas for different aggregations
  /// must not mix.
  std::uint64_t key(graph::VertexId dst, const DvMessage& m) const {
    return (static_cast<std::uint64_t>(dst) << 8) | m.site;
  }

  /// Dense factoring of the same key — the engine combines through a
  /// direct-indexed (vertex × site) slot array when the domain is small.
  std::size_t num_subkeys() const { return table->ops.size(); }
  std::size_t subkey(const DvMessage& m) const { return m.site; }
};

using DvEngine = pregel::Engine<DvMessage, DvCombiner, DvMessageTraits>;

}  // namespace deltav::dv
