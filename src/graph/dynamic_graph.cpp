#include "graph/dynamic_graph.h"

#include <algorithm>
#include <map>

#include "graph/graph_builder.h"

namespace deltav::graph {

namespace {

// Binary search of `dst` in a sorted adjacency span; npos if absent.
std::size_t find_in(std::span<const VertexId> targets, VertexId dst) {
  const auto it = std::lower_bound(targets.begin(), targets.end(), dst);
  if (it == targets.end() || *it != dst) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - targets.begin());
}

}  // namespace

DynamicGraph::DynamicGraph(CsrGraph base)
    : base_(std::move(base)),
      n_(base_.num_vertices()),
      num_arcs_(base_.num_arcs()) {
  out_slot_.assign(n_, -1);
  if (directed()) in_slot_.assign(n_, -1);
}

bool DynamicGraph::has_arc(VertexId src, VertexId dst) const {
  return find_in(out_neighbors(src), dst) != static_cast<std::size_t>(-1);
}

double DynamicGraph::arc_weight(VertexId src, VertexId dst) const {
  if (!weighted()) return 1.0;
  const std::size_t pos = find_in(out_neighbors(src), dst);
  DV_CHECK_MSG(pos != static_cast<std::size_t>(-1),
               "arc_weight on absent arc " << src << "->" << dst);
  return out_weights(src)[pos];
}

GraphDelta DynamicGraph::plan(const MutationBatch& batch) const {
  GraphDelta delta;
  delta.old_num_vertices = n_;
  delta.new_num_vertices = n_ + batch.add_vertices;
  const std::size_t new_n = delta.new_num_vertices;
  DV_CHECK_MSG(new_n < (1ULL << 32), "vertex ids are 32-bit");

  // Net per-edge state, resolved sequentially in batch order. Keys are the
  // stored-arc pair for directed graphs and the unordered pair for
  // undirected ones (so (u,v) and (v,u) name the same logical edge). An
  // ordered map keeps the emitted ArcChange order deterministic.
  struct Pending {
    bool had0;   // existed before the batch
    double w0;   // pre-batch weight (1.0 if unweighted or absent)
    bool exists; // current within-batch state
    double w;
  };
  std::map<std::uint64_t, Pending> pending;
  auto key_of = [this](VertexId a, VertexId b) {
    if (!directed() && a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  auto lookup = [&](VertexId a, VertexId b) -> Pending& {
    const std::uint64_t k = key_of(a, b);
    auto it = pending.find(k);
    if (it == pending.end()) {
      Pending p;
      p.had0 = a < n_ && b < n_ && has_arc(a, b);
      p.w0 = p.had0 && weighted() ? arc_weight(a, b) : 1.0;
      p.exists = p.had0;
      p.w = p.w0;
      it = pending.emplace(k, p).first;
    }
    return it->second;
  };

  for (const MutationBatch::EdgeOp& op : batch.edges) {
    DV_CHECK_MSG(op.src < new_n && op.dst < new_n,
                 "mutation edge (" << op.src << "," << op.dst
                                   << ") out of range for |V|=" << new_n);
    if (op.src == op.dst) {
      ++delta.self_loops_dropped;
      continue;
    }
    Pending& p = lookup(op.src, op.dst);
    if (op.insert) {
      const double w = weighted() ? op.weight : 1.0;
      if (p.exists && p.w == w) {
        ++delta.redundant_ops;  // last-write-wins with the same weight
      } else {
        p.exists = true;
        p.w = w;
      }
    } else {
      if (!p.exists) {
        ++delta.redundant_ops;  // delete of a missing edge is a no-op
      } else {
        p.exists = false;
      }
    }
  }

  // Vertex detachment runs after the batch's edge ops: every arc incident
  // to a detached vertex — pre-existing or just inserted — goes away.
  std::vector<VertexId> detach = batch.detach_vertices;
  std::sort(detach.begin(), detach.end());
  detach.erase(std::unique(detach.begin(), detach.end()), detach.end());
  for (const VertexId v : detach) {
    DV_CHECK_MSG(v < new_n,
                 "detach of vertex " << v << " out of range for |V|=" << new_n);
    if (v < n_) {
      for (const VertexId u : out_neighbors(v)) lookup(v, u);
      if (directed())
        for (const VertexId u : in_neighbors(v)) lookup(u, v);
    }
  }
  if (!detach.empty()) {
    for (auto& [k, p] : pending) {
      const auto a = static_cast<VertexId>(k >> 32);
      const auto b = static_cast<VertexId>(k & 0xffffffffu);
      if (p.exists && (std::binary_search(detach.begin(), detach.end(), a) ||
                       std::binary_search(detach.begin(), detach.end(), b)))
        p.exists = false;
    }
  }
  delta.detached = std::move(detach);

  for (const auto& [k, p] : pending) {
    const auto a = static_cast<VertexId>(k >> 32);
    const auto b = static_cast<VertexId>(k & 0xffffffffu);
    const bool presence_changed = p.exists != p.had0;
    const bool weight_changed =
        p.exists && p.had0 && weighted() && p.w != p.w0;
    if (!presence_changed && !weight_changed) continue;
    if (presence_changed) {
      if (p.exists)
        ++delta.edges_inserted;
      else {
        ++delta.edges_removed;
        delta.has_removals = true;
      }
    } else {
      ++delta.weights_changed;
      delta.has_weight_changes = true;
    }
    const ArcChange fwd{a, b, p.w0, p.w, p.had0, p.exists};
    delta.arcs.push_back(fwd);
    if (!directed())
      delta.arcs.push_back(ArcChange{b, a, p.w0, p.w, p.had0, p.exists});
    delta.touched.push_back(a);
    delta.touched.push_back(b);
  }
  delta.touched.insert(delta.touched.end(), delta.detached.begin(),
                       delta.detached.end());
  std::sort(delta.touched.begin(), delta.touched.end());
  delta.touched.erase(
      std::unique(delta.touched.begin(), delta.touched.end()),
      delta.touched.end());
  return delta;
}

std::size_t DynamicGraph::ensure_overlay(VertexId v, bool out_dir) {
  std::vector<std::int32_t>& slots = out_dir ? out_slot_ : in_slot_;
  if (slots[v] >= 0) return static_cast<std::size_t>(slots[v]);
  auto& targets_ov = out_dir ? out_targets_ov_ : in_targets_ov_;
  auto& weights_ov = out_dir ? out_weights_ov_ : in_weights_ov_;
  const std::size_t slot = targets_ov.size();
  // First slot of v in either direction: the other table is unused on an
  // undirected graph, and on a directed one it still reads the base.
  const std::vector<std::int32_t>& other = out_dir ? in_slot_ : out_slot_;
  if (!directed() || other[v] < 0) ++overlay_vertices_;
  if (in_base(v)) {
    const auto ts = out_dir ? base_.out_neighbors(v) : base_.in_neighbors(v);
    targets_ov.emplace_back(ts.begin(), ts.end());
    if (weighted()) {
      const auto ws = out_dir ? base_.out_weights(v) : base_.in_weights(v);
      weights_ov.emplace_back(ws.begin(), ws.end());
    } else {
      weights_ov.emplace_back();
    }
  } else {
    targets_ov.emplace_back();
    weights_ov.emplace_back();
  }
  slots[v] = static_cast<std::int32_t>(slot);
  return slot;
}

void DynamicGraph::apply_arc(const ArcChange& c, bool out_dir) {
  // `out_dir` selects which adjacency list of which endpoint this stored
  // arc lands in: src's out-list or (directed only) dst's in-list.
  const VertexId owner = out_dir ? c.src : c.dst;
  const VertexId other = out_dir ? c.dst : c.src;
  const std::size_t slot = ensure_overlay(owner, out_dir);
  auto& targets =
      (out_dir ? out_targets_ov_ : in_targets_ov_)[slot];
  auto& weights =
      (out_dir ? out_weights_ov_ : in_weights_ov_)[slot];
  const auto it = std::lower_bound(targets.begin(), targets.end(), other);
  const auto pos = static_cast<std::size_t>(it - targets.begin());
  if (c.had && !c.has) {
    DV_CHECK_MSG(it != targets.end() && *it == other,
                 "commit: removal of absent arc " << c.src << "->" << c.dst);
    targets.erase(it);
    if (weighted()) weights.erase(weights.begin() + static_cast<long>(pos));
  } else if (!c.had && c.has) {
    DV_CHECK_MSG(it == targets.end() || *it != other,
                 "commit: insertion of present arc " << c.src << "->"
                                                     << c.dst);
    targets.insert(it, other);
    if (weighted())
      weights.insert(weights.begin() + static_cast<long>(pos), c.new_weight);
  } else if (c.had && c.has) {
    DV_CHECK_MSG(it != targets.end() && *it == other,
                 "commit: weight update of absent arc " << c.src << "->"
                                                        << c.dst);
    if (weighted()) weights[pos] = c.new_weight;
  }
}

void DynamicGraph::commit(const GraphDelta& delta) {
  DV_CHECK_MSG(delta.old_num_vertices == n_,
               "commit: delta planned against |V|=" << delta.old_num_vertices
                                                    << " but graph has |V|="
                                                    << n_);
  if (delta.new_num_vertices > n_) {
    n_ = delta.new_num_vertices;
    out_slot_.resize(n_, -1);
    if (directed()) in_slot_.resize(n_, -1);
  }
  for (const ArcChange& c : delta.arcs) {
    apply_arc(c, /*out_dir=*/true);
    if (directed()) apply_arc(c, /*out_dir=*/false);
    if (c.has && !c.had) ++num_arcs_;
    if (c.had && !c.has) --num_arcs_;
  }
}

void DynamicGraph::recount_overlay() {
  overlay_vertices_ = 0;
  for (std::size_t v = 0; v < n_; ++v) {
    if (out_slot_[v] >= 0 || (directed() && in_slot_[v] >= 0))
      ++overlay_vertices_;
  }
}

CsrGraph DynamicGraph::materialize() const {
  GraphBuilder builder(n_, directed());
  builder.keep_weights(weighted());
  for (std::size_t v = 0; v < n_; ++v) {
    const auto vid = static_cast<VertexId>(v);
    const auto targets = out_neighbors(vid);
    const auto weights = out_weights(vid);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      // Undirected edges are stored once per endpoint; add each logical
      // edge exactly once.
      if (!directed() && vid > targets[i]) continue;
      builder.add_edge(vid, targets[i], weighted() ? weights[i] : 1.0);
    }
  }
  return builder.build();
}

void DynamicGraph::compact() {
  base_ = materialize();
  DV_DCHECK(base_.num_arcs() == num_arcs_);
  out_slot_.assign(n_, -1);
  if (directed()) in_slot_.assign(n_, -1);
  out_targets_ov_.clear();
  out_weights_ov_.clear();
  in_targets_ov_.clear();
  in_weights_ov_.clear();
  overlay_vertices_ = 0;
}

}  // namespace deltav::graph
