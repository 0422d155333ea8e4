// Mutable delta-overlay over an immutable CsrGraph.
//
// The streaming subsystem applies batches of topology mutations between
// epochs of a ΔV computation. Rebuilding the CSR per batch would cost
// O(V+E) even for a one-edge change; instead DynamicGraph keeps the base
// CSR untouched and copies a vertex's adjacency into a per-vertex overlay
// the first time a batch touches it. Reads cost one predictable branch:
// touched vertices read their overlay vectors, untouched vertices read the
// base spans. compact() folds the overlay back into a fresh base CSR when
// the caller decides it has grown too large (overlay_fraction()).
//
// Mutation policy — shared with GraphBuilder (see graph_builder.h):
//  * inserting an edge that already exists updates its weight in place
//    (last-write-wins); on an unweighted graph this is a redundant no-op;
//  * deleting an absent edge is a no-op;
//  * self-loops are dropped (and counted);
//  * removing a vertex *detaches* it: all incident arcs disappear but the
//    id stays valid and keeps its dense slot, so per-vertex runtime state
//    remains index-stable and later batches may reconnect it.
//
// plan()/commit() are deliberately split: the ΔV runner must synthesize
// retraction Δ-messages against the *old* topology (what was previously
// sent along an arc) before the change lands, then injection Δ-messages
// against the new one. plan() resolves a MutationBatch into the net
// per-arc effect without modifying the graph; commit() applies it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"

namespace deltav::graph {

/// A batch of topology mutations, applied atomically between ΔV epochs.
/// Edge operations are resolved in insertion order; vertex detachments are
/// processed after all edge operations in the same batch.
struct MutationBatch {
  struct EdgeOp {
    bool insert;  // false = delete
    VertexId src;
    VertexId dst;
    double weight;  // insert only; ignored (1.0) on unweighted graphs
  };

  std::vector<EdgeOp> edges;
  std::size_t add_vertices = 0;           // appended at the id tail
  std::vector<VertexId> detach_vertices;  // drop all incident arcs

  void insert_edge(VertexId src, VertexId dst, double weight = 1.0) {
    edges.push_back(EdgeOp{true, src, dst, weight});
  }
  void remove_edge(VertexId src, VertexId dst) {
    edges.push_back(EdgeOp{false, src, dst, 0.0});
  }
  bool empty() const {
    return edges.empty() && add_vertices == 0 && detach_vertices.empty();
  }
};

/// One stored arc whose presence or weight changes. Undirected edges
/// contribute two ArcChange entries (one per stored direction), mirroring
/// how CsrGraph stores them and how the runtime's send loops walk them.
struct ArcChange {
  VertexId src;
  VertexId dst;
  double old_weight;  // meaningful iff had
  double new_weight;  // meaningful iff has
  bool had;
  bool has;
};

/// The net effect of a MutationBatch against a specific graph snapshot.
/// Produced by DynamicGraph::plan(); consumed by DynamicGraph::commit()
/// and by the runner's Δ-message synthesis.
struct GraphDelta {
  std::size_t old_num_vertices = 0;
  std::size_t new_num_vertices = 0;
  std::vector<ArcChange> arcs;
  /// Endpoints of every changed arc plus detached vertices; sorted, unique.
  /// Freshly added (isolated) vertices are not included — the runner handles
  /// them through growth, not the mutation frontier.
  std::vector<VertexId> touched;
  std::vector<VertexId> detached;  // sorted, unique

  // Policy/bookkeeping counters (logical edges, not stored arcs).
  std::size_t edges_inserted = 0;
  std::size_t edges_removed = 0;
  std::size_t weights_changed = 0;
  std::size_t self_loops_dropped = 0;
  std::size_t redundant_ops = 0;  // delete-missing / no-op weight rewrites

  bool has_removals = false;        // any arc with had && !has
  bool has_weight_changes = false;  // any arc with had && has

  bool empty() const {
    return arcs.empty() && new_num_vertices == old_num_vertices;
  }
};

class DynamicGraph {
 public:
  explicit DynamicGraph(CsrGraph base);

  std::size_t num_vertices() const { return n_; }
  bool directed() const { return base_.directed(); }
  bool weighted() const { return base_.weighted(); }
  EdgeIndex num_arcs() const { return num_arcs_; }
  EdgeIndex num_logical_edges() const {
    return directed() ? num_arcs_ : num_arcs_ / 2;
  }

  std::span<const VertexId> out_neighbors(VertexId v) const {
    DV_DCHECK(v < n_);
    const std::int32_t s = out_slot_[v];
    if (s < 0) return in_base(v) ? base_.out_neighbors(v) : empty_targets();
    return out_targets_ov_[static_cast<std::size_t>(s)];
  }

  std::span<const VertexId> in_neighbors(VertexId v) const {
    DV_DCHECK(v < n_);
    if (!directed()) return out_neighbors(v);
    const std::int32_t s = in_slot_[v];
    if (s < 0) return in_base(v) ? base_.in_neighbors(v) : empty_targets();
    return in_targets_ov_[static_cast<std::size_t>(s)];
  }

  std::span<const double> out_weights(VertexId v) const {
    DV_DCHECK(v < n_);
    if (!weighted()) return {};
    const std::int32_t s = out_slot_[v];
    if (s < 0) return in_base(v) ? base_.out_weights(v) : empty_weights();
    return out_weights_ov_[static_cast<std::size_t>(s)];
  }

  std::span<const double> in_weights(VertexId v) const {
    DV_DCHECK(v < n_);
    if (!weighted()) return {};
    if (!directed()) return out_weights(v);
    const std::int32_t s = in_slot_[v];
    if (s < 0) return in_base(v) ? base_.in_weights(v) : empty_weights();
    return in_weights_ov_[static_cast<std::size_t>(s)];
  }

  std::size_t out_degree(VertexId v) const { return out_neighbors(v).size(); }
  std::size_t in_degree(VertexId v) const { return in_neighbors(v).size(); }

  /// Stored-arc lookup (binary search; adjacency is kept sorted).
  bool has_arc(VertexId src, VertexId dst) const;
  /// Weight of the stored arc src→dst; 1.0 on unweighted graphs.
  /// Precondition: has_arc(src, dst).
  double arc_weight(VertexId src, VertexId dst) const;

  /// Resolves `batch` against the current topology into its net per-arc
  /// effect, WITHOUT mutating the graph. Endpoints must be within
  /// num_vertices() + batch.add_vertices.
  GraphDelta plan(const MutationBatch& batch) const;

  /// Applies a delta produced by plan() on this exact snapshot. Touched
  /// vertices' adjacency is copied into the overlay on first touch.
  void commit(const GraphDelta& delta);

  /// Fraction of vertices whose adjacency lives in the overlay — the
  /// caller's compaction trigger. O(1): the count is kept as slots are
  /// handed out, so the per-epoch check never scans the slot tables.
  double overlay_fraction() const {
    return n_ == 0 ? 0.0
                   : static_cast<double>(overlay_vertices_) /
                         static_cast<double>(n_);
  }
  /// Vertices with an overlay slot in at least one direction.
  std::size_t overlay_vertices() const { return overlay_vertices_; }

  /// Rebuilds the base CSR from the current topology and clears the
  /// overlay. Reads are unchanged before/after; only their cost moves.
  void compact();

  /// A standalone CSR snapshot of the current topology (what a from-scratch
  /// run would be given). Used by the differential harness as the oracle
  /// input and by compact().
  CsrGraph materialize() const;

  const CsrGraph& base() const { return base_; }

 private:
  friend class deltav::dv::persist::GraphCodec;  // see csr_graph.h note

  bool in_base(VertexId v) const { return v < base_.num_vertices(); }
  static std::span<const VertexId> empty_targets() { return {}; }
  static std::span<const double> empty_weights() { return {}; }

  /// Ensures vertex v's `dir` adjacency is overlay-backed, copying from the
  /// base on first touch; returns the overlay slot.
  std::size_t ensure_overlay(VertexId v, bool out_dir);

  void apply_arc(const ArcChange& c, bool out_dir);

  /// Recounts overlay_vertices_ from the slot tables: O(|V|), run once
  /// when a snapshot is decoded (GraphCodec::read), never per epoch.
  void recount_overlay();

  CsrGraph base_;
  std::size_t n_;
  EdgeIndex num_arcs_;

  // −1 = read the base (or, for v ≥ base vertices, empty adjacency).
  std::vector<std::int32_t> out_slot_;
  std::vector<std::int32_t> in_slot_;  // unused (aliases out) if undirected
  std::vector<std::vector<VertexId>> out_targets_ov_;
  std::vector<std::vector<double>> out_weights_ov_;  // aligned; empty if unweighted
  std::vector<std::vector<VertexId>> in_targets_ov_;
  std::vector<std::vector<double>> in_weights_ov_;
  // Vertices owning an overlay slot in either direction: ensure_overlay
  // counts a vertex's first slot, compact() zeroes the count.
  std::size_t overlay_vertices_ = 0;
};

}  // namespace deltav::graph
