// Retraction memos for min/max aggregation sites (DESIGN.md §11).
//
// min/max folds are not invertible: once a contribution has been folded
// into an accumulator, deleting the edge that supplied it cannot be
// expressed as another fold, which is why `warm_blocker` historically
// forced a cold reconvergence on any deletion-bearing epoch. The memo
// fixes that with bounded memory: for every memoized (vertex, site) cell
// it keeps the k best tagged contributions (sender id + value bits) in a
// fixed-capacity tournament buffer plus a conservative `bound` on every
// contribution it chose to forget. Retracting the extremum then costs
// O(k) — rescan the buffer — and only when all k survivors have been
// retracted (underflow) does the runner fall back to a targeted re-fold
// of that one vertex's in-neighbors. Never a whole-graph cold restart.
//
// Cell invariant (stated for min; max is the mirror image):
//   * every buffered entry's value is ≤ bound;
//   * every present contribution whose sender is NOT buffered is ≥ bound;
//   * bound == identity (+∞) means the buffer is exhaustive.
// Hence while count > 0 the exact accumulator value is the extremum of
// the buffered entries (ties at the bound cannot beat it), and while
// count == 0 with bound == identity the accumulator is the identity.
// count == 0 with a tightened bound is the underflow state.
//
// Entries are maintained from *total* contributions, not deltas: every
// record carries the sender's new payload value (identity bits encode
// removal), so applying a record is a keyed upsert/remove. Records are
// gathered per worker lane during a superstep and drained post-barrier
// in canonical (dst, col, sender) order, which makes the memo — and the
// accumulator rewrites it drives — deterministic across schedules and
// bit-identical across execution tiers.
//
// Ordering is a strict total order (value, then raw bits, then sender):
// the bits tiebreak makes −0.0 vs +0.0 deterministic, the sender
// tiebreak makes equal values from distinct senders deterministic. NaN
// ranks strictly worst; a NaN contribution that has been evicted loses
// its fold-poisoning effect until the next refold (the eligibility
// analysis only routes payload shapes our generators keep NaN-free).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dv/runtime/atomic_fold.h"
#include "dv/runtime/value.h"
#include "graph/csr_graph.h"

namespace deltav::dv {

/// One buffered contribution: who sent it and the payload's bit pattern
/// (int64 or double bits per the column's type, as atomic_fold_bits).
struct RetractEntry {
  std::uint32_t sender = 0;
  std::uint64_t bits = 0;
};

/// One recorded send: sender's NEW total contribution into (dst, col).
/// Identity bits mean "sender no longer contributes" (entry removal).
struct RetractRecord {
  graph::VertexId dst = 0;
  std::uint32_t sender = 0;
  std::uint32_t col = 0;
  std::uint64_t bits = 0;
};

/// Per-worker-lane record buffer. Single-writer during a superstep; the
/// runner gathers all lanes in canonical order post-barrier
/// (RetractDrainOrder). Aligned to a cache line so workers appending to
/// neighbouring lanes do not false-share.
struct alignas(64) RetractLane {
  std::vector<RetractRecord> records;

  void record(graph::VertexId dst, std::uint32_t sender, int col,
              std::uint64_t bits) {
    records.push_back({dst, sender, static_cast<std::uint32_t>(col), bits});
  }
};
static_assert(alignof(RetractLane) == 64 && sizeof(RetractLane) % 64 == 0,
              "record lanes must not share a cache line");

/// Gathers one superstep's records from every lane in the drain's
/// canonical order: ascending (dst, col) cell, then (sender, arrival)
/// within a cell, where arrival is lane-major. That is the order a stable
/// sort of the concatenated lanes by (dst, col, sender) gives, but the
/// whole list is never sorted: records are bucketed by cell through a
/// per-cell counter, only the distinct cells are sorted, and each cell's
/// bucket is stable-sorted by sender. Every counter is back at
/// zero when gather returns, so a gather costs O(records + d log d) for
/// d distinct cells, independent of |V|.
class RetractDrainOrder {
 public:
  /// Moves every lane's records into `out` (cleared first) in canonical
  /// order and empties the lanes. `columns` is the memo table's column
  /// count; `cells` its cell count (vertices × columns).
  void gather(std::span<RetractLane> lanes, std::size_t columns,
              std::size_t cells, std::vector<RetractRecord>& out);

 private:
  // Per cell: 0 between gathers; a record count, then a bucket cursor,
  // during one.
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint64_t> cells_;  // distinct cells of this gather
};

/// The memo table: k-entry tournament buffers for every (vertex, routed
/// min/max site). `route[site]` maps a site id to its column (-1 = site
/// not memoized). Layout is vertex-outermost so growth appends rows.
struct RetractMemoTable {
  std::size_t k = 0;
  std::vector<int> route;               // site id -> column, -1 = off
  std::vector<std::uint32_t> site_of;   // column -> site id
  std::vector<AggOp> ops;               // per column (kMin or kMax)
  std::vector<Type> types;              // per column (kInt or kFloat)
  std::vector<std::uint64_t> identity;  // per column, as bits
  std::size_t num_vertices = 0;

  std::vector<RetractEntry> entries;    // [(v * C + c) * k + slot]
  std::vector<std::uint8_t> counts;     // [v * C + c]
  std::vector<std::uint64_t> bounds;    // [v * C + c]

  std::size_t columns() const { return ops.size(); }
  bool empty() const { return ops.empty(); }

  std::size_t cell_index(graph::VertexId v, int c) const {
    return static_cast<std::size_t>(v) * columns() +
           static_cast<std::size_t>(c);
  }

  /// Empties every cell (count 0, bound = identity). Single-threaded.
  void reset(std::size_t n);

  /// Appends empty cells for vertices [num_vertices, n).
  void grow(std::size_t n);

  /// Strict "a beats b" under column c's operator, with the
  /// (value, bits, sender) tiebreak chain described above.
  bool better(int c, const RetractEntry& a, const RetractEntry& b) const;

  /// Value-level strict comparison (no sender tiebreak): would a
  /// contribution with these bits beat the cell's bound?
  bool value_better(int c, std::uint64_t a, std::uint64_t b) const;

  enum class Applied : std::uint8_t {
    kUntouched,  // no behavioral change (duplicate, or stays outside)
    kImproved,   // entry inserted or strengthened — normal folds cover it
    kWorsened,   // entry removed or weakened — accumulator may need to rise
  };

  /// Applies one record (sender's new total; identity = removal).
  Applied apply(graph::VertexId dst, int c, std::uint32_t sender,
                std::uint64_t bits);

  enum class CellState : std::uint8_t { kExact, kUnderflow };

  /// Reads a cell's exact accumulator value, or reports underflow (all k
  /// survivors retracted — the caller must refold the in-neighborhood).
  CellState query(graph::VertexId dst, int c, std::uint64_t* acc) const;

  /// Rebuilds a cell from the complete current contribution list
  /// (identity-valued contributions are skipped — they are "absent").
  void rebuild(graph::VertexId dst, int c, const RetractEntry* contribs,
               std::size_t n);

 private:
  int find(const RetractEntry* cell, std::uint8_t count,
           std::uint32_t sender) const;
  int worst(int c, const RetractEntry* cell, std::uint8_t count) const;
};

/// The memo's counterpart of FoldRouter: the runner's sinks, which every
/// tier sends through, ask here before the fold path, so only they write
/// records. A min/max Δ is the sender's new total, so the payload's bits
/// are the record, and identity bits are the sender's removal.
struct MemoRecorder {
  RetractMemoTable* table = nullptr;  // null: nothing is memoized
  RetractLane* lane = nullptr;        // the caller's worker lane

  /// Writes one record per destination when `msg.site` is memo-routed.
  /// Returns true when the payload is the column's identity: a removal
  /// record only, which the caller must not deliver.
  bool record(std::span<const graph::VertexId> dsts, graph::VertexId sender,
              const DvMessage& msg) {
    if (table == nullptr) return false;
    const int col = table->route[msg.site];
    if (col < 0) return false;
    const auto c = static_cast<std::size_t>(col);
    const std::uint64_t bits = atomic_fold_bits(table->types[c], msg.payload);
    for (const graph::VertexId dst : dsts)
      lane->record(dst, static_cast<std::uint32_t>(sender), col, bits);
    return bits == table->identity[c];
  }
};

}  // namespace deltav::dv
