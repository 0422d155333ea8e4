// Lock-free fold path for commutative-associative aggregations.
//
// When the incrementalize pass proves a site's ⊞ is exactly
// commutative-associative (integer +, min, max — and float + under the
// --atomic_float opt-in), Δ-sends skip message construction entirely:
// the sender folds the Δ-payload straight into a per-(vertex, site)
// pending slot with an atomic fetch-add (integer sum) or a CAS loop over
// the value's bit pattern (min/max, float sum), and marks the destination
// in its own lane's frontier bitmap. After the superstep's fork-join
// barrier the runner drains single-threaded: for every marked
// (vertex, site) it applies the pending contribution to the aggAccum
// field via the same apply_delta the buffered path uses, resets the slot
// to the identity, and wakes the vertex — replacing the exchange scan.
//
// The execution tiers never see this choice: they hand every Δ-send to
// the runner's sink, and the sink asks FoldRouter (below) — the only
// reader of AtomicFoldTable::route — whether the send folds here or goes
// to the engine as a message. Memo-routed min/max sites never get here:
// their retraction memo (streaming/retract/retract_memo.h) is their only
// fold path, so they have no column in this table.
//
// Correctness contract (DESIGN.md "Fold paths"):
//  * pending slots hold the ⊞-fold of every contribution since the last
//    drain, starting from the identity. For integer + that fold is a
//    wrapping fetch_add; for min/max a CAS publishes the winning bits.
//    Both are order-independent, so results are bit-identical to any
//    buffered delivery order.
//  * a NaN float payload never folds: CAS equality over NaN bits is not
//    the fold's ordering, so FoldRouter leaves that contribution to the
//    buffered path.
//  * the drain applies a marked slot UNCONDITIONALLY, even when it still
//    holds identity bits: the buffered path also delivers messages whose
//    combined payload equals the identity (e.g. −0.0 + 0.0), and folding
//    them yields +0.0 where skipping would keep −0.0. Wake sets match for
//    the same reason — a combined-to-identity message still wakes its
//    receiver.
//  * frontier words are per-lane and single-writer; the engine's join
//    barrier publishes them to the draining thread, so the words
//    themselves need no atomics.
//  * relaxed ordering everywhere: slots are independent accumulators and
//    the fork-join barrier provides the inter-thread ordering.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "dv/runtime/message.h"
#include "dv/runtime/value.h"
#include "graph/csr_graph.h"

namespace deltav::dv {

/// How the runner chooses between the buffered message path and the
/// lock-free fold path, per aggregation site.
enum class FoldPath : std::uint8_t {
  kAuto,      // atomic wherever the pass proved eligibility (default)
  kBuffered,  // always buffer — the general fallback, and the oracle
};

inline std::uint64_t atomic_fold_bits(Type t, const Value& v) {
  std::uint64_t bits = 0;
  if (t == Type::kFloat) {
    const double f = v.as_f();
    std::memcpy(&bits, &f, sizeof(bits));
  } else {
    const std::int64_t i = v.as_i();
    std::memcpy(&bits, &i, sizeof(bits));
  }
  return bits;
}

inline Value atomic_fold_value(Type t, std::uint64_t bits) {
  if (t == Type::kFloat) {
    double f;
    std::memcpy(&f, &bits, sizeof(f));
    return Value::of_float(f);
  }
  std::int64_t i;
  std::memcpy(&i, &bits, sizeof(i));
  return Value::of_int(i);
}

/// Pending-slot table: one std::atomic<uint64_t> per (vertex, routed
/// site), identity-initialized, owned by the runner and shared by every
/// worker lane. `route[site]` maps a site id to its column in the table
/// (-1 = site stays buffered). Rows are vertex-outermost, and the slot
/// array keeps spare rows so growth appends instead of rebuilding.
struct AtomicFoldTable {
  std::vector<std::atomic<std::uint64_t>> slots;  // capacity rows
  std::vector<int> route;        // site id -> column, -1 = buffered
  std::vector<AggOp> ops;        // per column
  std::vector<Type> types;       // per column
  std::vector<std::uint64_t> identity;  // per column, as bits
  std::size_t num_vertices = 0;

  std::size_t columns() const { return ops.size(); }
  bool empty() const { return ops.empty(); }

  std::size_t slot_index(graph::VertexId v, int column) const {
    return static_cast<std::size_t>(v) * columns() +
           static_cast<std::size_t>(column);
  }

  /// (Re)initializes every slot to its column's identity, with no spare
  /// rows. Single-threaded; called at construction.
  void reset(std::size_t n) {
    std::vector<std::atomic<std::uint64_t>>(n * columns()).swap(slots);
    num_vertices = 0;
    grow(n);
  }

  /// Extends the table to `n` vertices, identity-filling only the new
  /// rows. Past the capacity the slot array doubles, so a stream of
  /// one-vertex growth batches costs O(1) amortized per vertex.
  /// Single-threaded, between supersteps.
  void grow(std::size_t n) {
    if (n <= num_vertices) return;
    const std::size_t C = columns();
    if (n * C > slots.size()) {
      std::vector<std::atomic<std::uint64_t>> fresh(
          std::max(n, 2 * (C ? slots.size() / C : 0)) * C);
      for (std::size_t i = 0; i < num_vertices * C; ++i)
        fresh[i].store(slots[i].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      slots.swap(fresh);
    }
    for (std::size_t v = num_vertices; v < n; ++v)
      for (std::size_t c = 0; c < C; ++c)
        slots[v * C + c].store(identity[c], std::memory_order_relaxed);
    num_vertices = n;
  }

  /// True when `payload` can fold into `column` atomically: everything
  /// but a NaN float, whose CAS equality over bits is not the fold's
  /// ordering.
  bool foldable(int column, const Value& payload) const {
    return types[static_cast<std::size_t>(column)] != Type::kFloat ||
           !std::isnan(payload.as_f());
  }

  /// Folds one foldable Δ-contribution into (dst, column). Integer sum is
  /// a single wrapping fetch_add; everything else is a CAS loop publishing
  /// agg_apply(cur, payload)'s bits.
  void fold(graph::VertexId dst, int column, const Value& payload) {
    const AggOp op = ops[static_cast<std::size_t>(column)];
    const Type t = types[static_cast<std::size_t>(column)];
    std::atomic<std::uint64_t>& slot = slots[slot_index(dst, column)];
    if (op == AggOp::kSum && t == Type::kInt) {
      slot.fetch_add(static_cast<std::uint64_t>(payload.as_i()),
                     std::memory_order_relaxed);
      return;
    }
    const Value contrib = payload.coerce(t);
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    for (;;) {
      const Value folded =
          agg_apply(op, t, atomic_fold_value(t, cur), contrib);
      const std::uint64_t want = atomic_fold_bits(t, folded);
      if (want == cur) return;  // contribution cannot win — done
      if (slot.compare_exchange_weak(cur, want, std::memory_order_relaxed,
                                     std::memory_order_relaxed))
        return;
    }
  }

  /// Drains one marked slot: swaps the identity back in and returns the
  /// accumulated contribution. Single-threaded (post-barrier), but the
  /// exchange keeps it correct even if a future caller overlaps.
  Value take(graph::VertexId dst, int column) {
    std::atomic<std::uint64_t>& slot = slots[slot_index(dst, column)];
    const std::uint64_t bits = slot.exchange(
        identity[static_cast<std::size_t>(column)],
        std::memory_order_relaxed);
    return atomic_fold_value(types[static_cast<std::size_t>(column)], bits);
  }
};

/// Per-worker-lane frontier bitmap plus fold counter. Single-writer: only
/// the owning lane marks bits during a superstep; the runner ORs all lanes
/// together in the post-barrier drain (for_each_marked below).
///
/// The frontier has two levels so a drain costs O(|V|/4096 + marked
/// words) rather than a sweep of every word: `summary` holds one bit per
/// frontier word, set by mark() alongside the vertex bit. Aligned to a
/// cache line because every fold bumps `folds`; lanes packed back to back
/// in the runner's vector would false-share across workers.
struct alignas(64) AtomicFoldLane {
  /// words[column * words_per_column + (v >> 6)], bit (v & 63).
  std::vector<std::uint64_t> words;
  /// summary[i >> 6], bit (i & 63): words[i] may be nonzero.
  std::vector<std::uint64_t> summary;
  std::size_t words_per_column = 0;
  std::uint64_t folds = 0;  // contributions folded by this lane

  void reset(std::size_t n, std::size_t columns) {
    words_per_column = (n + 63) / 64;
    words.assign(words_per_column * columns, 0);
    summary.assign((words.size() + 63) / 64, 0);
    folds = 0;
  }

  /// Widens the frontier to cover `n` vertices. Between supersteps every
  /// mark and fold count has been drained, so a wider bitmap is simply a
  /// fresh one; it doubles, so one-vertex growth batches rarely rebuild it.
  void grow(std::size_t n, std::size_t columns) {
    if ((n + 63) / 64 <= words_per_column) return;
    reset(std::max(n, 2 * 64 * words_per_column), columns);
  }

  void mark(graph::VertexId v, int column) {
    const std::size_t i =
        static_cast<std::size_t>(column) * words_per_column +
        (static_cast<std::size_t>(v) >> 6);
    words[i] |= std::uint64_t{1} << (static_cast<std::size_t>(v) & 63);
    summary[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
};
static_assert(alignof(AtomicFoldLane) == 64 && sizeof(AtomicFoldLane) % 64 == 0,
              "fold lanes must not share a cache line");

/// Visits every (column, vertex) marked in any of `lanes` once, in
/// ascending (column, vertex) order, and clears the marks as it goes:
/// fn(column, v). Walks the ORed summary bits, so only marked words are
/// read. All lanes must have been reset to the same shape. Single-threaded
/// (post-barrier).
template <typename Fn>
void for_each_marked(std::span<AtomicFoldLane> lanes, Fn&& fn) {
  if (lanes.empty()) return;
  const std::size_t wpc = lanes.front().words_per_column;
  const std::size_t summary_words = lanes.front().summary.size();
  for (std::size_t si = 0; si < summary_words; ++si) {
    std::uint64_t dirty = 0;
    for (AtomicFoldLane& lane : lanes) {
      dirty |= lane.summary[si];
      lane.summary[si] = 0;
    }
    while (dirty) {
      const std::size_t i =
          si * 64 + static_cast<std::size_t>(std::countr_zero(dirty));
      dirty &= dirty - 1;
      std::uint64_t word = 0;
      for (AtomicFoldLane& lane : lanes) {
        word |= lane.words[i];
        lane.words[i] = 0;
      }
      const int column = static_cast<int>(i / wpc);
      const std::size_t base = (i % wpc) * 64;
      while (word) {
        const auto v = static_cast<graph::VertexId>(
            base + static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
        fn(column, v);
      }
    }
  }
}

/// Decides, per Δ-send, between the two fold paths: a routed site's
/// foldable payload folds into the shared pending slots and marks the
/// caller's lane; everything else — unrouted sites, NaN payloads, and any
/// send while no table is bound — is left for the caller to deliver as a
/// message. The runner's engine sink, which every tier sends through, and
/// its epoch-start direct apply both ask here, so the route is read in
/// one place.
struct FoldRouter {
  AtomicFoldTable* table = nullptr;  // null: every site buffers
  AtomicFoldLane* lane = nullptr;    // the caller's worker lane

  /// `site`'s pending-slot column; -1 when the site buffers.
  int column(int site) const {
    return table ? table->route[static_cast<std::size_t>(site)] : -1;
  }

  /// Folds `msg`, whose site's column is `col`, into every destination's
  /// pending slot and returns true, or folds nothing and returns false
  /// when the whole span must be buffered. Foldability depends on the
  /// payload alone, so one span is never split between the paths.
  bool fold(int col, std::span<const graph::VertexId> dsts,
            const DvMessage& msg) {
    if (col < 0 || !table->foldable(col, msg.payload)) return false;
    for (const graph::VertexId dst : dsts) {
      table->fold(dst, col, msg.payload);
      lane->mark(dst, col);
    }
    lane->folds += dsts.size();
    return true;
  }
};

}  // namespace deltav::dv
