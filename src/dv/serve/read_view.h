// Double-buffered view of the converged user fields, for serving reads.
//
// The serving contract (DESIGN.md §10): point and top-k reads are
// answered from the *last committed epoch's* converged state and never
// block on — or observe — the epoch in flight. The engine thread owns the
// live DvStreamSession; after every committed epoch it publishes the
// user-declared (`local`) fields here as an immutable snapshot behind a
// shared_ptr. Compiler-added fields (accumulators, sent bindings, ...)
// are not published. Readers grab the pointer under a mutex held only
// for the swap and then read lock-free on their own reference.
//
// Publishing is O(changed rows), not O(|V|): left-right double
// buffering. The view keeps two snapshots, the current one readers see
// and a spare, and each publish patches the spare and swaps the two.
//
// Invariant: the spare is the snapshot published two publishes ago. So
// rows that changed in the last two epochs — the previous publish's
// change set and this one's — are exactly the rows where the spare can
// differ from the live state. The spare is patched in place with those
// rows only when
//   - both change sets are exact (DvStreamSession::take_changed);
//   - |V| equals the spare's (vertices are never removed, so the
//     current snapshot has it too);
//   - no reader still holds the spare. A reader obtains only the current
//     snapshot, so once the spare stopped being current its reference
//     count can only fall: seeing it at 1 is stable.
// Otherwise the publish builds every row (a full build) into the spare
// when it is free, or into a fresh snapshot when a reader holds it; the
// reader keeps its own reference.
//
// Values read are therefore *stale-bounded*: at most one committed epoch
// behind the writer queue, never torn, never mid-convergence. A point
// read is one load from a flat row-major array.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dv/runtime/runner.h"

namespace deltav::dv::serve {

/// One published snapshot: the converged user fields of `epoch`.
/// `result.fields` holds the program's user fields only (so
/// `result.field_slot` and `result.at` index user fields); stats,
/// supersteps and iterations are left empty.
struct StateSnapshot {
  std::size_t epoch = 0;
  DvRunResult result;
};

/// Why a publish copied every row instead of patching changed ones.
enum class FullBuild {
  kNone,       // patched
  kFirst,      // a fresh host's first publish, and the next one
  kCold,       // a cold epoch (or warm abort) in the last two epochs
  kRestore,    // a restored host's first publish, and the next one
  kGrown,      // |V| grew since the spare was published
  kSpareHeld,  // a reader still holds the spare
};

struct PublishReport {
  FullBuild full = FullBuild::kNone;
  std::size_t rows_patched = 0;  // 0 on a full build
};

class ReadView {
 public:
  /// Engine thread: publish the state of `epoch` from the live session
  /// state. `changed` lists the rows whose user fields may differ from
  /// the previous publish; `inexact` is kNone when that list is exact,
  /// else why every row may differ (kFirst, kCold or kRestore).
  PublishReport publish(std::size_t epoch, const StateWindow& live,
                        std::span<const graph::VertexId> changed,
                        FullBuild inexact) {
    FullBuild why = inexact != FullBuild::kNone ? inexact : last_inexact_;
    const bool spare_free = spare_ != nullptr && sole_owner(spare_);
    if (why == FullBuild::kNone &&
        spare_->result.num_vertices != live.num_vertices)
      why = FullBuild::kGrown;
    if (why == FullBuild::kNone && !spare_free) why = FullBuild::kSpareHeld;

    PublishReport report;
    report.full = why;
    if (why == FullBuild::kNone) {
      for (const graph::VertexId v : last_changed_) copy_row(live, v, *spare_);
      for (const graph::VertexId v : changed) copy_row(live, v, *spare_);
      report.rows_patched = last_changed_.size() + changed.size();
    } else {
      if (!spare_free) spare_ = std::make_shared<StateSnapshot>();
      build(live, *spare_);
    }
    spare_->epoch = epoch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_.swap(spare_);
    }
    last_changed_.assign(changed.begin(), changed.end());
    last_inexact_ = inexact;
    return report;
  }

  /// Any thread: the most recently published snapshot (null before the
  /// initial convergence has been published).
  std::shared_ptr<const StateSnapshot> current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

 private:
  /// True when the engine thread holds the only reference to `p`. The
  /// copy's increment is an acquire-release RMW on the reference count,
  /// so it synchronizes with the last reader's release of its reference:
  /// that reader's reads happen before the patch writes that follow.
  /// ThreadSanitizer models this RMW; it does not model an acquire fence
  /// after use_count(), which it would report as a race.
  static bool sole_owner(const std::shared_ptr<StateSnapshot>& p) {
    const std::shared_ptr<StateSnapshot> probe = p;
    return probe.use_count() == 2;
  }

  void build(const StateWindow& live, StateSnapshot& into) {
    if (user_slots_.empty()) {
      for (std::size_t s = 0; s < live.fields->size(); ++s) {
        if ((*live.fields)[s].origin != Field::Origin::kUser) continue;
        user_slots_.push_back(s);
        user_fields_.push_back((*live.fields)[s]);
      }
    }
    DvRunResult& r = into.result;
    r.fields = user_fields_;
    r.num_vertices = live.num_vertices;
    r.state.resize(live.num_vertices * user_slots_.size());
    for (std::size_t v = 0; v < live.num_vertices; ++v)
      copy_row(live, static_cast<graph::VertexId>(v), into);
  }

  void copy_row(const StateWindow& live, graph::VertexId v,
                StateSnapshot& into) const {
    const Value* src = live.row(v);
    Value* dst = into.result.state.data() +
                 static_cast<std::size_t>(v) * user_slots_.size();
    for (const std::size_t s : user_slots_) *dst++ = src[s];
  }

  mutable std::mutex mu_;  // guards current_ (the swap and reader copies)
  std::shared_ptr<StateSnapshot> current_;
  // Engine thread only:
  std::shared_ptr<StateSnapshot> spare_;  // published two publishes ago
  std::vector<graph::VertexId> last_changed_;  // previous publish's set
  FullBuild last_inexact_ = FullBuild::kFirst;  // ...and its exactness
  std::vector<std::size_t> user_slots_;  // live slot of each user field
  std::vector<Field> user_fields_;
};

/// Top-k vertices of a snapshot by a field, descending by value (ties:
/// lower vertex id first, so results are deterministic). O(n log k).
inline std::vector<std::pair<graph::VertexId, double>> topk_field(
    const DvRunResult& r, const std::string& field, std::size_t k) {
  const int slot = r.field_slot(field);
  // Min-heap (w.r.t. rank) of the k best seen so far: with comp = better,
  // the heap root is the worst kept element, so a candidate enters iff it
  // beats the root.
  std::vector<std::pair<graph::VertexId, double>> heap;
  const auto better = [](const std::pair<graph::VertexId, double>& a,
                         const std::pair<graph::VertexId, double>& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  for (std::size_t v = 0; v < r.num_vertices; ++v) {
    const double val = r.at(static_cast<graph::VertexId>(v), slot).as_f();
    if (heap.size() < k) {
      heap.emplace_back(static_cast<graph::VertexId>(v), val);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (!heap.empty() && better({static_cast<graph::VertexId>(v), val},
                                       heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = {static_cast<graph::VertexId>(v), val};
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }
  // sort_heap orders ascending w.r.t. its comparator, and `better` plays
  // the role of operator< ("ranks earlier"), so this is already best-first.
  std::sort_heap(heap.begin(), heap.end(), better);
  return heap;
}

}  // namespace deltav::dv::serve
