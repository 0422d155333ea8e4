#include "dv/streaming/retract/retract_memo.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace deltav::dv {
namespace {

double bits_to_f(std::uint64_t bits) {
  double f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

std::int64_t bits_to_i(std::uint64_t bits) {
  std::int64_t i;
  std::memcpy(&i, &bits, sizeof(i));
  return i;
}

/// -1 / 0 / +1 value-level comparison under the column's order, where
/// "negative" means a ranks strictly better than b. NaN ranks worst.
int value_rank(AggOp op, Type t, std::uint64_t a, std::uint64_t b) {
  if (t == Type::kFloat) {
    const double av = bits_to_f(a);
    const double bv = bits_to_f(b);
    const bool an = std::isnan(av);
    const bool bn = std::isnan(bv);
    if (an || bn) {
      if (an == bn) return 0;
      return an ? 1 : -1;
    }
    if (av == bv) return 0;
    const bool a_wins = op == AggOp::kMin ? av < bv : av > bv;
    return a_wins ? -1 : 1;
  }
  const std::int64_t av = bits_to_i(a);
  const std::int64_t bv = bits_to_i(b);
  if (av == bv) return 0;
  const bool a_wins = op == AggOp::kMin ? av < bv : av > bv;
  return a_wins ? -1 : 1;
}

}  // namespace

void RetractMemoTable::reset(std::size_t n) {
  num_vertices = n;
  const std::size_t cells = n * columns();
  entries.assign(cells * k, RetractEntry{});
  counts.assign(cells, 0);
  bounds.resize(cells);
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t c = 0; c < columns(); ++c)
      bounds[v * columns() + c] = identity[c];
}

void RetractMemoTable::grow(std::size_t n) {
  DV_CHECK(n >= num_vertices);
  const std::size_t cells = n * columns();
  entries.resize(cells * k, RetractEntry{});
  counts.resize(cells, 0);
  bounds.resize(cells);
  for (std::size_t v = num_vertices; v < n; ++v)
    for (std::size_t c = 0; c < columns(); ++c)
      bounds[v * columns() + c] = identity[c];
  num_vertices = n;
}

bool RetractMemoTable::better(int c, const RetractEntry& a,
                              const RetractEntry& b) const {
  const std::size_t ci = static_cast<std::size_t>(c);
  const int r = value_rank(ops[ci], types[ci], a.bits, b.bits);
  if (r != 0) return r < 0;
  if (a.bits != b.bits) return a.bits < b.bits;
  return a.sender < b.sender;
}

bool RetractMemoTable::value_better(int c, std::uint64_t a,
                                    std::uint64_t b) const {
  const std::size_t ci = static_cast<std::size_t>(c);
  return value_rank(ops[ci], types[ci], a, b) < 0;
}

int RetractMemoTable::find(const RetractEntry* cell, std::uint8_t count,
                           std::uint32_t sender) const {
  for (int i = 0; i < static_cast<int>(count); ++i)
    if (cell[i].sender == sender) return i;
  return -1;
}

int RetractMemoTable::worst(int c, const RetractEntry* cell,
                            std::uint8_t count) const {
  int w = 0;
  for (int i = 1; i < static_cast<int>(count); ++i)
    if (better(c, cell[w], cell[i])) w = i;
  return w;
}

RetractMemoTable::Applied RetractMemoTable::apply(graph::VertexId dst, int c,
                                                  std::uint32_t sender,
                                                  std::uint64_t bits) {
  const std::size_t cell = cell_index(dst, c);
  RetractEntry* e = &entries[cell * k];
  std::uint8_t& count = counts[cell];
  std::uint64_t& bound = bounds[cell];
  const std::uint64_t id = identity[static_cast<std::size_t>(c)];
  const int idx = find(e, count, sender);

  if (bits == id) {  // sender no longer contributes
    if (idx < 0) return Applied::kUntouched;
    e[idx] = e[count - 1];
    e[count - 1] = RetractEntry{};
    --count;
    return Applied::kWorsened;
  }

  // A value is "outside" when it cannot beat the bound — unless the
  // buffer is exhaustive (bound at identity), where everything is inside.
  const bool outside = bound != id && !value_better(c, bits, bound);

  if (idx >= 0) {  // keyed update of a buffered sender
    if (e[idx].bits == bits) return Applied::kUntouched;
    const RetractEntry nw{sender, bits};
    const bool worsened = better(c, e[idx], nw);
    if (outside) {  // weakened past the bound: forget it (still ≥ bound)
      e[idx] = e[count - 1];
      e[count - 1] = RetractEntry{};
      --count;
    } else {
      e[idx].bits = bits;
    }
    return worsened ? Applied::kWorsened : Applied::kImproved;
  }

  if (outside) return Applied::kUntouched;  // absent and staying absent

  if (count < k) {
    e[count++] = RetractEntry{sender, bits};
    return Applied::kImproved;
  }

  // Full buffer: tournament against the worst entry.
  const int w = worst(c, e, count);
  const RetractEntry nw{sender, bits};
  if (better(c, nw, e[w])) {
    bound = e[w].bits;  // the evicted value becomes the new bound
    e[w] = nw;
    return Applied::kImproved;
  }
  // The newcomer loses: it becomes absent, so the bound must cover it.
  if (value_better(c, bits, bound)) bound = bits;
  return Applied::kUntouched;
}

RetractMemoTable::CellState RetractMemoTable::query(graph::VertexId dst, int c,
                                                    std::uint64_t* acc) const {
  const std::size_t cell = cell_index(dst, c);
  const RetractEntry* e = &entries[cell * k];
  const std::uint8_t count = counts[cell];
  if (count > 0) {
    int b = 0;
    for (int i = 1; i < static_cast<int>(count); ++i)
      if (better(c, e[i], e[b])) b = i;
    *acc = e[b].bits;
    return CellState::kExact;
  }
  if (bounds[cell] == identity[static_cast<std::size_t>(c)]) {
    *acc = identity[static_cast<std::size_t>(c)];
    return CellState::kExact;
  }
  return CellState::kUnderflow;
}

void RetractMemoTable::rebuild(graph::VertexId dst, int c,
                               const RetractEntry* contribs, std::size_t n) {
  const std::size_t cell = cell_index(dst, c);
  RetractEntry* e = &entries[cell * k];
  std::uint8_t& count = counts[cell];
  const std::uint64_t id = identity[static_cast<std::size_t>(c)];
  count = 0;
  for (std::size_t i = 0; i < k; ++i) e[i] = RetractEntry{};
  bool evicted = false;
  std::uint64_t worst_kept = id;
  for (std::size_t i = 0; i < n; ++i) {
    if (contribs[i].bits == id) continue;  // absent contribution
    if (count < k) {
      e[count++] = contribs[i];
      continue;
    }
    const int w = worst(c, e, count);
    if (better(c, contribs[i], e[w])) {
      e[w] = contribs[i];
    }
    evicted = true;
  }
  if (evicted) {
    worst_kept = e[worst(c, e, count)].bits;
  }
  bounds[cell] = evicted ? worst_kept : id;
}

void RetractDrainOrder::gather(std::span<RetractLane> lanes,
                               std::size_t columns, std::size_t cells,
                               std::vector<RetractRecord>& out) {
  out.clear();
  if (cursor_.size() < cells) {
    cursor_.resize(cells, 0);
    words_.resize((cells + 63) / 64, 0);
    summary_.resize((words_.size() + 63) / 64, 0);
  }
  const auto cell_of = [columns](const RetractRecord& r) {
    return static_cast<std::size_t>(r.dst) * columns + r.col;
  };
  // Count each cell's records, marking every cell on its first record.
  std::size_t total = 0;
  for (const RetractLane& lane : lanes) {
    total += lane.records.size();
    for (const RetractRecord& r : lane.records) {
      const std::size_t cell = cell_of(r);
      if (cursor_[cell]++ != 0) continue;
      words_[cell >> 6] |= std::uint64_t{1} << (cell & 63);
      summary_[cell >> 12] |= std::uint64_t{1} << ((cell >> 6) & 63);
    }
  }
  if (total == 0) return;
  // Cell index order is (dst, col) order: walk the marked cells in it,
  // turning counts into bucket starts and clearing the marks.
  std::uint32_t start = 0;
  for (std::size_t si = 0; si < summary_.size(); ++si) {
    std::uint64_t dirty = summary_[si];
    summary_[si] = 0;
    while (dirty) {
      const std::size_t wi =
          si * 64 + static_cast<std::size_t>(std::countr_zero(dirty));
      dirty &= dirty - 1;
      std::uint64_t word = words_[wi];
      words_[wi] = 0;
      while (word) {
        const std::size_t cell =
            wi * 64 + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        const std::uint32_t count = cursor_[cell];
        cursor_[cell] = start;
        start += count;
      }
    }
  }
  // Scatter in arrival order; each cursor ends at its bucket's end.
  out.resize(total);
  for (RetractLane& lane : lanes) {
    for (const RetractRecord& r : lane.records) out[cursor_[cell_of(r)]++] = r;
    lane.records.clear();
  }
  // Buckets are contiguous runs of one cell: order each by sender and zero
  // its cursor for the next gather.
  std::size_t begin = 0;
  while (begin < total) {
    const std::size_t cell = cell_of(out[begin]);
    const std::size_t end = cursor_[cell];
    cursor_[cell] = 0;
    order_bucket(out.data() + begin, out.data() + end);
    begin = end;
  }
}

void RetractDrainOrder::order_bucket(RetractRecord* first,
                                     RetractRecord* last) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n <= kInsertionMax) {
    // Stable: a record only moves past strictly larger senders.
    for (RetractRecord* i = first + 1; i < last; ++i) {
      const RetractRecord r = *i;
      RetractRecord* j = i;
      for (; j > first && (j - 1)->sender > r.sender; --j) *j = *(j - 1);
      *j = r;
    }
    return;
  }
  // Arrival breaks sender ties, so an unstable sort of the keys is exact.
  keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    keys_[i] = std::uint64_t{first[i].sender} << 32 | i;
  std::sort(keys_.begin(), keys_.end());
  spill_.assign(first, last);
  for (std::size_t i = 0; i < n; ++i)
    first[i] = spill_[static_cast<std::uint32_t>(keys_[i])];
}

}  // namespace deltav::dv
