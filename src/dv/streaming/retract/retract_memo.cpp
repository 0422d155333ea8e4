#include "dv/streaming/retract/retract_memo.h"

#include <algorithm>
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
  if (cursor_.size() < cells) cursor_.resize(cells, 0);
  const auto cell_of = [columns](const RetractRecord& r) {
    return static_cast<std::size_t>(r.dst) * columns + r.col;
  };
  // Count each cell's records, noting every cell on its first record.
  cells_.clear();
  std::size_t total = 0;
  for (const RetractLane& lane : lanes) {
    total += lane.records.size();
    for (const RetractRecord& r : lane.records) {
      std::uint32_t& c = cursor_[cell_of(r)];
      if (c++ == 0) cells_.push_back(cell_of(r));
    }
  }
  if (total == 0) return;
  // Cell index order is (dst, col) order. Turn counts into bucket starts.
  std::sort(cells_.begin(), cells_.end());
  std::uint32_t start = 0;
  for (const std::uint64_t cell : cells_) {
    const std::uint32_t count = cursor_[cell];
    cursor_[cell] = start;
    start += count;
  }
  // Scatter in arrival order; each cursor ends at its bucket's end.
  out.resize(total);
  for (RetractLane& lane : lanes) {
    for (const RetractRecord& r : lane.records) out[cursor_[cell_of(r)]++] = r;
    lane.records.clear();
  }
  // Order each bucket by sender, stably (arrival breaks ties), and zero
  // its cursor for the next gather.
  const auto by_sender = [](const RetractRecord& a, const RetractRecord& b) {
    return a.sender < b.sender;
  };
  std::size_t begin = 0;
  for (const std::uint64_t cell : cells_) {
    const std::size_t end = cursor_[cell];
    cursor_[cell] = 0;
    std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(begin),
                     out.begin() + static_cast<std::ptrdiff_t>(end), by_sender);
    begin = end;
  }
}

}  // namespace deltav::dv
