#include "dv/persist/graph_codec.h"

namespace deltav::dv::persist {

namespace {

void put_nested_u32(SnapshotWriter& w,
                    const std::vector<std::vector<graph::VertexId>>& vv) {
  w.put_u64(vv.size());
  for (const auto& v : vv) w.put_u32_vec(v);
}

void put_nested_f64(SnapshotWriter& w,
                    const std::vector<std::vector<double>>& vv) {
  w.put_u64(vv.size());
  for (const auto& v : vv) w.put_f64_vec(v);
}

std::vector<std::vector<graph::VertexId>> get_nested_u32(SnapshotReader& r) {
  const std::uint64_t n = r.get_u64();
  std::vector<std::vector<graph::VertexId>> vv;
  vv.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) vv.push_back(r.get_u32_vec());
  return vv;
}

std::vector<std::vector<double>> get_nested_f64(SnapshotReader& r) {
  const std::uint64_t n = r.get_u64();
  std::vector<std::vector<double>> vv;
  vv.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) vv.push_back(r.get_f64_vec());
  return vv;
}

void check(bool ok, const char* what) {
  if (!ok)
    throw SnapshotError(std::string("snapshot graph section is "
                                    "inconsistent: ") +
                        what);
}

}  // namespace

void GraphCodec::write_csr(const graph::CsrGraph& g, SnapshotWriter& w) {
  w.put_bool(g.directed_);
  w.put_u64_vec(g.out_offsets_);
  w.put_u32_vec(g.out_targets_);
  w.put_f64_vec(g.out_weights_);
  w.put_u64_vec(g.in_offsets_);
  w.put_u32_vec(g.in_targets_);
  w.put_f64_vec(g.in_weights_);
}

graph::CsrGraph GraphCodec::read_csr(SnapshotReader& r) {
  graph::CsrGraph g;
  g.directed_ = r.get_bool();
  g.out_offsets_ = r.get_u64_vec();
  g.out_targets_ = r.get_u32_vec();
  g.out_weights_ = r.get_f64_vec();
  g.in_offsets_ = r.get_u64_vec();
  g.in_targets_ = r.get_u32_vec();
  g.in_weights_ = r.get_f64_vec();

  const std::size_t n = g.num_vertices();
  check(g.out_offsets_.empty() ||
            (g.out_offsets_.front() == 0 &&
             g.out_offsets_.back() == g.out_targets_.size()),
        "out offsets do not cover the target array");
  check(g.out_weights_.empty() ||
            g.out_weights_.size() == g.out_targets_.size(),
        "out weights misaligned with targets");
  if (g.directed_) {
    check(g.in_offsets_.size() == g.out_offsets_.size() &&
              (g.in_offsets_.empty() ||
               g.in_offsets_.back() == g.in_targets_.size()),
          "in offsets do not cover the target array");
    check(g.in_weights_.empty() ||
              g.in_weights_.size() == g.in_targets_.size(),
          "in weights misaligned with targets");
  }
  for (const graph::VertexId t : g.out_targets_)
    check(t < n, "out target id out of range");
  for (const graph::VertexId t : g.in_targets_)
    check(t < n, "in target id out of range");
  return g;
}

void GraphCodec::write(const graph::DynamicGraph& g, SnapshotWriter& w) {
  w.begin_section(kSecGraph);
  write_csr(g.base_, w);
  w.put_u64(g.n_);
  w.put_u64(g.num_arcs_);
  w.put_i32_vec(g.out_slot_);
  w.put_i32_vec(g.in_slot_);
  put_nested_u32(w, g.out_targets_ov_);
  put_nested_f64(w, g.out_weights_ov_);
  put_nested_u32(w, g.in_targets_ov_);
  put_nested_f64(w, g.in_weights_ov_);
  w.end_section();
}

graph::DynamicGraph GraphCodec::read(SnapshotReader& r) {
  r.open(kSecGraph);
  graph::DynamicGraph g(read_csr(r));
  g.n_ = static_cast<std::size_t>(r.get_u64());
  g.num_arcs_ = r.get_u64();
  g.out_slot_ = r.get_i32_vec();
  g.in_slot_ = r.get_i32_vec();
  g.out_targets_ov_ = get_nested_u32(r);
  g.out_weights_ov_ = get_nested_f64(r);
  g.in_targets_ov_ = get_nested_u32(r);
  g.in_weights_ov_ = get_nested_f64(r);
  r.close();

  check(g.n_ >= g.base_.num_vertices(), "|V| shrank below the base CSR");
  check(g.out_slot_.size() == g.n_, "out slot table size mismatch");
  check(g.in_slot_.size() == (g.directed() ? g.n_ : 0),
        "in slot table size mismatch");
  check(g.out_weights_ov_.size() == g.out_targets_ov_.size() &&
            g.in_weights_ov_.size() == g.in_targets_ov_.size(),
        "overlay weight list count mismatch");
  const auto check_side =
      [&](const std::vector<std::int32_t>& slots,
          const std::vector<std::vector<graph::VertexId>>& targets,
          const std::vector<std::vector<double>>& weights) {
        for (const std::int32_t s : slots)
          check(s >= -1 && (s < 0 || static_cast<std::size_t>(s) <
                                         targets.size()),
                "overlay slot out of range");
        for (std::size_t i = 0; i < targets.size(); ++i) {
          check(!g.weighted() || weights[i].size() == targets[i].size(),
                "overlay weights misaligned with targets");
          for (const graph::VertexId t : targets[i])
            check(t < g.n_, "overlay target id out of range");
        }
      };
  check_side(g.out_slot_, g.out_targets_ov_, g.out_weights_ov_);
  check_side(g.in_slot_, g.in_targets_ov_, g.in_weights_ov_);
  g.recount_overlay();
  return g;
}

}  // namespace deltav::dv::persist
