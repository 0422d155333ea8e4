// C ABI between the host runtime and an AOT-compiled ΔV program (the
// native execution tier, DESIGN.md "Execution tiers").
//
// The emitted translation unit is hermetic — it includes nothing from this
// repository — so the declarations below are written once, as the
// DVN_ABI_DECLS macro: the host compiles it here, and native_emit.cpp
// pastes its stringified text (kDvnAbiDecls) into every emitted unit.
// Layout is pinned on both sides:
//
//   host side     static_asserts in this header prove DvnValue/DvnMsg are
//                 layout-identical to dv::Value / dv::DvMessage, so spans
//                 of runtime state cross the boundary as raw pointers;
//   emitted side  the generated unit re-asserts the same sizes/offsets, so
//                 a compiler that would disagree about layout refuses to
//                 build the object instead of corrupting state.
//
// Version discipline: any change to these structs, to the chunk-function
// signature or numbering, or to the vtable must bump kDvnAbiVersion. The
// loader rejects objects with a different version (they fall back to the
// VM with a named reason) — a stale cached .so can never execute against a
// new host.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dv/obs/metrics.h"
#include "dv/runtime/message.h"
#include "dv/runtime/value.h"
#include "graph/csr_graph.h"

namespace deltav::dv::native {

/// v2: send/send_span return how many contributions the host sink
/// buffered as messages (the rest it folded lock-free), and the fold-path
/// route and atomic-fold callback are gone — the host sink alone decides
/// the fold path, so emitted code only ever sends.
/// v3: DvnCtx gains `record_sites`: Δ loops also send those sites'
/// no-ops, which the host sink records as retraction-memo removals.
/// v4: the unit is emitted from the program's bytecode — function i runs
/// chunk i of lower_program(cp), so the vtable holds one function per
/// chunk (sub-chunks included) instead of one per runner root.
inline constexpr std::uint32_t kDvnAbiVersion = 4;

// Comments inside the macro are /* */ so they survive line splicing.
#define DVN_ABI_DECLS                                                       \
  /* Mirror of dv::Value: 1-byte type tag, 8-byte-aligned scalar union.     \
     Tag values are baked into emitted code (int=0, bool=1, float=2). */    \
  struct DvnValue {                                                         \
    std::uint8_t tag;                                                       \
    union { std::int64_t i; double f; bool b; } u;                          \
  };                                                                        \
  /* Mirror of dv::DvMessage. */                                            \
  struct DvnMsg {                                                           \
    DvnValue payload;                                                       \
    std::int32_t nulls;                                                     \
    std::int32_t denulls;                                                   \
    std::uint8_t site;                                                      \
    std::uint8_t wire;                                                      \
  };                                                                        \
  /* Everything one chunk-function call can touch: plain pointers into the  \
     runner's EvalContext spans plus host callbacks for the graph, the send \
     sink and metrics. `host` is an opaque pointer to the EvalContext;      \
     callbacks live in native_module.cpp and all take `host` first. */      \
  struct DvnCtx {                                                           \
    /* Per-vertex views (null/0 for global until evaluation). */            \
    DvnValue* fields;                                                       \
    DvnValue* scratch;                                                      \
    const DvnMsg* msgs;                                                     \
    std::uint64_t num_msgs;                                                 \
    std::uint32_t vertex;                                                   \
    std::uint8_t has_vertex;                                                \
    /* Program-wide bindings. */                                            \
    const DvnValue* params;                                                 \
    std::int64_t iter;                                                      \
    std::uint8_t stable;                                                    \
    std::uint64_t suppress_sites;                                           \
    std::uint64_t record_sites;                                             \
    std::uint64_t graph_size;                                               \
    double cur_edge_weight;                                                 \
    /* Out-flags (set-only, mirroring EvalContext semantics). */            \
    std::uint8_t halt_requested;                                            \
    std::uint8_t any_field_assign;                                          \
    /* Send/site tables. */                                                 \
    const std::uint8_t* site_wire;                                          \
    std::uint8_t has_obs;                                                   \
    void* host;                                                             \
    /* Stored-arc span for this vertex: dir_in selects in- vs out-arcs.     \
       `*n_wts` is 0 on unweighted graphs. */                               \
    void (*arcs)(void* host, std::uint8_t dir_in,                           \
                 const std::uint32_t** nbrs, const double** wts,            \
                 std::uint64_t* n_nbrs, std::uint64_t* n_wts);              \
    std::uint64_t (*degree)(void* host, std::uint8_t dir_in);               \
    /* SendSink::send / send_span: each returns how many contributions     \
       were buffered as messages (the sink may fold the rest lock-free). */ \
    std::uint64_t (*send)(void* host, std::uint32_t dst, const DvnMsg* msg);  \
    std::uint64_t (*send_span)(void* host, const std::uint32_t* dsts,       \
                               std::uint64_t n, const DvnMsg* msg);         \
    /* MetricsShard::add by counter-enum value. Only called when has_obs. */ \
    void (*obs_add)(void* host, std::uint32_t counter, std::uint64_t n);    \
  };                                                                        \
  /* The obs::Counter ids emitted code reports (pinned below). */          \
  enum : std::uint32_t {                                                    \
    kObsSendsSuppressed = 0, kObsDeltaMessages = 1, kObsFullMessages = 2,   \
    kObsLastStepSendsSuppressed = 3, kObsMemoHits = 4,                      \
    kObsMemoRecomputes = 5, kObsAbsorbingSlowPath = 6                       \
  };                                                                        \
  /* Runs bytecode chunk i against `ctx` and writes its result (tag +       \
     scalar; unit chunks return int 0) to `ret`. */                         \
  typedef void (*DvnChunkFn)(DvnCtx* ctx, DvnValue* ret);                   \
  struct DvnVTable {                                                        \
    std::uint32_t abi_version;                                              \
    std::uint32_t num_chunks;                                               \
    /* Digest of the emitted source, checked against the cache key. */      \
    const char* source_digest;                                              \
    const DvnChunkFn* chunks;                                               \
  };

extern "C" {
DVN_ABI_DECLS
}  // extern "C"

#define DVN_STRINGIFY_(...) #__VA_ARGS__
#define DVN_STRINGIFY(...) DVN_STRINGIFY_(__VA_ARGS__)
/// DVN_ABI_DECLS as source text, for the emitted unit.
inline constexpr const char* kDvnAbiDecls = DVN_STRINGIFY(DVN_ABI_DECLS);

/// The single exported entry point of an emitted object.
inline constexpr const char* kDvnEntrySymbol = "dv_native_vtable";
typedef const DvnVTable* (*DvnEntryFn)();

// ---- Layout pins: the raw-pointer crossings below are only legal while
// these hold. A platform where they fail cannot build the repo (and the
// native tier would need a marshalling layer).
static_assert(sizeof(Value) == 16 && sizeof(DvnValue) == 16);
static_assert(offsetof(DvnValue, tag) == 0 && offsetof(DvnValue, u) == 8);
static_assert(offsetof(Value, i) == 8 && offsetof(Value, f) == 8);
static_assert(static_cast<int>(Type::kInt) == 0 &&
              static_cast<int>(Type::kBool) == 1 &&
              static_cast<int>(Type::kFloat) == 2);
static_assert(sizeof(DvMessage) == 32 && sizeof(DvnMsg) == 32);
static_assert(offsetof(DvMessage, payload) == offsetof(DvnMsg, payload));
static_assert(offsetof(DvMessage, nulls) == offsetof(DvnMsg, nulls) &&
              offsetof(DvnMsg, nulls) == 16);
static_assert(offsetof(DvMessage, denulls) == offsetof(DvnMsg, denulls) &&
              offsetof(DvnMsg, denulls) == 20);
static_assert(offsetof(DvMessage, site) == offsetof(DvnMsg, site) &&
              offsetof(DvnMsg, site) == 24);
static_assert(offsetof(DvMessage, wire) == offsetof(DvnMsg, wire) &&
              offsetof(DvnMsg, wire) == 25);
static_assert(sizeof(graph::VertexId) == 4);
#define DVN_PIN_COUNTER(name)                             \
  static_assert(kObs##name ==                             \
                static_cast<std::uint32_t>(obs::Counter::k##name));
DVN_PIN_COUNTER(SendsSuppressed)
DVN_PIN_COUNTER(DeltaMessages)
DVN_PIN_COUNTER(FullMessages)
DVN_PIN_COUNTER(LastStepSendsSuppressed)
DVN_PIN_COUNTER(MemoHits)
DVN_PIN_COUNTER(MemoRecomputes)
DVN_PIN_COUNTER(AbsorbingSlowPath)
#undef DVN_PIN_COUNTER

}  // namespace deltav::dv::native
