// Property tests for Δ-message synthesis: Eq. 11 (x ⊞ m′ ≃ (x ⊞ m) ⊞
// ∆_m(m′)) must hold over arbitrary update streams for every operator,
// including absorbing-element transitions, and the combiner must be
// commutative/associative-compatible with delta application.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "dv/runtime/delta.h"
#include "dv/runtime/message.h"

namespace deltav::dv {
namespace {

/// Simulates one receiver accumulator fed by `senders` independent value
/// streams, comparing the incremental path (synthesize/apply) against
/// recomputing the fold from scratch each round.
struct Harness {
  AggOp op;
  Type type;
  Value acc, nn, nulls;

  explicit Harness(AggOp o, Type t) : op(o), type(t) {
    acc = agg_identity(op, type);
    nn = agg_identity(op, type);
    nulls = Value::of_int(0);
  }

  AccumRef ref() {
    AccumRef r;
    r.acc = &acc;
    r.nn = &nn;
    r.nulls = &nulls;
    return r;
  }

  void first(const Value& v) {
    const DeltaPayload d = synthesize_first(op, type, v);
    if (!d.noop) apply_delta(op, type, ref(), d.value, d.nulls, d.denulls);
  }

  void update(const Value& old_v, const Value& new_v) {
    const DeltaPayload d = synthesize_delta(op, type, old_v, new_v);
    if (!d.noop) apply_delta(op, type, ref(), d.value, d.nulls, d.denulls);
  }
};

Value full_fold(AggOp op, Type t, const std::vector<Value>& vals) {
  Value acc = agg_identity(op, t);
  for (const Value& v : vals) acc = agg_apply(op, t, acc, v);
  return acc;
}

// ----------------------------------------------------------- exact cases

TEST(Delta, SumBasics) {
  const auto d = synthesize_delta(AggOp::kSum, Type::kFloat,
                                  Value::of_float(0.001),
                                  Value::of_float(0.02));
  EXPECT_FALSE(d.noop);
  EXPECT_NEAR(d.value.as_f(), 0.019, 1e-12);  // the paper's §3.3 example
}

TEST(Delta, SumNoChangeIsNoop) {
  const auto d = synthesize_delta(AggOp::kSum, Type::kFloat,
                                  Value::of_float(5), Value::of_float(5));
  EXPECT_TRUE(d.noop);
}

TEST(Delta, ProdPlainRatio) {
  const auto d = synthesize_delta(AggOp::kProd, Type::kFloat,
                                  Value::of_float(4), Value::of_float(8));
  EXPECT_DOUBLE_EQ(d.value.as_f(), 2.0);
  EXPECT_EQ(d.nulls, 0);
  EXPECT_EQ(d.denulls, 0);
}

TEST(Delta, ProdIntoZeroCarriesInverse) {
  const auto d = synthesize_delta(AggOp::kProd, Type::kFloat,
                                  Value::of_float(4), Value::of_float(0));
  EXPECT_DOUBLE_EQ(d.value.as_f(), 0.25);  // removes the old factor
  EXPECT_EQ(d.nulls, 1);
}

TEST(Delta, ProdOutOfZeroCarriesFullValue) {
  const auto d = synthesize_delta(AggOp::kProd, Type::kFloat,
                                  Value::of_float(0), Value::of_float(6));
  EXPECT_DOUBLE_EQ(d.value.as_f(), 6.0);  // the paper's tag(m′)
  EXPECT_EQ(d.denulls, 1);
}

TEST(Delta, MinMaxResendFullValue) {
  const auto d = synthesize_delta(AggOp::kMin, Type::kFloat,
                                  Value::of_float(9), Value::of_float(3));
  EXPECT_DOUBLE_EQ(d.value.as_f(), 3.0);
  const auto x = synthesize_delta(AggOp::kMax, Type::kInt,
                                  Value::of_int(2), Value::of_int(7));
  EXPECT_EQ(x.value.as_i(), 7);
}

TEST(Delta, BoolTransitionsOnly) {
  // true → false for &&: entering the absorbing state.
  auto d = synthesize_delta(AggOp::kAnd, Type::kBool, Value::of_bool(true),
                            Value::of_bool(false));
  EXPECT_EQ(d.nulls, 1);
  d = synthesize_delta(AggOp::kAnd, Type::kBool, Value::of_bool(false),
                       Value::of_bool(true));
  EXPECT_EQ(d.denulls, 1);
  // No change → noop.
  d = synthesize_delta(AggOp::kOr, Type::kBool, Value::of_bool(true),
                       Value::of_bool(true));
  EXPECT_TRUE(d.noop);
}

TEST(Delta, FirstSendOfAbsorbingValueIsTagged) {
  const auto d =
      synthesize_first(AggOp::kProd, Type::kFloat, Value::of_float(0));
  EXPECT_EQ(d.nulls, 1);
  EXPECT_DOUBLE_EQ(d.value.as_f(), 1.0);  // identity payload
  const auto b =
      synthesize_first(AggOp::kAnd, Type::kBool, Value::of_bool(false));
  EXPECT_EQ(b.nulls, 1);
}

TEST(Delta, FirstSendOfIdentityIsNoop) {
  EXPECT_TRUE(synthesize_first(AggOp::kSum, Type::kFloat,
                               Value::of_float(0)).noop);
  EXPECT_TRUE(synthesize_first(AggOp::kMin, Type::kFloat,
                               agg_identity(AggOp::kMin, Type::kFloat))
                  .noop);
  EXPECT_TRUE(synthesize_first(AggOp::kAnd, Type::kBool,
                               Value::of_bool(true)).noop);
}

// --------------------------------------------- Eq. 11 over random streams

// gtest names each case after the raw bytes of its parameter, so the
// struct has no implicit padding: the bytes between the flags and the
// double are a zeroed member rather than whatever the stack held, which
// keeps the test names the same from one build to the next.
struct StreamCase {
  StreamCase(AggOp o, Type t, bool mono, double zp)
      : op(o), type(t), monotone_decreasing(mono), zero_prob(zp) {}

  AggOp op;
  Type type;
  bool monotone_decreasing;  // for min (idempotent exactness condition)
  std::uint8_t zeroed[5] = {};
  double zero_prob;          // chance a value is the absorbing element
};
static_assert(sizeof(StreamCase) == 16, "StreamCase must have no padding");

class DeltaStreamTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(DeltaStreamTest, IncrementalMatchesFullRecomputation) {
  const auto& c = GetParam();
  Rng rng(0xD117A + static_cast<std::uint64_t>(c.op));
  const int senders = 8, rounds = 40;

  Harness h(c.op, c.type);
  std::vector<Value> current(senders);

  auto fresh = [&](int round, const Value* prev) -> Value {
    switch (c.type) {
      case Type::kBool: {
        const Value abs = agg_absorbing(c.op, Type::kBool);
        return rng.next_bool(c.zero_prob) ? abs
                                          : Value::of_bool(!abs.as_b());
      }
      case Type::kInt: {
        if (c.monotone_decreasing && prev)
          return Value::of_int(prev->as_i() - 1 -
                               static_cast<std::int64_t>(rng.next_below(3)));
        return Value::of_int(static_cast<std::int64_t>(rng.next_below(100)) -
                             (c.op == AggOp::kMax ? 0 : 0));
      }
      default: {
        if (c.monotone_decreasing && prev)
          return Value::of_float(prev->as_f() - rng.next_double(0.0, 2.0) -
                                 0.01);
        if (rng.next_bool(c.zero_prob)) return Value::of_float(0.0);
        return Value::of_float(rng.next_double(0.5, 4.0));
      }
    }
    (void)round;
    return Value{};
  };

  // Round 0: first sends.
  for (int s = 0; s < senders; ++s) {
    current[s] = c.monotone_decreasing
                     ? Value::of_float(rng.next_double(50.0, 100.0))
                     : fresh(0, nullptr);
    h.first(current[s]);
  }
  EXPECT_TRUE(h.acc.equals(full_fold(c.op, c.type, current)))
      << "round 0 mismatch";

  for (int round = 1; round <= rounds; ++round) {
    for (int s = 0; s < senders; ++s) {
      if (rng.next_bool(0.5)) continue;  // sender unchanged: no message
      const Value next = fresh(round, &current[s]);
      if (next.equals(current[s])) continue;  // meaningful-only policy
      h.update(current[s], next);
      current[s] = next;
    }
    const Value expect = full_fold(c.op, c.type, current);
    if (c.type == Type::kFloat) {
      EXPECT_NEAR(h.acc.as_f(), expect.as_f(),
                  1e-6 * std::max(1.0, std::abs(expect.as_f())))
          << "round " << round;
    } else {
      EXPECT_TRUE(h.acc.equals(expect))
          << "round " << round << ": got "
          << (c.type == Type::kBool ? (h.acc.as_b() ? 1.0 : 0.0)
                                    : h.acc.as_f());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Operators, DeltaStreamTest,
    ::testing::Values(
        StreamCase{AggOp::kSum, Type::kFloat, false, 0.1},
        StreamCase{AggOp::kSum, Type::kInt, false, 0.0},
        StreamCase{AggOp::kProd, Type::kFloat, false, 0.0},
        StreamCase{AggOp::kProd, Type::kFloat, false, 0.3},  // zeros!
        StreamCase{AggOp::kMin, Type::kFloat, true, 0.0},
        StreamCase{AggOp::kAnd, Type::kBool, false, 0.4},
        StreamCase{AggOp::kOr, Type::kBool, false, 0.4}));

// ----------------------------------------------------------- combiner laws

TEST(DvCombiner, CombinedDeltasFoldLikeSequentialDeltas) {
  SiteOpTable table;
  table.ops = {AggOp::kSum};
  table.types = {Type::kFloat};
  DvCombiner combiner{&table};

  DvMessage a, b;
  a.payload = Value::of_float(0.5);
  b.payload = Value::of_float(-0.2);

  // Sequential application.
  Harness h1(AggOp::kSum, Type::kFloat);
  apply_delta(AggOp::kSum, Type::kFloat, h1.ref(), a.payload, 0, 0);
  apply_delta(AggOp::kSum, Type::kFloat, h1.ref(), b.payload, 0, 0);

  // Combined application.
  DvMessage acc = a;
  combiner(acc, b);
  Harness h2(AggOp::kSum, Type::kFloat);
  apply_delta(AggOp::kSum, Type::kFloat, h2.ref(), acc.payload, acc.nulls,
              acc.denulls);

  EXPECT_NEAR(h1.acc.as_f(), h2.acc.as_f(), 1e-12);
}

TEST(DvCombiner, MultiplicativeCountersAddUnderCombining) {
  SiteOpTable table;
  table.ops = {AggOp::kProd};
  table.types = {Type::kFloat};
  DvCombiner combiner{&table};

  DvMessage to_zero;  // a sender entering zero
  to_zero.payload = Value::of_float(0.25);
  to_zero.nulls = 1;
  DvMessage from_zero;  // another sender leaving zero
  from_zero.payload = Value::of_float(6.0);
  from_zero.denulls = 1;

  DvMessage acc = to_zero;
  combiner(acc, from_zero);
  EXPECT_EQ(acc.nulls, 1);
  EXPECT_EQ(acc.denulls, 1);
  EXPECT_DOUBLE_EQ(acc.payload.as_f(), 1.5);
}

TEST(DvCombiner, KeySeparatesSites) {
  SiteOpTable table;
  table.ops = {AggOp::kSum, AggOp::kSum};
  table.types = {Type::kFloat, Type::kFloat};
  DvCombiner combiner{&table};
  DvMessage m0, m1;
  m0.site = 0;
  m1.site = 1;
  EXPECT_NE(combiner.key(7, m0), combiner.key(7, m1));
  EXPECT_NE(combiner.key(7, m0), combiner.key(8, m0));
}

TEST(DvCombiner, CommutativityAndAssociativityOverRandomMessages) {
  SiteOpTable table;
  table.ops = {AggOp::kSum, AggOp::kProd, AggOp::kMin};
  table.types = {Type::kFloat, Type::kFloat, Type::kFloat};
  DvCombiner combiner{&table};
  Rng rng(404);
  for (int site = 0; site < 3; ++site) {
    for (int trial = 0; trial < 200; ++trial) {
      DvMessage x, y, z;
      for (DvMessage* m : {&x, &y, &z}) {
        m->site = static_cast<std::uint8_t>(site);
        m->payload = Value::of_float(rng.next_double(0.1, 2.0));
        m->nulls = static_cast<std::int32_t>(rng.next_below(2));
        m->denulls = static_cast<std::int32_t>(rng.next_below(2));
      }
      // Commutativity: x⊕y == y⊕x.
      DvMessage xy = x, yx = y;
      combiner(xy, y);
      combiner(yx, x);
      EXPECT_NEAR(xy.payload.as_f(), yx.payload.as_f(), 1e-12);
      EXPECT_EQ(xy.nulls, yx.nulls);
      // Associativity: (x⊕y)⊕z == x⊕(y⊕z).
      DvMessage xy_z = xy;
      combiner(xy_z, z);
      DvMessage yz = y;
      combiner(yz, z);
      DvMessage x_yz = x;
      combiner(x_yz, yz);
      EXPECT_NEAR(xy_z.payload.as_f(), x_yz.payload.as_f(), 1e-9);
      EXPECT_EQ(xy_z.denulls, x_yz.denulls);
    }
  }
}

}  // namespace
}  // namespace deltav::dv
