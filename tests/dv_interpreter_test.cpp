// Expression-level tests of the ΔV interpreter: literals, operators,
// scoping, vertex context, message folds, send loops, and misuse guards.
#include <gtest/gtest.h>

#include <cmath>

#include "dv/compiler.h"
#include "dv/lexer.h"
#include "dv/parser.h"
#include "dv/runtime/interpreter.h"
#include "graph/generators.h"

namespace deltav::dv {
namespace {

/// Compiles `expr_src` into a one-statement program whose body assigns the
/// expression to a float/int/bool field `out`, then evaluates that body for
/// vertex 0 of a 4-cycle and returns the field value.
class ExprFixture {
 public:
  explicit ExprFixture(const std::string& out_type,
                       const std::string& expr_src,
                       const std::string& extra_fields = "")
      : graph_(graph::cycle(4)) {
    const std::string src = "init { local out : " + out_type + " = " +
                            (out_type == "bool" ? "false" : "0") + extra_fields +
                            " };"
                            "step { out = " +
                            expr_src + " }";
    Diagnostics diags;
    prog_ = parse_and_check(src, diags);
    fields_.resize(prog_.fields.size());
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      switch (prog_.fields[i].type) {
        case Type::kBool: fields_[i] = Value::of_bool(false); break;
        case Type::kFloat: fields_[i] = Value::of_float(0); break;
        default: fields_[i] = Value::of_int(0); break;
      }
    }
    scratch_.resize(prog_.scratch.size() + 8, Value::of_int(0));
  }

  Value run() {
    EvalContext ctx;
    ctx.prog = &prog_;
    ctx.graph = &gview_;
    ctx.fields = fields_;
    ctx.scratch = scratch_;
    ctx.has_vertex = true;
    ctx.vertex = 0;
    ctx.iter = 3;
    eval(*prog_.stmts[0].body, ctx);
    return fields_[0];
  }

  graph::CsrGraph graph_;
  graph::GraphView gview_{graph_};
  Program prog_;
  std::vector<Value> fields_;
  std::vector<Value> scratch_;
};

double eval_f(const std::string& e, const std::string& extra = "") {
  return ExprFixture("float", e, extra).run().as_f();
}
std::int64_t eval_i(const std::string& e) {
  return ExprFixture("int", e).run().as_i();
}
bool eval_b(const std::string& e) {
  return ExprFixture("bool", e).run().as_b();
}

TEST(Interp, Arithmetic) {
  EXPECT_EQ(eval_i("1 + 2 * 3"), 7);
  EXPECT_EQ(eval_i("10 - 4 - 3"), 3);  // left assoc
  EXPECT_DOUBLE_EQ(eval_f("7 / 2"), 3.5);  // '/' is float
  EXPECT_EQ(eval_i("-5 + 2"), -3);
  EXPECT_DOUBLE_EQ(eval_f("2.5 * 4"), 10.0);
}

TEST(Interp, DivisionByZeroIsIeee) {
  EXPECT_TRUE(std::isinf(eval_f("1 / 0")));
  EXPECT_TRUE(std::isnan(eval_f("0 / 0")));
}

TEST(Interp, Comparisons) {
  EXPECT_TRUE(eval_b("1 < 2"));
  EXPECT_TRUE(eval_b("2.5 >= 2.5"));
  EXPECT_FALSE(eval_b("3 == 4"));
  EXPECT_TRUE(eval_b("3 != 4"));
  EXPECT_TRUE(eval_b("2 == 2.0"));  // numeric unification
}

TEST(Interp, BooleanShortCircuit) {
  // RHS would divide by zero into a comparison that still works (inf > 0),
  // so use field assignment visibility instead: short-circuit means the
  // second operand of a false && is never evaluated. We can observe this
  // because an || of true short-circuits past a nan comparison.
  EXPECT_TRUE(eval_b("true || (0 / 0) > 0"));
  EXPECT_FALSE(eval_b("false && (0 / 0) > 0"));
  EXPECT_TRUE(eval_b("not false"));
}

TEST(Interp, MinMaxPairOps) {
  EXPECT_EQ(eval_i("min(3, 7)"), 3);
  EXPECT_EQ(eval_i("max(3, 7)"), 7);
  EXPECT_DOUBLE_EQ(eval_f("min(2.5, 2)"), 2.0);
}

TEST(Interp, IfThenElseValue) {
  EXPECT_EQ(eval_i("if 1 < 2 then 10 else 20"), 10);
  EXPECT_EQ(eval_i("if 1 > 2 then 10 else 20"), 20);
  EXPECT_DOUBLE_EQ(eval_f("if vertexId == 0 then 0 else infty"), 0.0);
}

TEST(Interp, LetScoping) {
  // Parenthesized so the let sits in expression position.
  EXPECT_EQ(eval_i("(let x : int = 4 in let y : int = x + 1 in x * y)"),
            20);
  // Shadowing: inner binding wins.
  EXPECT_EQ(eval_i("(let x : int = 1 in let x : int = 2 in x)"), 2);
}

TEST(Interp, GraphBuiltins) {
  EXPECT_EQ(eval_i("graphSize"), 4);    // 4-cycle
  EXPECT_EQ(eval_i("vertexId"), 0);
  EXPECT_EQ(eval_i("|#neighbors|"), 2);  // cycle degree
  EXPECT_TRUE(std::isinf(eval_f("infty")));
}

TEST(Interp, IterVariable) {
  // Fixture sets ctx.iter = 3.
  ExprFixture f("int", "0");
  Diagnostics diags;
  f.prog_ = parse_and_check(
      "init { local out : int = 0 };"
      "iter k { out = k * 2 } until { k >= 5 }",
      diags);
  f.fields_.assign(f.prog_.fields.size(), Value::of_int(0));
  f.scratch_.assign(f.prog_.scratch.size() + 4, Value::of_int(0));
  EXPECT_EQ(f.run().as_i(), 6);
}

TEST(Interp, SequencesReturnLast) {
  EXPECT_EQ(eval_i("(1; 2; 3)"), 3);
}

TEST(Interp, AssignmentCoerces) {
  EXPECT_DOUBLE_EQ(eval_f("3"), 3.0);  // int literal into float field
}

TEST(Interp, FieldReadsOutsideVertexContextRejected) {
  ExprFixture f("float", "1.0");
  EvalContext ctx;
  ctx.prog = &f.prog_;
  ctx.graph = &f.gview_;
  ctx.has_vertex = false;  // global context
  ctx.scratch = f.scratch_;
  EXPECT_THROW(eval(*f.prog_.stmts[0].body, ctx), CheckError);
}

TEST(Interp, UnconvertedAggregationIsCompilerBug) {
  ExprFixture f("float", "+ [ u.out | u <- #neighbors ]");
  EXPECT_THROW(f.run(), CheckError);
}

// ------------------------------ message folds and send loops in isolation

class RecordingSink : public SendSink {
 public:
  struct Sent {
    graph::VertexId dst;
    DvMessage msg;
  };
  std::uint64_t send(graph::VertexId dst, const DvMessage& msg) override {
    sent.push_back({dst, msg});
    return 1;
  }
  std::vector<Sent> sent;
};

TEST(Interp, FoldMessagesNonIncremental) {
  // Compile a ΔV* program so the body contains a non-incremental fold.
  auto cp = compile(
      "init { local a : float = 1.0; local b : float = 0.0 };"
      "iter i { b = + [ u.a | u <- #in ]; a = b } until { i >= 2 }",
      CompileOptions{.incrementalize = false});
  const auto g = graph::cycle(4, /*directed=*/true);
  const graph::GraphView gv{g};
  std::vector<Value> fields = {Value::of_float(1), Value::of_float(0)};
  std::vector<Value> scratch(cp.num_scratch() + 4, Value::of_int(0));
  for (std::size_t i = 0; i < cp.program.scratch.size(); ++i)
    if (cp.program.scratch[i].type == Type::kBool)
      scratch[i] = Value::of_bool(false);

  std::vector<DvMessage> msgs(3);
  for (int i = 0; i < 3; ++i)
    msgs[static_cast<std::size_t>(i)].payload =
        Value::of_float(1.5 * (i + 1));
  RecordingSink sink;
  std::vector<std::uint8_t> wires = {8};

  EvalContext ctx;
  ctx.prog = &cp.program;
  ctx.graph = &gv;
  ctx.fields = fields;
  ctx.scratch = scratch;
  ctx.msgs = msgs;
  ctx.has_vertex = true;
  ctx.vertex = 0;
  ctx.sink = &sink;
  ctx.site_wire = &wires;
  eval(*cp.program.stmts[0].body, ctx);
  EXPECT_DOUBLE_EQ(fields[1].as_f(), 1.5 + 3.0 + 4.5);
  // b was assigned → a was assigned → sends fired along out-edges.
  ASSERT_EQ(sink.sent.size(), 1u);  // directed cycle: one out-neighbor
  EXPECT_EQ(sink.sent[0].dst, 1u);
  EXPECT_EQ(sink.sent[0].msg.wire, 8);
}

TEST(Interp, SendLoopSuppressionMask) {
  auto cp = compile(
      "init { local a : float = 1.0; local b : float = 0.0 };"
      "iter i { b = + [ u.a | u <- #in ]; a = b + 1.0 } until { i >= 2 }",
      CompileOptions{.incrementalize = false});
  const auto g = graph::cycle(4, true);
  const graph::GraphView gv{g};
  std::vector<Value> fields = {Value::of_float(1), Value::of_float(0)};
  std::vector<Value> scratch(cp.num_scratch() + 4, Value::of_bool(false));
  RecordingSink sink;
  std::vector<std::uint8_t> wires = {8};
  EvalContext ctx;
  ctx.prog = &cp.program;
  ctx.graph = &gv;
  ctx.fields = fields;
  ctx.scratch = scratch;
  ctx.has_vertex = true;
  ctx.vertex = 0;
  ctx.sink = &sink;
  ctx.site_wire = &wires;
  ctx.suppress_sites = 1;  // suppress site 0
  eval(*cp.program.stmts[0].body, ctx);
  EXPECT_TRUE(sink.sent.empty());
}

TEST(Interp, HaltSetsFlag) {
  auto cp = compile(
      "init { local a : float = 1.0 };"
      "iter i { a = + [ u.a | u <- #in ] } until { i >= 2 }",
      CompileOptions{});
  const auto g = graph::cycle(4, true);
  const graph::GraphView gv{g};
  std::vector<Value> fields(cp.num_fields(), Value::of_float(0));
  std::vector<Value> scratch(cp.num_scratch() + 4, Value::of_bool(false));
  RecordingSink sink;
  std::vector<std::uint8_t> wires = {8};
  EvalContext ctx;
  ctx.prog = &cp.program;
  ctx.graph = &gv;
  ctx.fields = fields;
  ctx.scratch = scratch;
  ctx.has_vertex = true;
  ctx.vertex = 0;
  ctx.sink = &sink;
  ctx.site_wire = &wires;
  EXPECT_FALSE(ctx.halt_requested);
  eval(*cp.program.stmts[0].body, ctx);
  EXPECT_TRUE(ctx.halt_requested);  // §6.6 halt at body end
}

TEST(Interp, StableReadsContext) {
  Diagnostics diags;
  auto prog = parse_and_check(
      "init { local a : int = 0 }; iter i { a = 1 } until { stable }",
      diags);
  EvalContext ctx;
  ctx.prog = &prog;
  std::vector<Value> scratch(4, Value::of_int(0));
  ctx.scratch = scratch;
  ctx.stable = true;
  EXPECT_TRUE(eval(*prog.stmts[0].until, ctx).as_b());
  ctx.stable = false;
  EXPECT_FALSE(eval(*prog.stmts[0].until, ctx).as_b());
}

}  // namespace
}  // namespace deltav::dv
