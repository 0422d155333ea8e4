// A3 — §6.6 / §9 ablation: halt-by-default.
//
// Halt insertion (§6.6): vertices halt every superstep and wake only on
// messages, which reduces how many vertices *compute*. The engine always
// takes runnable vertices from per-worker queues fed by message delivery
// (the §9 scheduler), so with halts on a superstep touches only its
// frontier instead of scanning every vertex.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace deltav;
  Args args(argc, argv);
  const double scale = args.get_double("scale", 0.05, "dataset scale");
  const int workers =
      static_cast<int>(args.get_int("workers", 4, "engine worker threads"));
  if (args.help_requested()) {
    std::cout << args.help();
    return 0;
  }
  args.check_unused();

  bench::banner("Halt-by-default & scheduling ablation", "§6.6 and §9");

  const auto g = graph::make_dataset("wikipedia-s", scale);
  const std::map<std::string, dv::Value> params = {
      {"steps", dv::Value::of_int(29)}};

  Table t({"variant", "active-vertex computes", "msgs", "wall(s)",
           "sim(s)"});

  for (const bool halts : {false, true}) {
    dv::CompileOptions copts;
    copts.insert_halts = halts;
    const auto cp = dv::compile(dv::programs::kPageRank, copts);
    dv::DvRunOptions o;
    o.engine = bench::paper_engine(workers);
    o.params = params;
    Timer timer;
    const auto r = dv::run_program(cp, g, o);
    const double wall = timer.elapsed_seconds();
    std::uint64_t active = 0;
    for (const auto& s : r.stats.supersteps) active += s.active_vertices;
    t.row()
        .cell(halts ? "ΔV halts" : "ΔV no-halts")
        .cell(static_cast<unsigned long long>(active))
        .cell(static_cast<unsigned long long>(
            r.stats.total_messages_sent()))
        .cell(wall, 3)
        .cell(r.stats.total_sim_seconds(), 3);
  }
  t.print(std::cout);
  std::cout <<
      "\nShape check: halts cut active-vertex computes once ranks start\n"
      "converging (messages are identical across variants).\n";
  return 0;
}
