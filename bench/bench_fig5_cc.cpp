// F5 — Figure 5: Connected Components execution time on the Facebook and
// LiveJournal-UG stand-ins.
//
// Paper's reported shape: CC is "pre-incrementalized", so ΔV and ΔV* send
// exactly the same number of messages (the message chart was elided for
// this reason) and ΔV shows no improvement — but crucially, no regression.
// Integer min takes the atomic fold path, which folds contributions in
// place instead of sending them, so the check compares msgs + folds.
//
// Like bench_fig4, the --tiers axis runs the compiled programs on both ΔV
// execution substrates (bytecode VM vs reference tree interpreter) and
// --json writes machine-readable rows.
#include <iostream>

#include "algorithms/connected_components.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace deltav;
  Args args(argc, argv);
  const double scale =
      args.get_double("scale", 0.2, "dataset scale factor (1.0 = full)");
  const int workers =
      static_cast<int>(args.get_int("workers", 4, "engine worker threads"));
  const int reps = static_cast<int>(
      args.get_int("reps", 3, "repetitions averaged (paper: 3)"));
  const std::string tiers_flag = args.get_string(
      "tiers", "vm,tree", "ΔV execution tiers to run (vm, tree, or both)");
  const std::string json_path = args.get_string(
      "json", "", "write machine-readable rows to this path");
  if (args.help_requested()) {
    std::cout << args.help();
    return 0;
  }
  args.check_unused();
  const std::vector<dv::ExecTier> tiers = bench::parse_tiers(tiers_flag);

  bench::banner("Connected Components",
                "Figure 5 (Facebook & LiveJournal-UG, ΔV vs ΔV* vs "
                "Pregel+)");

  Table t = bench::make_metrics_table();
  bench::JsonReport json;
  json.set_path(json_path);
  bool msgs_equal = true;
  for (const char* ds : {"facebook-s", "livejournal-ug-s"}) {
    const auto g = graph::make_dataset(ds, scale);

    const auto full = dv::compile(dv::programs::kConnectedComponents, {});
    const auto star =
        dv::compile(dv::programs::kConnectedComponents,
                    dv::CompileOptions{.incrementalize = false});
    for (const dv::ExecTier tier : tiers) {
      const auto m_full = bench::averaged(
          reps, [&] { return bench::run_dv(full, g, {}, workers, tier); });
      const auto m_star = bench::averaged(
          reps, [&] { return bench::run_dv(star, g, {}, workers, tier); });
      const char* tn = dv::exec_tier_name(tier);
      bench::add_row(t, ds, "CC", "DV", m_full, tn);
      bench::add_row(t, ds, "CC", "DV*", m_star, tn);
      json.add(ds, "CC", "DV", tn, m_full);
      json.add(ds, "CC", "DV*", tn, m_star);
      msgs_equal =
          msgs_equal && m_full.contributions() == m_star.contributions();
      if (tier == dv::ExecTier::kVm) {
        algorithms::CcOptions copt;
        copt.engine = bench::paper_engine(workers);
        Timer timer;
        const auto hand = algorithms::connected_components_pregel(g, copt);
        const auto m_hand =
            bench::from_stats(hand.stats, timer.elapsed_seconds());
        bench::add_row(t, ds, "CC", "Pregel+", m_hand, "-");
        json.add(ds, "CC", "Pregel+", "-", m_hand);
        msgs_equal =
            msgs_equal && m_full.contributions() == m_hand.contributions();
      }
    }
  }
  t.print(std::cout);
  std::cout << "\nShape check (paper footnote 14): all three systems sent "
            << (msgs_equal ? "the EXACT same" : "*** DIFFERENT ***")
            << " number of messages (msgs + folds).\n"
            << "Scale=" << scale << ".\n";
  json.write("fig5_cc");
  return msgs_equal ? 0 : 1;
}
