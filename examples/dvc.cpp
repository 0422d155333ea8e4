// dvc — the ΔV compiler driver.
//
// Compile a .dv file (or one of the built-in programs), inspect the
// compiler's output, and optionally run it over a generated dataset or an
// edge-list file:
//
//   dvc --program=pagerank --emit=ast            # transformed program
//   dvc --file=my.dv --emit=layout               # Table-2-style state size
//   dvc --program=pagerank --emit=native         # native-tier C++ unit
//   dvc --program=sssp --run --dataset=wikipedia-s --scale=0.01 ...
//       --param=source=0
//   dvc --file=my.dv --variant=dvstar --run --edges=graph.el --directed
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/args.h"
#include "dv/codegen/native_emit.h"
#include "dv/compiler.h"
#include "dv/obs/report.h"
#include "dv/programs/programs.h"
#include "dv/runtime/runner.h"
#include "dv/runtime/vm.h"
#include "graph/datasets.h"
#include "graph/edge_list_io.h"

namespace {

using namespace deltav;

const char* builtin_source(const std::string& name) {
  if (name == "pagerank") return dv::programs::kPageRank;
  if (name == "pagerank-ug") return dv::programs::kPageRankUndirected;
  if (name == "sssp") return dv::programs::kSssp;
  if (name == "sssp_retract") return dv::programs::kSsspRetract;
  if (name == "cc") return dv::programs::kConnectedComponents;
  if (name == "hits") return dv::programs::kHits;
  if (name == "reachability") return dv::programs::kReachability;
  if (name == "maxgossip") return dv::programs::kMaxGossip;
  if (name == "bfs") return dv::programs::kBfs;
  if (name == "kcore") return dv::programs::kKCore;
  if (name == "mis") return dv::programs::kMis;
  if (name == "pointerjump") return dv::programs::kPointerJump;
  DV_FAIL("unknown built-in program '"
          << name
          << "' (try pagerank, pagerank-ug, sssp, sssp_retract, cc, hits, "
             "reachability, maxgossip, bfs, kcore, mis, pointerjump)");
}

/// Parses repeated --param=name=value bindings (int or float literals).
std::map<std::string, dv::Value> parse_params(const std::string& spec) {
  std::map<std::string, dv::Value> params;
  std::istringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    DV_CHECK_MSG(eq != std::string::npos,
                 "--param expects name=value, got '" << item << "'");
    const std::string name = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (value.find('.') != std::string::npos) {
      params[name] = dv::Value::of_float(std::stod(value));
    } else {
      params[name] = dv::Value::of_int(std::stoll(value));
    }
  }
  return params;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    const std::string program =
        args.get_string("program", "", "built-in program name");
    const std::string file = args.get_string("file", "", "path to .dv file");
    const std::string variant = args.get_string(
        "variant", "dv", "dv (incrementalized) | dvstar | naive");
    const std::string emit = args.get_string(
        "emit", "summary",
        "summary | ast | layout | sites | warnings | bytecode | native");
    const double epsilon =
        args.get_double("epsilon", 0.0, "ϵ-slop (requires variant=dv)");
    const bool do_run = args.get_bool("run", false, "execute the program");
    const std::string dataset =
        args.get_string("dataset", "", "built-in dataset to run on");
    const double scale = args.get_double("scale", 0.05, "dataset scale");
    const std::string edges =
        args.get_string("edges", "", "edge-list file to run on");
    const bool directed =
        args.get_bool("directed", true, "edge-list direction");
    const bool weighted =
        args.get_bool("weighted", false, "edge-list has weights");
    const std::string param_spec = args.get_string(
        "param", "", "program parameters, e.g. source=0,steps=29");
    const int workers =
        static_cast<int>(args.get_int("workers", 4, "worker threads"));
    const std::string tier = args.get_string(
        "tier", "vm", "execution tier for --run: vm | tree | native");
    obs::ReportOptions obs_opts;
    obs_opts.metrics_path = args.get_string(
        "metrics", "", "write a metrics JSON document here after --run");
    obs_opts.trace_path = args.get_string(
        "trace", "", "write a span trace here (chrome://tracing / Perfetto)");
    obs_opts.trace_format = args.get_string(
        "trace_format", "chrome", "trace file format: chrome or jsonl");
    if (args.help_requested()) {
      std::cout << args.help();
      return 0;
    }
    args.check_unused();

    // --- source ---
    std::string source;
    if (!file.empty()) {
      std::ifstream in(file);
      DV_CHECK_MSG(in.good(), "cannot open " << file);
      std::ostringstream buf;
      buf << in.rdbuf();
      source = buf.str();
    } else if (!program.empty()) {
      source = builtin_source(program);
    } else {
      std::cerr << "dvc: pass --program=<name> or --file=<path> "
                   "(--help for usage)\n";
      return 2;
    }

    // --- compile ---
    dv::CompileOptions copts;
    if (variant == "dv") {
      copts.incrementalize = true;
    } else if (variant == "dvstar") {
      copts.incrementalize = false;
    } else if (variant == "naive") {
      copts.incrementalize = false;
      copts.naive_sends = true;
    } else {
      DV_FAIL("unknown --variant '" << variant << "'");
    }
    copts.epsilon = epsilon;
    const auto cp = dv::compile(source, copts);

    for (const auto& w : cp.diagnostics.warnings())
      std::cerr << "dvc: " << w << "\n";

    if (emit == "native") {
      const dv::native::NativeUnit unit = dv::native::emit_native_unit(cp);
      DV_CHECK_MSG(unit.unsupported.empty(),
                   "no native unit: " << unit.unsupported);
      std::cout << unit.source;
    } else if (emit == "bytecode") {
      std::cout << dv::to_string(dv::lower_program(cp));
    } else if (emit == "ast") {
      std::cout << cp.dump();
    } else if (emit == "layout") {
      std::cout << cp.layout.summary() << "\n";
    } else if (emit == "sites") {
      for (const auto& s : cp.program.sites)
        std::cout << "site " << s.id << ": " << dv::agg_op_name(s.op)
                  << " over " << dv::graph_dir_name(s.pull_dir) << " ["
                  << dv::type_name(s.elem_type) << "]"
                  << (s.multiplicative() ? " multiplicative" : "") << "\n";
    } else if (emit == "summary" || emit == "warnings") {
      std::cout << "variant " << variant << ": " << cp.num_sites()
                << " aggregation site(s), state " << cp.state_bytes()
                << " B, " << cp.program.stmts.size() << " statement(s)\n";
    } else {
      DV_FAIL("unknown --emit '" << emit << "'");
    }

    // --- run ---
    if (do_run) {
      graph::CsrGraph g;
      if (!edges.empty()) {
        g = graph::read_edge_list_file(
            edges, {.directed = directed, .weighted = weighted});
      } else if (!dataset.empty()) {
        g = graph::make_dataset(dataset, scale, weighted);
      } else {
        DV_FAIL("--run needs --dataset or --edges");
      }
      std::cout << "graph: " << g.summary() << "\n";
      // Inert when neither --metrics nor --trace was passed; otherwise
      // installs a collector for the duration of the run.
      obs::ObsSession obs(obs_opts);
      dv::DvRunOptions ropts;
      ropts.engine.num_workers = workers;
      ropts.tier = dv::parse_exec_tier(tier);
      ropts.params = parse_params(param_spec);
      ropts.collector = obs.collector();
      const auto result = dv::run_program(cp, g, ropts);
      std::cout << "done: " << result.stats.summary() << "\n";
      std::cout << "tier: " << dv::exec_tier_name(result.tier_used);
      if (!result.native_fallback.empty())
        std::cout << " (native fallback: " << result.native_fallback << ")";
      std::cout << "\n";
      if (obs.enabled()) obs.flush();
      for (const auto& f : result.fields) {
        if (f.origin != dv::Field::Origin::kUser) continue;
        // Print a small sample of each user field.
        std::cout << "  " << f.name << " =";
        const int slot = result.field_slot(f.name);
        for (graph::VertexId v = 0;
             v < std::min<std::size_t>(5, result.num_vertices); ++v) {
          const auto& val = result.at(v, slot);
          std::cout << " ";
          switch (val.type) {
            case dv::Type::kFloat: std::cout << val.as_f(); break;
            case dv::Type::kBool:
              std::cout << (val.as_b() ? "true" : "false");
              break;
            default: std::cout << val.as_i(); break;
          }
        }
        std::cout << " ...\n";
      }
    }
    return 0;
  } catch (const deltav::dv::CompileError& e) {
    std::cerr << "dvc: compile error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "dvc: " << e.what() << "\n";
    return 1;
  }
}
