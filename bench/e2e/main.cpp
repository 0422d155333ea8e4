// bench_e2e — the deltav end-to-end benchmark (bench/e2e/README.md).
//
//   bench_e2e [--seed=1] [--seconds=10] [--json=out.json]
//       runs every workload twice, untraced and traced (at half the
//       seconds), each run in a fresh child process (so peak_rss_mb is
//       per workload), and prints every end-to-end and per-layer metric;
//   bench_e2e --workload=W [--seed=N] [--seconds=15] [--trace=0|1|DIR]
//       runs one workload in this process. --trace=1 (or a directory)
//       makes it the traced per-layer run, writing W.trace.json and
//       W.layers.json to --workdir (or DIR);
//   bench_e2e --smoke
//       every workload at tiny sizes, untraced and traced: checks and
//       output schema only, no timing assertions.
//
// The last stdout line of a one-workload run is the result object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// holding the end-to-end metrics (untraced) or the per-layer metrics
// (traced) that workloads.h lists. Exit status: 0 when every check
// passed, 1 when an output check failed, 2 on an error.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/check.h"
#include "harness.h"
#include "workloads.h"

extern char** environ;

namespace deltav::e2e {
namespace {

int run_one(const Config& cfg, const std::string& json_path) {
  const Workload* w = nullptr;
  for (const Workload& x : workloads())
    if (cfg.workload == x.name) w = &x;
  DV_CHECK_MSG(w != nullptr, "unknown workload '" << cfg.workload << "'");

  Report r;
  describe_host(r);
  r.info("why", w->why);
  r.info("seconds_requested", cfg.seconds);
  w->run(cfg, r);
  r.e2e("error_rate", "fraction",
        r.attempted() ? static_cast<double>(r.failed()) /
                            static_cast<double>(r.attempted())
                      : 1.0,
        r.attempted());
  const std::vector<std::string>& contract =
      cfg.trace ? kContractLayers : kContractEndToEnd;
  for (const std::string& name : contract)
    r.check(r.find(name) != nullptr, "metric " + name + " was not measured");
  r.check(r.attempted() > 0, "no operation was attempted");

  r.print(std::cout, cfg);
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    DV_CHECK_MSG(os.good(), "cannot open --json path '" << json_path << "'");
    r.write_json(os, cfg);
    DV_CHECK_MSG(os.good(), "failed writing '" << json_path << "'");
  }

  std::ostringstream line;
  line << "{\"correct\": " << (r.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::size_t>(r.attempted(), 1)
       << ", \"failed\": " << r.failed() << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : contract) {
    const Report::Metric* m = r.find(name);
    if (!m) continue;
    line << (first ? "" : ", ") << "\"" << name
         << "\": {\"value\": " << json_number(m->value) << ", \"unit\": \""
         << m->unit << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return r.failed() == 0 ? 0 : 1;
}

/// Runs `argv` as a child process and returns its exit status.
int spawn_wait(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::cout.flush();
  pid_t pid = 0;
  const int err = posix_spawnp(&pid, argv[0], nullptr, nullptr, argv.data(),
                               environ);
  DV_CHECK_MSG(err == 0, "cannot start " << args[0] << ": errno " << err);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) DV_CHECK(errno == EINTR);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 2;
}

/// Every workload, untraced then traced, each run in a fresh child
/// process; --json collects the children's reports.
int run_all(const std::string& self, const Config& cfg,
            const std::string& trace_flag, const std::string& json_path) {
  std::vector<std::string> parts;
  int worst = 0;
  for (const Workload& w : workloads()) {
    for (const bool traced : {false, true}) {
      std::vector<std::string> args = {
          self,
          "--workload=" + std::string(w.name),
          "--seed=" + std::to_string(cfg.seed),
          // Per-layer numbers need less work than latency quantiles.
          "--seconds=" + json_number(traced ? cfg.seconds / 2 : cfg.seconds),
          "--workdir=" + cfg.workdir,
          "--trace=" + (traced ? trace_flag : std::string("0"))};
      if (cfg.smoke) args.push_back("--smoke");
      if (!json_path.empty()) {
        parts.push_back(json_path + "." + w.name + (traced ? ".traced" : ""));
        args.push_back("--json=" + parts.back());
      }
      const int status = spawn_wait(args);
      if (status != 0)
        std::cerr << "bench_e2e: " << w.name << (traced ? " (traced)" : "")
                  << " exited with status " << status << "\n";
      worst = std::max(worst, status);
    }
  }
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    DV_CHECK_MSG(os.good(), "cannot open --json path '" << json_path << "'");
    os << "{\"runs\": [\n";
    bool first = true;
    for (const std::string& part : parts) {
      std::ifstream in(part);
      if (!in.good()) continue;  // that child failed before writing
      os << (first ? "" : ",\n") << in.rdbuf();
      first = false;
      std::remove(part.c_str());
    }
    os << "]}\n";
    DV_CHECK_MSG(os.good(), "failed writing '" << json_path << "'");
  }
  std::cout << "bench_e2e: " << (worst == 0 ? "all workloads passed"
                                            : "some workloads FAILED")
            << "\n";
  return worst;
}

}  // namespace
}  // namespace deltav::e2e

int main(int argc, char** argv) {
  using namespace deltav;
  using namespace deltav::e2e;
  try {
    Args args(argc, argv);
    Config cfg;
    cfg.workload = args.get_string(
        "workload", "all", "workload to run in this process, or 'all'");
    cfg.seed = static_cast<std::uint64_t>(
        args.get_int("seed", 1, "seed every input is generated from"));
    cfg.smoke = args.get_bool(
        "smoke", false, "tiny sizes, traced and untraced, checks only");
    const bool all = cfg.workload == "all";
    cfg.seconds = args.get_double(
        "seconds", cfg.smoke ? 0.5 : all ? 10 : 15,
        "measured time: sizes the fixed work of the repetitions");
    const std::string trace_flag = args.get_string(
        "trace", "0",
        "1 = traced per-layer run, its files in --workdir; a directory = "
        "the same, its files there");
    cfg.workdir = args.get_string(
        "workdir", ".", "directory for checkpoints and trace outputs");
    const std::string json_path =
        args.get_string("json", "", "write the full report(s) here");
    if (args.help_requested()) {
      std::cout << args.help();
      return 0;
    }
    args.check_unused();
    cfg.trace = trace_flag != "0";
    cfg.trace_dir = trace_flag == "0" || trace_flag == "1" ? cfg.workdir
                                                           : trace_flag;
    DV_CHECK_MSG(cfg.seconds > 0, "--seconds must be positive");

    if (all)
      return run_all(argv[0], cfg, trace_flag == "0" ? "1" : trace_flag,
                     json_path);
    return run_one(cfg, json_path);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 2;
  }
}
