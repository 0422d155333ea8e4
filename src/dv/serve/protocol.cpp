#include "dv/serve/protocol.h"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "dv/runtime/runner.h"

namespace deltav::dv::serve {
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream ss(line);
  std::string t;
  while (ss >> t) toks.push_back(t);
  return toks;
}

/// Single-line sanitization for ERR payloads (multi-line reasons would
/// desynchronize a line-framed client).
std::string flatten(const std::string& s) {
  std::string out = s;
  for (char& c : out)
    if (c == '\n' || c == '\r') c = ' ';
  return out;
}

std::string format_value(const Value& v) {
  switch (v.type) {
    case Type::kBool:
      return v.b ? "true" : "false";
    case Type::kInt:
      return std::to_string(v.i);
    default: {
      std::ostringstream os;
      os << std::setprecision(17) << v.as_f();
      return os.str();
    }
  }
}

std::size_t parse_size(const std::string& s, const char* what) {
  try {
    return static_cast<std::size_t>(std::stoull(s));
  } catch (const std::logic_error&) {
    DV_FAIL("malformed " << what << " '" << s << "'");
  }
}

double parse_double(const std::string& s, const char* what) {
  try {
    return std::stod(s);
  } catch (const std::logic_error&) {
    DV_FAIL("malformed " << what << " '" << s << "'");
  }
}

/// Atomic raw-bytes file write (tmp + rename), matching the snapshot
/// writer's crash discipline: the target path is never torn.
void write_bytes_atomic(const std::string& path,
                        const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    DV_CHECK_MSG(out.good(), "cannot open '" << tmp << "' for writing");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    DV_CHECK_MSG(out.good(), "failed writing '" << tmp << "'");
  }
  DV_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
               "failed renaming '" << tmp << "' to '" << path << "'");
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ServeCore::handle_create(const std::string& rest) {
  const std::vector<std::string> toks = tokenize(rest);
  DV_CHECK_MSG(toks.size() >= 3,
               "CREATE <name> <program> <graph> [key=value|flag ...]");
  CreateSpec spec;
  spec.name = toks[0];
  spec.program = toks[1];
  spec.graph = toks[2];
  spec.host = defaults_;
  for (std::size_t i = 3; i < toks.size(); ++i) {
    const std::string& tok = toks[i];
    const auto eq = tok.find('=');
    const std::string key = tok.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? "" : tok.substr(eq + 1);
    if (key == "undirected") {
      spec.undirected = true;
    } else if (key == "weighted") {
      spec.weighted = true;
    } else if (key == "atomic_float") {
      spec.host.session.run.atomic_float = true;
    } else if (key == "force_cold") {
      spec.host.session.force_cold = true;
    } else if (key == "tier") {
      spec.host.session.run.tier = parse_exec_tier(val);
    } else if (key == "fold_path") {
      spec.host.session.run.fold_path = parse_fold_path(val);
    } else if (key == "epsilon") {
      spec.epsilon = parse_double(val, "epsilon");
    } else if (key == "params") {
      spec.params = val;  // may itself contain '=' and ','
    } else if (key == "workers") {
      spec.host.session.run.engine.num_workers =
          static_cast<int>(parse_size(val, "workers"));
    } else if (key == "queue_limit") {
      spec.host.queue_limit = parse_size(val, "queue_limit");
      DV_CHECK_MSG(spec.host.queue_limit > 0, "queue_limit must be > 0");
    } else if (key == "commit_window_ms") {
      spec.host.commit_window_ms = parse_double(val, "commit_window_ms");
    } else if (key == "checkpoint_every") {
      spec.host.checkpoint_every = parse_size(val, "checkpoint_every");
    } else if (key == "checkpoint") {
      spec.host.checkpoint_path = val;
    } else if (key == "restore") {
      spec.restore_from = val;
    } else if (key == "compact_threshold") {
      spec.host.session.compact_threshold =
          parse_double(val, "compact_threshold");
    } else {
      DV_FAIL("unknown CREATE option '" << key << "'");
    }
  }
  DV_CHECK_MSG(spec.host.checkpoint_every == 0 ||
                   !spec.host.checkpoint_path.empty(),
               "checkpoint_every needs checkpoint=<path>");
  registry_.create(spec);
  return "OK created " + spec.name;
}

std::string ServeCore::handle_line(Conn& conn, const std::string& line,
                                   bool* quit) {
  if (quit != nullptr) *quit = false;
  try {
    if (conn.in_mut) {
      // Body of a MUT request: one mutation_io line (comments/blanks are
      // annotations here). The response is deferred to the commit line.
      if (!conn.parser.feed(line)) return "";
      conn.in_mut = false;
      const std::string target = std::move(conn.mut_target);
      conn.mut_target.clear();
      graph::MutationBatch batch = conn.parser.take();
      const auto host = registry_.find(target);
      DV_CHECK_MSG(host != nullptr, "no session '" << target << "'");
      const std::size_t ops = batch_ops(batch);
      host->enqueue(std::move(batch));
      return "OK queued ops=" + std::to_string(ops);
    }

    std::istringstream ss(line);
    std::string verb;
    ss >> verb;
    std::string rest;
    std::getline(ss, rest);

    if (verb.empty()) return "";  // blank request lines are ignored
    if (verb == "PING") return "OK pong";
    if (verb == "QUIT") {
      if (quit != nullptr) *quit = true;
      return "OK bye";
    }
    if (verb == "CREATE") return handle_create(rest);
    if (verb == "STATS") return "OK " + stats_json();

    const std::vector<std::string> toks = tokenize(rest);
    const auto named_host = [&](std::size_t min_toks, const char* usage) {
      DV_CHECK_MSG(toks.size() >= min_toks, usage);
      const auto host = registry_.find(toks[0]);
      DV_CHECK_MSG(host != nullptr, "no session '" << toks[0] << "'");
      return host;
    };

    if (verb == "MUT") {
      const auto host = named_host(1, "MUT <name>");
      (void)host;  // existence-checked now; re-resolved at commit
      conn.in_mut = true;
      conn.mut_target = toks[0];
      conn.parser = streaming::BatchLineParser{};
      return "";  // response comes with the batch's commit line
    }
    if (verb == "GET") {
      const auto host = named_host(3, "GET <name> <vertex> <field>");
      const auto v = static_cast<graph::VertexId>(
          parse_size(toks[1], "vertex id"));
      return "OK " + format_value(host->get(v, toks[2]));
    }
    if (verb == "TOPK") {
      const auto host = named_host(3, "TOPK <name> <field> <k>");
      const auto top = host->topk(toks[1], parse_size(toks[2], "k"));
      std::ostringstream os;
      os << "OK " << top.size();
      os << std::setprecision(17);
      for (const auto& [v, val] : top) os << " " << v << ":" << val;
      return os.str();
    }
    if (verb == "FLUSH") {
      const auto host = named_host(1, "FLUSH <name>");
      host->flush();
      return "OK epoch=" + std::to_string(host->stats().epoch);
    }
    if (verb == "SNAPSHOT") {
      const auto host = named_host(2, "SNAPSHOT <name> <path>");
      const std::vector<std::uint8_t> bytes = host->snapshot_bytes();
      write_bytes_atomic(toks[1], bytes);
      return "OK bytes=" + std::to_string(bytes.size());
    }
    if (verb == "CLOSE") {
      DV_CHECK_MSG(!toks.empty(), "CLOSE <name>");
      DV_CHECK_MSG(registry_.close(toks[0]), "no session '" << toks[0]
                                                            << "'");
      return "OK closed " + toks[0];
    }
    DV_FAIL("unknown verb '" << verb
                             << "' (CREATE MUT GET TOPK FLUSH STATS "
                                "SNAPSHOT CLOSE PING QUIT)");
  } catch (const std::exception& e) {
    // A malformed MUT body aborts the whole batch: admission is
    // per-batch atomic, so half a batch must never be queued.
    conn.in_mut = false;
    conn.mut_target.clear();
    conn.parser = streaming::BatchLineParser{};
    return "ERR " + flatten(e.what());
  }
}

std::string ServeCore::stats_json() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"sessions\": [";
  std::map<std::string, std::uint64_t> counters;
  bool first = true;
  for (const auto& host : registry_.hosts()) {
    const HostStats s = host->stats();
    os << (first ? "" : ", ") << "{\"name\": \""
       << json_escape(host->name()) << "\", \"program\": \""
       << json_escape(host->options().program_label)
       << "\", \"graph\": \"" << json_escape(host->options().graph_label)
       << "\", \"tier\": \""
       << exec_tier_name(host->options().session.run.tier)
       << "\", \"epoch\": " << s.epoch
       << ", \"epochs_committed\": " << s.epochs_committed
       << ", \"warm_epochs\": " << s.warm_epochs
       << ", \"cold_epochs\": " << s.cold_epochs
       << ", \"batches_admitted\": " << s.batches_admitted
       << ", \"batches_coalesced\": " << s.batches_coalesced
       << ", \"max_coalesced\": " << s.max_coalesced
       << ", \"mutations_admitted\": " << s.mutations_admitted
       << ", \"reads\": " << s.reads
       << ", \"queue_depth\": " << s.queue_depth
       << ", \"supersteps\": " << s.supersteps
       << ", \"messages\": " << s.messages
       << ", \"checkpoints\": " << s.checkpoints
       << ", \"vertices\": " << s.vertices << ", \"arcs\": " << s.arcs
       << ", \"view_rows_patched\": " << s.view_rows_patched
       << ", \"view_full_builds\": " << s.view_full_builds
       << ", \"view_full_build_reasons\": {\"first\": "
       << s.view_builds_first << ", \"cold\": " << s.view_builds_cold
       << ", \"restore\": " << s.view_builds_restore
       << ", \"grown\": " << s.view_builds_grown
       << ", \"spare_held\": " << s.view_builds_spare_held << "}"
       << ", \"epoch_seconds_sum\": " << s.epoch_seconds_sum
       << ", \"ready\": " << (s.ready ? "true" : "false")
       << ", \"failed\": " << (s.failed ? "true" : "false")
       << ", \"error\": \"" << json_escape(s.error) << "\"}";
    first = false;
    if (const obs::Collector* col = host->collector()) {
      for (const auto& [name, n] : col->metrics.snapshot().counters) {
        if (n > 0) counters[name] += n;
      }
    }
  }
  os << "], \"counters\": {";
  first = true;
  for (const auto& [name, n] : counters) {
    os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": " << n;
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace deltav::dv::serve
