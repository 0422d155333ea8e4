// dv_serve: multi-tenant streaming graph service over warm incremental
// sessions (DESIGN.md §10).
//
// A long-running daemon hosting many named sessions — each a (program,
// graph, tier) triple kept converged by its own engine thread. Clients
// speak the line protocol of dv/serve/protocol.h over TCP:
//
//   # terminal 1
//   dv_serve --port=7433
//   # terminal 2 (one request per line; see README "Serving quickstart")
//   printf 'CREATE pr pagerank rmat:10x8 params=steps=30\nMUT pr\n...'
//     | nc localhost 7433
//
// Concurrent MUTs against one session coalesce into shared epochs (group
// commit); GET/TOPK are answered from the last committed epoch's
// published state and never wait for the epoch in flight. CREATE with
// checkpoint_every=K checkpoints every K epochs; CREATE with
// restore=<path> warm-starts from such a checkpoint, falling back to a
// cold rebuild when the snapshot is rejected.
//
// --stdio serves one session of the same protocol over stdin/stdout (no
// sockets — CI smoke and scripting). SHUTDOWN stops the whole daemon
// gracefully (sessions drain their admitted batches); QUIT only closes
// the issuing connection.

#include <atomic>
#include <fstream>
#include <iostream>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/args.h"
#include "common/check.h"
#include "dv/obs/report.h"
#include "dv/serve/protocol.h"
#include "net/tcp.h"

namespace {

using namespace deltav;

class Daemon {
 public:
  Daemon(dv::serve::HostOptions defaults, std::uint16_t port,
         const std::string& bind_addr)
      : core_(std::move(defaults)), listener_(port, bind_addr) {}

  std::uint16_t port() const { return listener_.port(); }
  dv::serve::ServeCore& core() { return core_; }

  void run() {
    for (;;) {
      net::TcpStream s = listener_.accept();
      if (!s.valid()) break;  // listener closed: shutting down
      std::lock_guard<std::mutex> lock(mu_);
      if (shutting_down_) break;
      reap_finished();
      Connection& c = conns_.emplace_back(std::move(s));
      c.thread = std::thread([this, &c] {
        serve(c.stream);
        c.stream.shutdown();  // the peer sees EOF now, not at reap time
        c.done.store(true, std::memory_order_release);
      });
    }
    for (Connection& c : conns_) c.thread.join();
  }

  void request_shutdown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) return;
    shutting_down_ = true;
    listener_.close();
    // Wake every connection thread blocked in read_line: they see EOF,
    // finish their in-flight response, and exit.
    for (Connection& c : conns_) c.stream.shutdown();
  }

 private:
  struct Connection {
    explicit Connection(net::TcpStream s) : stream(std::move(s)) {}
    net::TcpStream stream;
    std::thread thread;
    std::atomic<bool> done{false};  // set as the thread's last act
  };

  /// Joins and drops every connection whose thread has finished, so the
  /// daemon holds threads and sockets for open connections only, not for
  /// every connection it ever accepted. Caller holds mu_.
  void reap_finished() {
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (!it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      it = conns_.erase(it);
    }
  }

  void serve(net::TcpStream& s) {
    dv::serve::Conn conn;
    std::string line;
    try {
      while (s.read_line(line)) {
        if (!conn.in_mut && line == "SHUTDOWN") {
          s.write_line("OK shutting down");
          request_shutdown();
          return;
        }
        bool quit = false;
        const std::string resp = core_.handle_line(conn, line, &quit);
        if (!resp.empty()) s.write_line(resp);
        if (quit) return;
      }
    } catch (const net::LineTooLong&) {
      // A peer that never sends a newline would otherwise grow the read
      // buffer without limit: answer once, then hang up on it.
      try {
        s.write_line("ERR line too long");
      } catch (const std::exception&) {
      }
      std::cerr << "dv_serve: connection dropped: line too long\n";
    } catch (const std::exception& e) {
      // A hung-up peer mid-write is normal churn, not a daemon error.
      std::cerr << "dv_serve: connection dropped: " << e.what() << "\n";
    }
  }

  dv::serve::ServeCore core_;
  net::TcpListener listener_;
  std::mutex mu_;
  bool shutting_down_ = false;
  std::list<Connection> conns_;  // std::list: threads hold references
};

/// --stdio: the same protocol, one connection, no sockets.
int run_stdio(dv::serve::HostOptions defaults) {
  dv::serve::ServeCore core(std::move(defaults));
  dv::serve::Conn conn;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!conn.in_mut && line == "SHUTDOWN") {
      std::cout << "OK shutting down" << std::endl;
      break;
    }
    bool quit = false;
    const std::string resp = core.handle_line(conn, line, &quit);
    if (!resp.empty()) std::cout << resp << std::endl;
    if (quit) break;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    const auto port = static_cast<std::uint16_t>(args.get_int(
        "port", 7433, "TCP port (0 = ephemeral; the banner names it)"));
    const std::string bind_addr = args.get_string(
        "bind", "127.0.0.1", "interface to bind");
    const bool stdio = args.get_bool(
        "stdio", false, "serve the protocol over stdin/stdout instead");
    const std::string tier_flag = args.get_string(
        "tier", "vm", "default execution tier: vm | tree | native");
    const int workers = static_cast<int>(args.get_int(
        "workers", 4, "default engine worker threads per session"));
    const auto queue_limit = static_cast<std::size_t>(args.get_int(
        "queue_limit", 64, "default admission-queue bound per session"));
    const double commit_window_ms = args.get_double(
        "commit_window_ms", 0,
        "default group-commit window: wait this long for more writers to "
        "join an epoch (0 = drain only what is queued)");
    const auto minmax_memo_k = static_cast<std::size_t>(args.get_int(
        "minmax_memo_k", 8,
        "default per-vertex k-best retraction memo capacity for min/max "
        "sites (0 = disabled; extremum deletions fall back cold)"));
    const std::string metrics_path = args.get_string(
        "metrics", "",
        "write merged serve metrics JSON here on shutdown");
    if (args.help_requested()) {
      std::cout << args.help();
      return 0;
    }
    args.check_unused();

    dv::serve::HostOptions defaults;
    defaults.session.run.tier = dv::parse_exec_tier(tier_flag);
    defaults.session.run.engine.num_workers = workers;
    defaults.session.minmax_memo_k = minmax_memo_k;
    defaults.queue_limit = queue_limit;
    defaults.commit_window_ms = commit_window_ms;

    if (stdio) return run_stdio(std::move(defaults));

    Daemon daemon(std::move(defaults), port, bind_addr);
    // The banner is the machine-readable contract: scripts using --port=0
    // parse the actual port out of this line.
    std::cout << "dv_serve listening on " << bind_addr << ":"
              << daemon.port() << std::endl;
    daemon.run();

    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      DV_CHECK_MSG(out.good(),
                   "cannot open --metrics path '" << metrics_path << "'");
      obs::write_metrics_json(
          dv::serve::merged_metrics(daemon.core().registry()), {}, out);
      std::cout << "wrote metrics to " << metrics_path << "\n";
    }
    std::cout << "dv_serve: shut down\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dv_serve: " << e.what() << "\n";
    return 2;
  }
}
