#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <span>
#include <string>
#include <thread>

#include "net/cluster_model.h"
#include "net/tcp.h"
#include "pregel/engine.h"

namespace deltav::net {
namespace {

TEST(ClusterModel, DefaultMatchesPaperDeployment) {
  ClusterModel m;
  EXPECT_EQ(m.config().machines, 8);
  EXPECT_EQ(m.config().workers_per_machine, 2);
  EXPECT_EQ(m.total_workers(), 16);
  EXPECT_DOUBLE_EQ(m.config().bandwidth_bytes_per_sec, 750e6 / 8.0);
}

TEST(ClusterModel, WorkerToMachineMapping) {
  ClusterModel m;
  EXPECT_EQ(m.machine_of_worker(0), 0);
  EXPECT_EQ(m.machine_of_worker(1), 0);
  EXPECT_EQ(m.machine_of_worker(2), 1);
  EXPECT_EQ(m.machine_of_worker(15), 7);
}

TEST(ClusterModel, CrossNetworkDetection) {
  ClusterModel m;
  EXPECT_FALSE(m.crosses_network(0, 1));  // same machine
  EXPECT_TRUE(m.crosses_network(0, 2));
  EXPECT_TRUE(m.crosses_network(3, 14));
}

TEST(ClusterModel, SuperstepTimeIsBottleneckPlusLatency) {
  ClusterConfig c;
  c.machines = 2;
  c.workers_per_machine = 1;
  c.bandwidth_bytes_per_sec = 1000.0;
  c.barrier_latency_sec = 0.5;
  ClusterModel m(c);
  // Machine 0 sends 2000 bytes, machine 1 sends 500.
  const double t = m.superstep_seconds({2000, 500}, {500, 2000});
  EXPECT_DOUBLE_EQ(t, 2000.0 / 1000.0 + 0.5);
}

TEST(ClusterModel, ZeroTrafficStillPaysBarrier) {
  ClusterConfig c;
  c.machines = 2;
  c.workers_per_machine = 1;
  c.barrier_latency_sec = 0.25;
  ClusterModel m(c);
  EXPECT_DOUBLE_EQ(m.superstep_seconds({0, 0}, {0, 0}), 0.25);
}

TEST(ClusterModel, BalancedEstimate) {
  ClusterConfig c;
  c.machines = 4;
  c.bandwidth_bytes_per_sec = 100.0;
  c.barrier_latency_sec = 0.0;
  ClusterModel m(c);
  EXPECT_DOUBLE_EQ(m.balanced_superstep_seconds(400), 1.0);
}

// End-to-end: the engine's per-superstep byte metrics, fed through the
// cluster model, must reproduce max(egress, ingress)/bandwidth + barrier
// for a hand-built two-machine traffic matrix — including a superstep
// that moves no bytes at all.
TEST(ClusterModel, EngineSimTimeMatchesHandBuiltTrafficMatrix) {
  ClusterConfig c;
  c.machines = 2;
  c.workers_per_machine = 1;
  c.bandwidth_bytes_per_sec = 1000.0;
  c.barrier_latency_sec = 0.5;

  pregel::EngineOptions opts;
  opts.num_workers = 2;
  opts.partition = pregel::PartitionScheme::kBlock;
  opts.cluster = c;
  // Block partition: vertices {0,1} live on machine 0, {2,3} on machine 1.
  pregel::Engine<int> e(4, opts);

  const std::uint64_t B = sizeof(int);
  // Superstep 0 traffic matrix (wire bytes):
  //   machine 0 -> machine 1 : 3 messages (vertex 0 -> 2)  = 3B
  //   machine 1 -> machine 0 : 1 message  (vertex 2 -> 1)  = 1B
  //   machine 0 -> machine 0 : 1 message  (vertex 1 -> 0), intra-machine,
  //                            must not touch the NIC model
  e.step([&](auto& ctx, pregel::VertexId v, std::span<const int>) {
    if (v == 0) {
      ctx.send(2, 1);
      ctx.send(2, 2);
      ctx.send(2, 3);
    }
    if (v == 1) ctx.send(0, 9);
    if (v == 2) ctx.send(1, 4);
    ctx.vote_to_halt();
  });
  // Superstep 1: deliveries only, nothing sent — the zero-traffic step.
  e.step([](auto& ctx, pregel::VertexId, std::span<const int>) {
    ctx.vote_to_halt();
  });
  ASSERT_TRUE(e.done());
  ASSERT_EQ(e.stats().num_supersteps(), 2u);

  const auto& s0 = e.stats().supersteps[0];
  EXPECT_EQ(s0.cross_machine_bytes, 4 * B);  // 3B + 1B; local traffic free
  // The engine must have fed exactly this matrix into the model.
  ClusterModel model(c);
  EXPECT_DOUBLE_EQ(s0.sim_comm_seconds,
                   model.superstep_seconds({3 * B, 1 * B}, {1 * B, 3 * B}));
  // Spelled out: the bottleneck NIC is machine 0's egress (equivalently,
  // machine 1's ingress), serialized at link bandwidth, plus one barrier.
  EXPECT_DOUBLE_EQ(
      s0.sim_comm_seconds,
      3.0 * static_cast<double>(B) / c.bandwidth_bytes_per_sec +
          c.barrier_latency_sec);

  const auto& s1 = e.stats().supersteps[1];
  EXPECT_EQ(s1.cross_machine_bytes, 0u);
  EXPECT_DOUBLE_EQ(s1.sim_comm_seconds, c.barrier_latency_sec);
}

TEST(ClusterModel, MismatchedVectorSizesThrow) {
  ClusterModel m;
  EXPECT_THROW(m.superstep_seconds({1, 2}, {1, 2, 3, 4, 5, 6, 7, 8}),
               CheckError);
}

TEST(ClusterModel, InvalidConfigRejected) {
  ClusterConfig c;
  c.machines = 0;
  EXPECT_THROW(ClusterModel{c}, CheckError);
  ClusterConfig c2;
  c2.bandwidth_bytes_per_sec = 0;
  EXPECT_THROW(ClusterModel{c2}, CheckError);
}

// ---- TcpStream ------------------------------------------------------------

/// Sends `bytes` raw (no framing) to 127.0.0.1:`port`, then half-closes.
/// Send errors end the transfer quietly: the reader may hang up first.
void send_raw(std::uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  ::close(fd);
}

TEST(TcpStream, ReadLineRejectsOverlongLineWithBoundedBuffer) {
  TcpListener listener(0);
  // A line of exactly the cap is accepted; then three caps' worth of bytes
  // with no newline at all.
  std::string bytes(kMaxLineBytes, 'a');
  bytes += '\n';
  bytes.append(3 * kMaxLineBytes, 'b');
  // Declared before the reader, so an early failure closes the reader
  // first and the client's blocked sends fail before the join.
  std::jthread client([&] { send_raw(listener.port(), bytes); });
  {
    TcpStream server = listener.accept();
    ASSERT_TRUE(server.valid());
    std::string line;
    ASSERT_TRUE(server.read_line(line));
    EXPECT_EQ(line.size(), kMaxLineBytes);
    EXPECT_THROW(server.read_line(line), LineTooLong);
    EXPECT_EQ(server.buffered_bytes(), 0u);
    // The first throw consumed at most the cap plus one receive chunk, so
    // more than a cap of the newline-free run is still unread: reading on
    // overflows again instead of swallowing the stream.
    EXPECT_THROW(server.read_line(line), LineTooLong);
    EXPECT_EQ(server.buffered_bytes(), 0u);
  }  // the reader hangs up; the client's pending sends fail and it exits
}

TEST(TcpStream, ReadLineSplitsLinesAndReturnsUnterminatedTail) {
  TcpListener listener(0);
  std::jthread client(
      [&] { send_raw(listener.port(), "one\r\ntwo\nthree"); });
  TcpStream server = listener.accept();
  std::string line;
  ASSERT_TRUE(server.read_line(line));
  EXPECT_EQ(line, "one");
  ASSERT_TRUE(server.read_line(line));
  EXPECT_EQ(line, "two");
  ASSERT_TRUE(server.read_line(line));
  EXPECT_EQ(line, "three");
  EXPECT_FALSE(server.read_line(line));
}

}  // namespace
}  // namespace deltav::net
