#include "dv/serve/session_host.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/timer.h"

namespace deltav::dv::serve {

graph::MutationBatch merge_batches(
    std::vector<graph::MutationBatch> batches) {
  graph::MutationBatch merged;
  for (graph::MutationBatch& b : batches) {
    merged.edges.insert(merged.edges.end(), b.edges.begin(), b.edges.end());
    merged.add_vertices += b.add_vertices;
    merged.detach_vertices.insert(merged.detach_vertices.end(),
                                  b.detach_vertices.begin(),
                                  b.detach_vertices.end());
  }
  return merged;
}

std::size_t batch_ops(const graph::MutationBatch& b) {
  return b.edges.size() + (b.add_vertices > 0 ? 1 : 0) +
         b.detach_vertices.size();
}

SessionHost::SessionHost(std::string name, CompiledProgram cp,
                         graph::CsrGraph base, HostOptions options)
    : name_(std::move(name)), cp_(std::move(cp)),
      options_(std::move(options)) {
  if (options_.collect_metrics) {
    collector_ = std::make_unique<obs::Collector>();
    options_.session.run.collector = collector_.get();
  }
  session_ = streaming::make_stream_session(cp_, std::move(base),
                                            options_.session);
  start();
}

SessionHost::SessionHost(std::string name, CompiledProgram cp,
                         std::vector<std::uint8_t> snapshot,
                         HostOptions options)
    : name_(std::move(name)), cp_(std::move(cp)),
      options_(std::move(options)), restored_(true) {
  if (options_.collect_metrics) {
    collector_ = std::make_unique<obs::Collector>();
    options_.session.run.collector = collector_.get();
  }
  // Throws persist::SnapshotError on damage/mismatch — before the engine
  // thread exists, so a failed restore never leaves a half-started host.
  session_ = streaming::DvStreamSession::restore_bytes(
      cp_, std::move(snapshot), options_.session);
  start();
}

SessionHost::~SessionHost() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  cv_state_.notify_all();
  if (engine_.joinable()) engine_.join();
}

void SessionHost::start() {
  engine_ = std::thread([this] { run(); });
}

void SessionHost::add_counter(obs::Counter c, std::uint64_t n) const {
  // add_named rather than a shard write: serve events fire at request
  // rate from whichever thread handled the request, so the mutex-guarded
  // dynamic path is the one that keeps the per-lane shards single-writer.
  // snapshot() sums the named series into the fixed counter of the same
  // name, so the catalogue entry and these increments read as one series.
  if (collector_) collector_->metrics.add_named(obs::counter_name(c), n);
}

void SessionHost::fail(const std::string& what) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    failed_ = true;
    error_ = what;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.failed = true;
    stats_.error = what;
  }
  cv_state_.notify_all();
  cv_space_.notify_all();
}

void SessionHost::publish_epoch(double epoch_seconds,
                                const streaming::SessionEpoch* ep,
                                std::size_t coalesced) {
  // Engine thread only: take_changed(), state_window() and graph() are
  // owner-thread entry points. The view patches the rows the epoch
  // changed into its spare buffer (read_view.h) — no O(|V|) copy.
  const std::size_t epoch = session_->epoch();
  const std::size_t arcs = session_->graph().num_arcs();
  PublishReport report;
  {
    obs::Scope span(obs::resolve(options_.session.run.collector),
                    "serve.publish");
    // An inexact change set after the first publish comes from a fresh
    // runner: a cold epoch or a warm abort.
    const FullBuild inexact =
        session_->take_changed(changed_) ? FullBuild::kNone
        : ep != nullptr                  ? FullBuild::kCold
        : restored_                      ? FullBuild::kRestore
                                         : FullBuild::kFirst;
    report = view_.publish(epoch, session_->state_window(), changed_,
                           inexact);
  }
  const std::size_t vertices = session_->graph().num_vertices();

  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.epoch = epoch;
  stats_.vertices = vertices;
  stats_.arcs = arcs;
  stats_.view_rows_patched += report.rows_patched;
  if (report.full != FullBuild::kNone) {
    ++stats_.view_full_builds;
    switch (report.full) {
      case FullBuild::kFirst: ++stats_.view_builds_first; break;
      case FullBuild::kCold: ++stats_.view_builds_cold; break;
      case FullBuild::kRestore: ++stats_.view_builds_restore; break;
      case FullBuild::kGrown: ++stats_.view_builds_grown; break;
      case FullBuild::kSpareHeld: ++stats_.view_builds_spare_held; break;
      case FullBuild::kNone: break;
    }
  }
  if (ep != nullptr) {
    ++stats_.epochs_committed;
    (ep->warm ? stats_.warm_epochs : stats_.cold_epochs)++;
    stats_.supersteps += ep->stats.supersteps;
    stats_.messages += ep->stats.messages;
    stats_.atomic_folds += ep->stats.atomic_folds;
    stats_.epoch_seconds_sum += epoch_seconds;
    if (coalesced > stats_.max_coalesced) stats_.max_coalesced = coalesced;
    if (coalesced > 1) stats_.batches_coalesced += coalesced - 1;
    add_counter(obs::Counter::kServeEpochs);
    if (coalesced > 1)
      add_counter(obs::Counter::kServeCoalescedBatches, coalesced - 1);
    if (collector_) {
      collector_->metrics.observe("serve.epoch_seconds", epoch_seconds);
      collector_->metrics.observe("serve.coalesced_batch",
                                  static_cast<double>(coalesced));
    }
  }
}

void SessionHost::run() {
  try {
    if (!session_->converged()) session_->converge();
    publish_epoch(0, nullptr, 0);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready_ = true;
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        stats_.ready = true;
      }
    }
    cv_state_.notify_all();

    while (true) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] {
        return stop_ || kill_ || snapshot_requested_ ||
               (!paused_ && !queue_.empty());
      });
      if (kill_) break;
      if (snapshot_requested_) {
        snapshot_requested_ = false;
        lk.unlock();
        // save_bytes() between epochs is always a superstep boundary.
        std::vector<std::uint8_t> bytes = session_->save_bytes();
        add_counter(obs::Counter::kServeSnapshots);
        lk.lock();
        snapshot_out_ = std::move(bytes);
        snapshot_done_ = true;
        lk.unlock();
        cv_state_.notify_all();
        continue;
      }
      if (queue_.empty()) {
        if (stop_) break;
        continue;
      }
      // Group-commit window: let concurrent writers join this epoch.
      // Skipped during shutdown — drain as fast as possible.
      if (options_.commit_window_ms > 0 && !stop_) {
        cv_work_.wait_for(
            lk,
            std::chrono::duration<double, std::milli>(
                options_.commit_window_ms),
            [&] { return stop_ || kill_; });
        if (kill_) break;
      }
      std::vector<graph::MutationBatch> batches = std::move(queue_);
      queue_.clear();
      in_flight_ = true;
      lk.unlock();
      cv_space_.notify_all();  // backpressured writers may admit again

      const std::size_t coalesced = batches.size();
      const graph::MutationBatch merged = merge_batches(std::move(batches));
      Timer t;
      const streaming::SessionEpoch ep = session_->apply(merged);
      publish_epoch(t.elapsed_seconds(), &ep, coalesced);

      if (options_.checkpoint_every > 0 &&
          !options_.checkpoint_path.empty() &&
          session_->epoch() % options_.checkpoint_every == 0) {
        session_->save(options_.checkpoint_path);
        {
          std::lock_guard<std::mutex> slock(stats_mu_);
          ++stats_.checkpoints;
        }
        add_counter(obs::Counter::kServeSnapshots);
      }

      lk.lock();
      in_flight_ = false;
      lk.unlock();
      cv_state_.notify_all();
    }
  } catch (const std::exception& e) {
    fail(e.what());
  }
}

void SessionHost::enqueue(graph::MutationBatch batch) {
  const std::size_t ops = batch_ops(batch);
  std::size_t depth = 0;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_space_.wait(lk, [&] {
      return failed_ || stop_ || kill_ ||
             queue_.size() < options_.queue_limit;
    });
    DV_CHECK_MSG(!failed_,
                 "session '" << name_ << "' failed: " << error_);
    DV_CHECK_MSG(!stop_ && !kill_,
                 "session '" << name_ << "' is shutting down");
    queue_.push_back(std::move(batch));
    depth = queue_.size();
  }
  cv_work_.notify_one();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches_admitted;
    stats_.mutations_admitted += ops;
  }
  add_counter(obs::Counter::kServeMutationBatches);
  if (collector_)
    collector_->metrics.observe("serve.queue_depth",
                                static_cast<double>(depth));
}

void SessionHost::flush() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_state_.wait(lk, [&] {
    return failed_ || (ready_ && queue_.empty() && !in_flight_ &&
                       !snapshot_requested_);
  });
  DV_CHECK_MSG(!failed_, "session '" << name_ << "' failed: " << error_);
}

void SessionHost::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void SessionHost::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_work_.notify_all();
}

void SessionHost::wait_ready() const {
  std::unique_lock<std::mutex> lk(mu_);
  cv_state_.wait(lk, [&] { return ready_ || failed_; });
  DV_CHECK_MSG(!failed_, "session '" << name_ << "' failed: " << error_);
}

std::shared_ptr<const StateSnapshot> SessionHost::view() const {
  wait_ready();
  std::shared_ptr<const StateSnapshot> snap = view_.current();
  DV_CHECK_MSG(snap != nullptr, "no published state for '" << name_ << "'");
  return snap;
}

int SessionHost::user_field_slot(const StateSnapshot& snap,
                                 const std::string& field) const {
  const std::vector<Field>& user = snap.result.fields;
  for (std::size_t s = 0; s < user.size(); ++s)
    if (user[s].name == field) return static_cast<int>(s);
  for (const Field& f : cp_.program.fields)
    DV_CHECK_MSG(f.name != field,
                 "field '" << field << "' of session '" << name_
                           << "' is compiler-internal; GET and TOPK read "
                              "user (local) fields only");
  DV_FAIL("no field named '" << field << "' in session '" << name_ << "'");
}

Value SessionHost::get(graph::VertexId v, const std::string& field) const {
  Timer t;
  const auto snap = view();
  const int slot = user_field_slot(*snap, field);
  DV_CHECK_MSG(static_cast<std::size_t>(v) < snap->result.num_vertices,
               "vertex " << v << " out of range (session '" << name_
                         << "' has " << snap->result.num_vertices
                         << " vertices at epoch " << snap->epoch << ")");
  const Value val = snap->result.at(v, slot);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.reads;
  }
  add_counter(obs::Counter::kServeReads);
  if (collector_)
    collector_->metrics.observe("serve.read_seconds", t.elapsed_seconds());
  return val;
}

std::vector<std::pair<graph::VertexId, double>> SessionHost::topk(
    const std::string& field, std::size_t k) const {
  Timer t;
  const auto snap = view();
  user_field_slot(*snap, field);  // names an internal field's error
  auto out = topk_field(snap->result, field, k);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.reads;
  }
  add_counter(obs::Counter::kServeReads);
  if (collector_)
    collector_->metrics.observe("serve.read_seconds", t.elapsed_seconds());
  return out;
}

std::vector<std::uint8_t> SessionHost::snapshot_bytes() {
  // Serialize concurrent snapshot callers: one request slot.
  std::lock_guard<std::mutex> serial(snap_mu_);
  wait_ready();
  std::unique_lock<std::mutex> lk(mu_);
  DV_CHECK_MSG(!failed_, "session '" << name_ << "' failed: " << error_);
  DV_CHECK_MSG(!stop_ && !kill_,
               "session '" << name_ << "' is shutting down");
  snapshot_requested_ = true;
  snapshot_done_ = false;
  lk.unlock();
  cv_work_.notify_one();
  lk.lock();
  cv_state_.wait(lk, [&] { return failed_ || snapshot_done_; });
  DV_CHECK_MSG(!failed_, "session '" << name_ << "' failed: " << error_);
  snapshot_done_ = false;
  return std::move(snapshot_out_);
}

void SessionHost::kill() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    kill_ = true;
    queue_.clear();
    failed_ = true;
    error_ = "session killed";
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.failed = true;
    stats_.error = "session killed";
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  cv_state_.notify_all();
  if (engine_.joinable()) engine_.join();
}

HostStats SessionHost::stats() const {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = queue_.size();
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  HostStats s = stats_;
  s.queue_depth = depth;
  return s;
}

}  // namespace deltav::dv::serve
