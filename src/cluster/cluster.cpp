#include "cluster/cluster.h"

#include <algorithm>

#include "util/jobtrace.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pdm {

namespace {

double seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Hold-queue depth on both telemetry planes: a counter track in the trace
// (renders as a graph in Perfetto) and a gauge in the metrics registry.
void note_hold_depth(usize depth) {
  PDM_TRACE_COUNTER("cluster", "hold_depth", depth);
  metrics::Registry::global().gauge("cluster.hold_depth").set(
      static_cast<i64>(depth));
}

}  // namespace

Cluster::Cluster(BackendFactory make_backend, ClusterConfig cfg)
    : make_backend_(std::move(make_backend)),
      cfg_(cfg),
      router_(cfg.shards, cfg.policy, cfg.router_seed, cfg.ring_vnodes),
      jobs_per_shard_(cfg.shards, 0) {
  router_.set_spill_promote_after(cfg.spill_promote_after);
  // Mirror span durations into the metrics registry so metrics_text()
  // shows per-phase totals next to the trace (idempotent).
  metrics::install_span_histograms();
  PDM_CHECK(cfg.shards > 0, "Cluster needs at least one shard");
  PDM_CHECK(make_backend_ != nullptr, "Cluster needs a backend factory");
  PDM_CHECK(cfg.shard_configs.empty() || cfg.shard_configs.size() == cfg.shards,
            "shard_configs must be empty or have one entry per shard");
  slots_.reserve(cfg.shards);
  for (usize i = 0; i < cfg.shards; ++i) {
    ServiceConfig sc =
        cfg.shard_configs.empty() ? cfg.shard : cfg.shard_configs[i];
    slots_.push_back(Slot{make_service(static_cast<u32>(i), std::move(sc)),
                          SlotState::kActive, 0});
  }
}

Cluster::~Cluster() {
  // Coordinator threads first, before anything stops: they only wait on
  // ordinary sub-jobs, which the still-live shards finish normally.
  std::vector<std::thread> coords;
  {
    std::lock_guard g(mu_);
    for (auto& [token, t] : dist_threads_) coords.push_back(std::move(t));
    dist_threads_.clear();
    dist_finished_threads_.clear();
  }
  for (auto& t : coords) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard g(mu_);
    stopping_ = true;  // pumps and new submissions stop
  }
  // Disconnect the capacity callbacks so shard workers stop calling into
  // a dying cluster; an invocation already in flight blocks on mu_, sees
  // stopping_, and returns before the services (and then mu_) go away.
  for (auto& slot : slots_) {
    if (slot.service) slot.service->set_capacity_callback(nullptr);
  }
}

std::shared_ptr<SortService> Cluster::make_service(u32 id, ServiceConfig sc) {
  sc.shard_id = id;
  auto backend = make_backend_(id);
  PDM_CHECK(backend != nullptr, "backend factory returned null");
  auto svc = std::make_shared<SortService>(std::move(backend), sc);
  svc->set_capacity_callback([this] { on_capacity_freed(); });
  return svc;
}

std::vector<ShardLoad> Cluster::shard_loads() const {
  // Copy the live service handles under the lock, poll loads outside it
  // (each load() briefly takes its shard's mutex).
  std::vector<std::shared_ptr<SortService>> svcs;
  {
    std::lock_guard g(mu_);
    svcs.reserve(slots_.size());
    for (const Slot& s : slots_) {
      svcs.push_back(s.state == SlotState::kActive ? s.service : nullptr);
    }
  }
  std::vector<ShardLoad> loads(svcs.size());
  for (usize i = 0; i < svcs.size(); ++i) {
    if (svcs[i]) {
      loads[i] = svcs[i]->load();
    } else {
      loads[i].shard = static_cast<u32>(i);  // retired placeholder
    }
  }
  return loads;
}

Cluster::PlaceResult Cluster::place_locked(const SortJobSpec& spec,
                                           usize record_bytes, u64 n,
                                           std::span<const ShardLoad> loads) {
  const bool was_pinned = router_.pinned_shard(spec.locality_key).has_value();
  // A hard pin (distributed range jobs) must land on its target or
  // nowhere: no spill scan, no sticky-spill bookkeeping.
  const bool hard_pinned = spec.target_shard != SortJobSpec::kAnyShard &&
                           router_.is_active(spec.target_shard);
  const u32 preferred = router_.place(spec, loads);
  usize carve = 0;  // of the last shard probed = the one returned
  auto fits_ever = [&](u32 i) {
    if (slots_[i].state != SlotState::kActive) return false;
    carve = slots_[i].service->admission_carve(spec, record_bytes, n);
    return carve <= slots_[i].service->budget().limit();
  };
  if (fits_ever(preferred)) {
    // A fit on the tenant's *policy-preferred* shard ends any spill
    // streak; a fit on its pinned spill target keeps the pin sticky.
    if (!was_pinned && !hard_pinned) {
      router_.note_preferred_ok(spec.locality_key);
    }
    return {preferred, true, carve};
  }
  if (hard_pinned) {
    // The pinned shard can never admit it and nothing else is allowed
    // to: reject cluster-wide (the shard writes the rejection record).
    ++rejected_cluster_wide_;
    return {preferred, false, 0};
  }
  // Overflow spill: the preferred shard would reject this job outright
  // (its carve exceeds the whole shard budget). Retry on the least-loaded
  // shard that can admit it before letting the rejection stand; after
  // spill_promote_after consecutive spills the router pins the tenant to
  // its spill target and stops re-scanning (sticky spill-back).
  const u32 alt = router_.least_loaded_where(loads, preferred, fits_ever);
  if (alt != ShardRouter::kNone) {
    ++spilled_;
    router_.note_spill(spec.locality_key, alt);
    // The scan probed several shards; re-ask the winner for its carve.
    return {alt, true,
            slots_[alt].service->admission_carve(spec, record_bytes, n)};
  }
  // No shard fits: submit to the preferred shard anyway so the tenant
  // gets a job record with the rejection reason. (The carve is unused —
  // rejects dispatch directly.)
  ++rejected_cluster_wide_;
  return {preferred, false, 0};
}

void Cluster::add_record_locked(JobId id, JobInfo rec) {
  records_.emplace(id, std::move(rec));
  record_fifo_.push_back(id);
  if (cfg_.retain_cluster_records_max == 0) return;
  // FIFO entries may be stale (forget() erases records without scrubbing
  // the queue); popping a stale id just advances the cursor.
  while (records_.size() > cfg_.retain_cluster_records_max &&
         !record_fifo_.empty()) {
    records_.erase(record_fifo_.front());
    record_fifo_.pop_front();
  }
}

JobInfo Cluster::held_snapshot(const HeldJob& h, JobState state) {
  JobInfo out;
  out.id = h.id;
  out.shard = h.home;
  out.name = h.job.spec.name;
  out.state = state;
  out.n = h.job.n;
  out.priority = h.job.spec.priority;
  out.trace_id = h.job.spec.trace_id;
  out.parent_trace_id = h.job.spec.parent_trace_id;
  out.queue_s = seconds(Clock::now() - h.t_submit);
  return out;
}

bool Cluster::held_before(const HeldJob& a, const HeldJob& b) {
  if (a.job.spec.priority != b.job.spec.priority) {
    return a.job.spec.priority > b.job.spec.priority;
  }
  if (a.deadline_abs != b.deadline_abs) return a.deadline_abs < b.deadline_abs;
  return a.id < b.id;
}

void Cluster::hold_insert_locked(HeldJob h) {
  const JobId id = h.id;
  jobtrace::FlightRecorder::instance().record(
      h.job.spec.trace_id, jobtrace::EventKind::kParked,
      h.park_reason.c_str(), h.home);
  jobtrace::Scope scope(h.job.spec.trace_id, h.job.spec.parent_trace_id);
  auto pos = std::upper_bound(hold_.begin(), hold_.end(), h, held_before);
  hold_.insert(pos, std::move(h));
  PDM_TRACE_INSTANT_ARG("cluster", "job_parked", "job", id);
  note_hold_depth(hold_.size());
}

void Cluster::on_capacity_freed() {
  std::lock_guard g(mu_);
  if (stopping_) return;
  pump_locked();
}

void Cluster::pump_locked() {
  if (stopping_ || hold_.empty() || router_.num_active() == 0) return;
  const std::vector<u32> act = router_.active();  // copy: dispatch mutates
  // Fresh headroom snapshot (each load() briefly takes its shard's
  // mutex; lock order is always cluster -> shard).
  std::vector<ShardLoad> loads(slots_.size());
  for (u32 s : act) loads[s] = slots_[s].service->load();

  auto& flight = jobtrace::FlightRecorder::instance();
  for (usize i = 0; i < hold_.size();) {
    HeldJob& h = hold_[i];
    // Stamp this iteration's instants/retro-spans with the held job's id.
    jobtrace::Scope trace_scope(h.job.spec.trace_id,
                                h.job.spec.parent_trace_id);
    auto carve_on = [&](u32 s) {
      return slots_[s].service->admission_carve(h.job.spec,
                                                h.job.record_bytes, h.job.n);
    };
    // A home that was drained re-routes once (and sticks, so repeated
    // pumps don't re-roll round-robin state for the same job). A hard
    // pin on a drained shard dissolves back to router placement first
    // (cannot happen to distributed ranges — their shards are fenced).
    if (!router_.is_active(h.home)) {
      if (h.job.spec.target_shard != SortJobSpec::kAnyShard &&
          !router_.is_active(h.job.spec.target_shard)) {
        h.job.spec.target_shard = SortJobSpec::kAnyShard;
      }
      h.home = router_.place(h.job.spec, loads);
    }
    // Deadline pump admission: a parked deadline job whose calibrated run
    // estimate no longer fits inside the time it has left can only be
    // dispatched to miss — reject it at the pump instead of burning a
    // shard slot on a hopeless run. Gated on the home shard's
    // deadline_admission flag, like the shard-side check it front-runs,
    // and calibrated by the same EMA the shard feeds (deadline_cal).
    if (h.job.spec.deadline_s > 0 &&
        slots_[h.home].service->config().deadline_admission) {
      SortService& svc = *slots_[h.home].service;
      const double est =
          svc.estimate_run_s(h.job.spec, h.job.record_bytes, h.job.n);
      const double ratio = svc.deadline_cal();
      const double cal = ratio > 0 ? ratio : 1.0;
      const double remaining =
          h.job.spec.deadline_s - seconds(Clock::now() - h.t_submit);
      if (est > 0 && est * cal > remaining) {
        JobInfo rec = held_snapshot(h, JobState::kRejected);
        rec.error = "deadline admission (pump): calibrated run estimate " +
                    std::to_string(est * cal) +
                    "s exceeds the deadline's remaining " +
                    std::to_string(std::max(0.0, remaining)) + "s";
        flight.note_end(h.job.spec.trace_id, jobtrace::EventKind::kRejected,
                        rec.error.c_str(), /*bad=*/true, h.home);
        PDM_TRACE_INSTANT_ARG("cluster", "held_rejected_deadline", "job",
                              h.id);
        add_record_locked(h.id, std::move(rec));
        jobs_.erase(h.id);
        ++held_rejected_;
        ++held_rejected_deadline_;
        ++rejected_cluster_wide_;
        hold_.erase(hold_.begin() + static_cast<std::ptrdiff_t>(i));
        note_hold_depth(hold_.size());
        continue;
      }
    }
    // A hard-pinned job dispatches to its pin or stays parked: no steal.
    const bool hard_pinned =
        h.job.spec.target_shard != SortJobSpec::kAnyShard &&
        router_.is_active(h.job.spec.target_shard);
    u32 target = ShardRouter::kNone;
    usize target_carve = 0;
    bool fits_somewhere = false;
    {
      const usize c = carve_on(h.home);
      if (c <= slots_[h.home].service->budget().limit()) {
        fits_somewhere = true;
        if (!cfg_.hold_queue || loads[h.home].fits_now(c)) {
          target = h.home;
          target_carve = c;
        }
      }
    }
    if (target == ShardRouter::kNone && !hard_pinned) {
      // Steal scan: the least-loaded other shard that can take it now
      // (or, with the hold queue disabled — migration-only mode — that
      // can ever take it).
      double best = 0;
      for (u32 s : act) {
        if (s == h.home) continue;
        const usize c = carve_on(s);
        if (c > slots_[s].service->budget().limit()) continue;
        fits_somewhere = true;
        if (cfg_.hold_queue && !loads[s].fits_now(c)) continue;
        if (target == ShardRouter::kNone || loads[s].score() < best) {
          target = s;
          target_carve = c;
          best = loads[s].score();
        }
      }
    }
    if (!fits_somewhere) {
      // Every shard that could ever have admitted it was drained:
      // reject cluster-side with a terminal record.
      JobInfo rec = held_snapshot(h, JobState::kRejected);
      rec.error =
          "admission control: no active shard can fit the job's memory "
          "carve (its fitting shards were drained)";
      flight.note_end(h.job.spec.trace_id, jobtrace::EventKind::kRejected,
                      rec.error.c_str(), /*bad=*/true, h.home);
      add_record_locked(h.id, std::move(rec));
      jobs_.erase(h.id);
      ++held_rejected_;
      ++rejected_cluster_wide_;
      hold_.erase(hold_.begin() + static_cast<std::ptrdiff_t>(i));
      note_hold_depth(hold_.size());
      continue;
    }
    if (target == ShardRouter::kNone) {
      ++i;  // nobody has headroom yet; a capacity callback will retry
      continue;
    }
    // Dispatch. Deadlines are wall-clock promises made at submission:
    // charge the time spent parked against the relative deadline the
    // serving shard sees.
    const double parked_s = seconds(Clock::now() - h.t_submit);
    if (h.job.spec.deadline_s > 0) {
      h.job.spec.deadline_s = std::max(1e-9, h.job.spec.deadline_s - parked_s);
    }
    metrics::Registry::global().histogram("cluster.hold_park_ns").record(
        parked_s > 0 ? static_cast<u64>(parked_s * 1e9) : 0);
    if (trace::TraceLog::instance().enabled()) {
      // Retro-span covering the park: submission to this dispatch.
      const u64 now_ns = trace::TraceLog::now_ns();
      const u64 dur = std::min(
          now_ns, parked_s > 0 ? static_cast<u64>(parked_s * 1e9) : 0);
      trace::TraceLog::instance().complete("cluster", "hold_park",
                                           now_ns - dur, dur, "job", h.id);
    }
    if (target != h.home) {
      // Steal: record both shard ids — where the job was placed (home)
      // and where it actually dispatched.
      flight.record(h.job.spec.trace_id, jobtrace::EventKind::kStolen,
                    nullptr, h.home, target);
    }
    flight.record(h.job.spec.trace_id, jobtrace::EventKind::kDispatched,
                  nullptr, target);
    const JobId local =
        slots_[target].service->submit_prepared(std::move(h.job));
    jobs_[h.id] = Placement{target, local};
    ++jobs_per_shard_[target];
    if (target != h.home) {
      ++stolen_;
      trace::TraceLog::instance().instant("cluster", "job_stolen", "from",
                                          h.home, "to", target);
    }
    // Reflect the reservation in our load copy so later holds in this
    // pump see the shard as (possibly) full again.
    loads[target].queued += 1;
    loads[target].reserved_bytes += target_carve;
    hold_.erase(hold_.begin() + static_cast<std::ptrdiff_t>(i));
    note_hold_depth(hold_.size());
  }
  place_cv_.notify_all();
}

JobId Cluster::submit_prepared(PreparedJob job) {
  PDM_CHECK(job.run != nullptr, "submit_prepared: empty job");
  // Cluster admission is the id minting point for routed jobs (range
  // sub-jobs arrive with ids already assigned by submit_distributed).
  if (job.spec.trace_id == 0) job.spec.trace_id = jobtrace::mint();
  jobtrace::Scope trace_scope(job.spec.trace_id, job.spec.parent_trace_id);
  // Placement cost = load polling + lock wait + routing decision.
  trace::TraceSpan place_span("cluster", "placement", "n", job.n);
  std::vector<ShardLoad> loads = shard_loads();
  std::unique_lock lock(mu_);
  PDM_CHECK(!stopping_, "Cluster is shutting down");
  // An add_shard may have landed between the loads snapshot and the
  // lock: top the snapshot up so it covers every slot (each load()
  // briefly takes its shard's mutex — cluster -> shard order).
  while (loads.size() < slots_.size()) {
    const usize i = loads.size();
    loads.push_back(slots_[i].state == SlotState::kActive
                        ? slots_[i].service->load()
                        : ShardLoad{.shard = static_cast<u32>(i)});
  }
  const JobId id = next_id_++;
  const PlaceResult pr =
      place_locked(job.spec, job.record_bytes, job.n, loads);
  place_span.end();
  // Direct dispatch when the hold queue is off, the job is a cluster-wide
  // reject (the shard produces the rejection record), or the placed shard
  // has headroom AND no earlier job is parked (order preservation: a
  // non-empty queue means everything routes through it).
  const bool direct = !cfg_.hold_queue || !pr.admissible ||
                      (hold_.empty() && loads[pr.shard].fits_now(pr.carve));
  if (direct) {
    auto svc = slots_[pr.shard].service;
    ++slots_[pr.shard].in_flight_submits;
    lock.unlock();
    JobId local = 0;
    try {
      local = svc->submit_prepared(std::move(job));
    } catch (...) {
      lock.lock();
      --slots_[pr.shard].in_flight_submits;
      place_cv_.notify_all();
      throw;
    }
    lock.lock();
    --slots_[pr.shard].in_flight_submits;
    jobs_.emplace(id, Placement{pr.shard, local});
    ++jobs_per_shard_[pr.shard];
    place_cv_.notify_all();
  } else {
    HeldJob h;
    h.id = id;
    h.home = pr.shard;
    h.t_submit = Clock::now();
    if (job.spec.deadline_s > 0) {
      h.deadline_abs =
          h.t_submit + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(job.spec.deadline_s));
    }
    h.park_reason = !hold_.empty()
                        ? "queued behind earlier parked jobs"
                        : "no headroom on home shard";
    h.job = std::move(job);
    hold_insert_locked(std::move(h));
    jobs_.emplace(id, Placement{});  // kHeldShard
    ++held_total_;
    pump_locked();  // may dispatch immediately (idle shards steal)
  }
  maybe_prune_locked();
  return id;
}

u32 Cluster::add_shard() { return add_shard(cfg_.shard); }

u32 Cluster::add_shard(ServiceConfig sc) {
  std::lock_guard topo(topo_mu_);
  u32 id = 0;
  {
    std::lock_guard g(mu_);
    PDM_CHECK(!stopping_, "Cluster is shutting down");
    id = static_cast<u32>(slots_.size());
  }
  // Build the service outside the cluster mutex (its workers start
  // immediately); topo_mu_ keeps the id reservation safe.
  auto svc = make_service(id, std::move(sc));
  std::lock_guard g(mu_);
  slots_.push_back(Slot{std::move(svc), SlotState::kActive, 0});
  jobs_per_shard_.push_back(0);
  router_.add_shard(id);
  ++shards_added_;
  // The newcomer steals parked backlog right away.
  pump_locked();
  place_cv_.notify_all();
  return id;
}

void Cluster::drain_shard(u32 id) {
  std::lock_guard topo(topo_mu_);
  std::shared_ptr<SortService> svc;
  {
    std::unique_lock lock(mu_);
    PDM_CHECK(id < slots_.size(), "drain_shard: unknown shard");
    PDM_CHECK(slots_[id].state == SlotState::kActive,
              "drain_shard: shard is not active");
    PDM_CHECK(router_.num_active() > 1,
              "drain_shard: cannot drain the last active shard");
    // Graceful-shrink guard: a shard that owns an in-flight distributed
    // range cannot retire — pinned ranges do not migrate. Checked under
    // mu_ BEFORE any state changes (dist_begin assigns targets under the
    // same mutex, so the fence cannot be raced), so a veto leaves the
    // topology untouched.
    for (const auto& [did, dj] : dist_jobs_) {
      for (u32 owner : dj.info.range_shards) {
        PDM_CHECK(owner != id,
                  "drain_shard: shard owns an in-flight range of "
                  "distributed job '" +
                      dj.info.name + "' (id " + std::to_string(did) +
                      "); distributed_wait() it before retiring the shard");
      }
    }
    slots_[id].state = SlotState::kDraining;
    router_.remove_shard(id);  // placement and pumps stop picking it
    // Direct submits that chose this shard before the drain settle
    // first, so extraction sees every queued job.
    place_cv_.wait(lock,
                   [&] { return slots_[id].in_flight_submits == 0; });
    svc = slots_[id].service;
  }
  // Phase A: pull every still-queued job off the shard. Their shard
  // records go kMigrated (waiters bounce back to us); running jobs are
  // untouched and finish below.
  auto extracted = svc->extract_queued();
  {
    std::lock_guard g(mu_);
    // Reverse-map this shard's local ids to cluster ids.
    std::map<JobId, JobId> to_cluster;
    for (const auto& [cid, p] : jobs_) {
      if (p.shard == id) to_cluster[p.local] = cid;
    }
    for (auto& ex : extracted) {
      auto found = to_cluster.find(ex.local_id);
      // Jobs submitted directly to the shard (bypassing the cluster)
      // have no cluster id; adopt them under a fresh one so they are
      // not lost.
      const JobId cid =
          found != to_cluster.end() ? found->second : next_id_++;
      if (found != to_cluster.end() && jobs_per_shard_[id] > 0) {
        --jobs_per_shard_[id];  // it re-counts where it re-places
      }
      HeldJob h;
      h.id = cid;
      h.home = id;  // inactive now; pump re-routes it once
      h.t_submit = ex.t_submit;
      if (ex.job.spec.deadline_s > 0) {
        h.deadline_abs =
            ex.t_submit +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(ex.job.spec.deadline_s));
      }
      h.park_reason = "migrated off draining shard " + std::to_string(id);
      jobtrace::FlightRecorder::instance().record(
          ex.job.spec.trace_id, jobtrace::EventKind::kMigrated, nullptr, id);
      jobtrace::Scope scope(ex.job.spec.trace_id,
                            ex.job.spec.parent_trace_id);
      h.job = std::move(ex.job);
      hold_insert_locked(std::move(h));
      jobs_[cid] = Placement{};  // kHeldShard
      ++migrated_;
      PDM_TRACE_INSTANT_ARG("cluster", "job_migrated", "job", cid);
    }
    // Phase B: re-place the migrants immediately where possible, and
    // wake waiters that saw kMigrated so they re-resolve.
    pump_locked();
    place_cv_.notify_all();
  }
  // Phase C: running (and claimed) jobs finish on the shard.
  svc->drain();
  // Phase D: move the shard's terminal records and final stats into
  // cluster-held storage, then retire the slot. Waiters still blocked
  // inside svc->wait() hold their own shared_ptr — the service object
  // outlives them.
  {
    std::lock_guard g(mu_);
    std::map<JobId, JobId> to_cluster;
    for (const auto& [cid, p] : jobs_) {
      if (p.shard == id) to_cluster[p.local] = cid;
    }
    for (JobInfo ji : svc->jobs()) {
      auto found = to_cluster.find(ji.id);
      if (found == to_cluster.end()) continue;  // direct-to-shard submit
      ji.id = found->second;
      const JobId cid = found->second;
      add_record_locked(cid, std::move(ji));
      jobs_.erase(cid);
    }
    // Placements still pointing here belong to records the shard's
    // retention policy evicted before the drain: drop them, so lookups
    // throw "unknown job id" exactly as post-eviction lookups always
    // have (instead of dangling on a retired slot).
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      it = it->second.shard == id ? jobs_.erase(it) : ++it;
    }
    ServiceStats fin = svc->stats();
    fin.retained = 0;  // its records are cluster-held now
    retired_stats_.emplace(id, std::move(fin));
    slots_[id].service.reset();  // svc still holds a ref; dtor runs below
    slots_[id].state = SlotState::kRetired;
    ++shards_drained_;
    place_cv_.notify_all();
  }
  svc->set_capacity_callback(nullptr);
  // svc's destructor (joining the shard's idle workers) runs here if we
  // held the last reference — outside every lock.
}

bool Cluster::shard_active(u32 id) const {
  std::lock_guard g(mu_);
  return id < slots_.size() && slots_[id].state == SlotState::kActive;
}

std::vector<u32> Cluster::active_shards() const {
  std::lock_guard g(mu_);
  return router_.active();
}

usize Cluster::num_shards() const {
  std::lock_guard g(mu_);
  return slots_.size();
}

SortService& Cluster::shard(usize i) {
  std::lock_guard g(mu_);
  PDM_CHECK(i < slots_.size(), "cluster: unknown shard");
  PDM_CHECK(slots_[i].service != nullptr, "cluster: shard is retired");
  return *slots_[i].service;
}

Cluster::Placement Cluster::placement_of(JobId id) const {
  std::lock_guard g(mu_);
  auto it = jobs_.find(id);
  PDM_CHECK(it != jobs_.end(), "cluster: unknown job id");
  return it->second;
}

JobInfo Cluster::wait(JobId id) {
  std::unique_lock lock(mu_);
  for (;;) {
    if (auto r = records_.find(id); r != records_.end()) return r->second;
    auto it = jobs_.find(id);
    PDM_CHECK(it != jobs_.end(), "cluster: unknown job id");
    const Placement p = it->second;
    if (p.shard == kHeldShard || slots_[p.shard].service == nullptr) {
      // Parked (or racing a retirement that is about to publish the
      // record): wait for the placement or record to change.
      place_cv_.wait(lock);
      continue;
    }
    auto svc = slots_[p.shard].service;
    lock.unlock();
    JobInfo info = svc->wait(p.local);
    // Drop the shard reference before re-taking mu_: if the shard retired
    // meanwhile this may be the last one, and ~SortService joins workers
    // that can be blocked on mu_ inside the capacity callback.
    svc.reset();
    lock.lock();
    if (info.state == JobState::kMigrated) {
      // Extracted off a draining shard between our placement read and
      // the shard-side wait; wait for the re-placement to land.
      place_cv_.wait(lock, [&] {
        if (records_.count(id) != 0) return true;
        auto again = jobs_.find(id);
        return again == jobs_.end() ||
               again->second.shard != p.shard ||
               again->second.local != p.local;
      });
      continue;
    }
    info.id = id;
    return info;
  }
}

JobInfo Cluster::info(JobId id) const {
  std::unique_lock lock(mu_);
  for (;;) {
    if (auto r = records_.find(id); r != records_.end()) return r->second;
    auto it = jobs_.find(id);
    PDM_CHECK(it != jobs_.end(), "cluster: unknown job id");
    const Placement p = it->second;
    if (p.shard == kHeldShard) {
      // Synthesize a queued snapshot from the hold entry.
      auto held = std::find_if(hold_.begin(), hold_.end(),
                               [&](const HeldJob& h) { return h.id == id; });
      PDM_ASSERT(held != hold_.end(), "held placement without a hold entry");
      return held_snapshot(*held, JobState::kQueued);
    }
    if (slots_[p.shard].service == nullptr) {
      place_cv_.wait(lock);  // racing a retirement's record publication
      continue;
    }
    auto svc = slots_[p.shard].service;
    lock.unlock();
    bool migrated = false;
    try {
      JobInfo out = svc->info(p.local);
      if (out.state != JobState::kMigrated) {
        out.id = id;
        return out;
      }
      migrated = true;
    } catch (const Error&) {
      // The record vanished under us (extraction or retention); if the
      // placement moved on, retry against the new home — otherwise it
      // really is gone.
      svc.reset();  // never release a shard under mu_ (see wait())
      lock.lock();
      auto again = jobs_.find(id);
      if (again != jobs_.end() && again->second.shard == p.shard &&
          again->second.local == p.local && records_.count(id) == 0) {
        throw;
      }
      continue;
    }
    svc.reset();
    lock.lock();
    if (migrated) {
      // Extracted off a draining shard; wait for the re-placement.
      place_cv_.wait(lock, [&] {
        if (records_.count(id) != 0) return true;
        auto again = jobs_.find(id);
        return again == jobs_.end() || again->second.shard != p.shard ||
               again->second.local != p.local;
      });
    }
  }
}

bool Cluster::cancel(JobId id) {
  {
    std::lock_guard g(mu_);
    if (dist_records_.count(id) != 0) return false;  // terminal distributed
  }
  if (dist_cancel(id)) return true;
  std::unique_lock lock(mu_);
  for (;;) {
    if (records_.count(id) != 0) return false;  // already terminal
    auto held = std::find_if(hold_.begin(), hold_.end(),
                             [&](const HeldJob& h) { return h.id == id; });
    if (held != hold_.end()) {
      jobtrace::FlightRecorder::instance().note_end(
          held->job.spec.trace_id, jobtrace::EventKind::kCancelled,
          "cancelled while parked", /*bad=*/true, held->home);
      add_record_locked(id, held_snapshot(*held, JobState::kCancelled));
      hold_.erase(held);
      note_hold_depth(hold_.size());
      jobs_.erase(id);  // the record answers lookups from here on
      ++held_cancelled_;
      place_cv_.notify_all();
      return true;
    }
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    const Placement p = it->second;
    if (p.shard == kHeldShard) {
      // Placement says held but the hold entry is gone: a pump is
      // mid-dispatch is impossible (both happen under mu_), so this is
      // a record transition we raced; retry.
      place_cv_.wait(lock);
      continue;
    }
    if (slots_[p.shard].service == nullptr) {
      place_cv_.wait(lock);  // racing retirement's record publication
      continue;
    }
    auto svc = slots_[p.shard].service;
    lock.unlock();
    const bool ok = svc->cancel(p.local);
    svc.reset();  // never release a shard under mu_ (see wait())
    lock.lock();
    if (ok) return true;
    // A false may mean "terminal" — or "migrated away mid-call". Retry
    // only if the placement moved.
    auto again = jobs_.find(id);
    if (again == jobs_.end() || (again->second.shard == p.shard &&
                                 again->second.local == p.local)) {
      return false;
    }
  }
}

bool Cluster::forget(JobId id) {
  std::unique_lock lock(mu_);
  if (auto r = records_.find(id); r != records_.end()) {
    records_.erase(r);
    jobs_.erase(id);
    return true;
  }
  if (auto d = dist_records_.find(id); d != dist_records_.end()) {
    dist_records_.erase(d);
    place_cv_.notify_all();  // racing distributed_wait()ers must throw
    return true;
  }
  if (dist_jobs_.count(id) != 0) return false;  // coordinator still live
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  const Placement p = it->second;
  if (p.shard == kHeldShard) return false;  // still queued (held)
  if (slots_[p.shard].service == nullptr) return false;  // racing retirement
  auto svc = slots_[p.shard].service;
  lock.unlock();
  // The shard refuses while the job is queued/running; a record the
  // shard's retention policy already dropped counts as forgotten.
  const bool dropped = svc->forget(p.local) || !svc->known(p.local);
  svc.reset();  // never release a shard under mu_ (see wait())
  lock.lock();
  auto again = jobs_.find(id);
  if (again == jobs_.end() || again->second.shard != p.shard ||
      again->second.local != p.local) {
    return false;  // migrated away mid-call: the job lives elsewhere
  }
  if (!dropped) return false;
  jobs_.erase(again);
  return true;
}

void Cluster::maybe_prune_locked() {
  if (++submits_since_prune_ < kPruneInterval) return;
  submits_since_prune_ = 0;
  // Amortized O(1) per submit: without this, shard-side retention would
  // leave the cluster's id map growing one dead mapping per evicted job.
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    const Placement& p = it->second;
    if (p.shard != kHeldShard && slots_[p.shard].service != nullptr &&
        !slots_[p.shard].service->known(p.local)) {
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
}

void Cluster::drain() {
  for (;;) {
    {
      std::unique_lock lock(mu_);
      place_cv_.wait(lock,
                     [&] { return hold_.empty() && dist_jobs_.empty(); });
    }
    // Everything is dispatched; drain the active shards (outside mu_ —
    // capacity callbacks must be able to pump while we block).
    std::vector<std::shared_ptr<SortService>> svcs;
    {
      std::lock_guard g(mu_);
      for (const Slot& s : slots_) {
        if (s.state == SlotState::kActive) svcs.push_back(s.service);
      }
    }
    for (auto& s : svcs) s->drain();
    std::lock_guard g(mu_);
    bool settled = hold_.empty() && dist_jobs_.empty();
    for (const Slot& s : slots_) settled = settled && s.in_flight_submits == 0;
    if (settled) return;
  }
}

double Cluster::seconds_since(Clock::time_point t0) {
  return seconds(Clock::now() - t0);
}

Cluster::DistBegin Cluster::dist_begin(const std::string& name,
                                       const RangePartitionStats& pst,
                                       u64 trace_id) {
  std::lock_guard g(mu_);
  PDM_CHECK(!stopping_, "Cluster is shutting down");
  PDM_CHECK(router_.num_active() > 0, "submit_distributed: no active shards");
  DistBegin b;
  b.id = next_id_++;
  const std::vector<u32>& act = router_.active();
  b.targets.reserve(pst.ranges);
  for (u32 r = 0; r < pst.ranges; ++r) {
    b.targets.push_back(act[r % act.size()]);
  }
  DistJob dj;
  dj.info.id = b.id;
  dj.info.name = name;
  dj.info.trace_id = trace_id;
  dj.info.state = JobState::kRunning;
  dj.info.n = pst.n;
  dj.info.oversample = pst.oversample;
  dj.info.skew = pst.skew;
  dj.info.range_shards = b.targets;
  dj.info.sub_jobs.assign(pst.ranges, 0);
  dj.info.range_records = pst.sizes;
  dj.info.range_reports.resize(pst.ranges);
  dist_jobs_.emplace(b.id, std::move(dj));
  ++dist_submitted_;
  return b;
}

void Cluster::dist_set_sub(JobId dist, u32 range, JobId sub) {
  bool cancel_now = false;
  {
    std::lock_guard g(mu_);
    auto it = dist_jobs_.find(dist);
    PDM_ASSERT(it != dist_jobs_.end(), "dist_set_sub: unknown job");
    it->second.info.sub_jobs[range] = sub;
    cancel_now = it->second.cancel_requested;
  }
  // cancel() raced the submission loop: the latch covers the gap.
  if (cancel_now) cancel(sub);
}

void Cluster::dist_spawn(JobId dist, std::function<void()> body) {
  std::vector<std::thread> reap;
  {
    std::lock_guard g(mu_);
    PDM_CHECK(!stopping_, "Cluster is shutting down");
    auto dj = dist_jobs_.find(dist);
    PDM_ASSERT(dj != dist_jobs_.end(), "dist_spawn: unknown job");
    const u64 trace_id = dj->second.info.trace_id;
    reap = reap_dist_threads_locked();
    const u64 token = next_dist_thread_++;
    dist_threads_.emplace(
        token, std::thread([this, token, trace_id, b = std::move(body)] {
          trace::TraceLog::instance().set_thread_name("dist-coord");
          {
            // The coordinator works on the distributed job's behalf:
            // dist_coordinate and the dist_concat inside the body carry
            // its id.
            jobtrace::Scope scope(trace_id);
            trace::TraceSpan span("cluster", "dist_coordinate");
            b();
          }
          // Last touch of the cluster: queue this thread for reaping by
          // the next dist_spawn (or the destructor, which joins the
          // whole registry regardless).
          std::lock_guard done(mu_);
          dist_finished_threads_.push_back(token);
        }));
  }
  for (auto& t : reap) t.join();
}

std::vector<std::thread> Cluster::reap_dist_threads_locked() {
  std::vector<std::thread> done;
  done.reserve(dist_finished_threads_.size());
  for (u64 token : dist_finished_threads_) {
    if (auto it = dist_threads_.find(token); it != dist_threads_.end()) {
      done.push_back(std::move(it->second));
      dist_threads_.erase(it);
    }
  }
  dist_finished_threads_.clear();
  return done;
}

DistributedInfo Cluster::dist_seal(JobId dist, JobState fin,
                                   std::vector<SortReport> reports,
                                   std::string error, double wall_s) {
  std::lock_guard g(mu_);
  auto it = dist_jobs_.find(dist);
  PDM_ASSERT(it != dist_jobs_.end(), "dist_seal: unknown job");
  DistributedInfo& info = it->second.info;
  info.state = fin;
  if (reports.size() == info.range_reports.size()) {
    info.range_reports = std::move(reports);
  }
  info.error = std::move(error);
  info.wall_s = wall_s;
  return info;
}

void Cluster::dist_publish(JobId dist) {
  std::lock_guard g(mu_);
  auto it = dist_jobs_.find(dist);
  PDM_ASSERT(it != dist_jobs_.end(), "dist_publish: unknown job");
  DistributedInfo info = std::move(it->second.info);
  switch (info.state) {
    case JobState::kDone: ++dist_completed_; break;
    case JobState::kCancelled: ++dist_cancelled_; break;
    default: ++dist_failed_; break;
  }
  jobtrace::FlightRecorder::instance().note_end(
      info.trace_id,
      info.state == JobState::kCancelled ? jobtrace::EventKind::kCancelled
                                         : jobtrace::EventKind::kFinished,
      job_state_name(info.state), /*bad=*/info.state != JobState::kDone);
  dist_last_range_records_ = info.range_records;
  dist_last_skew_ = info.skew;
  dist_max_skew_ = std::max(dist_max_skew_, info.skew);
  dist_jobs_.erase(it);
  dist_records_.emplace(dist, std::move(info));
  place_cv_.notify_all();  // distributed_wait()ers and drain()
}

bool Cluster::dist_cancel(JobId id) {
  std::vector<JobId> subs;
  {
    std::lock_guard g(mu_);
    auto it = dist_jobs_.find(id);
    if (it == dist_jobs_.end()) return false;
    it->second.cancel_requested = true;
    for (JobId s : it->second.info.sub_jobs) {
      if (s != 0) subs.push_back(s);
    }
  }
  // Sub-job cancellation outside mu_ (cancel() relocks it). Best effort:
  // ranges already past their last checkpoint finish regardless.
  for (JobId s : subs) cancel(s);
  return true;
}

DistributedInfo Cluster::distributed_wait(JobId id) {
  std::unique_lock lock(mu_);
  PDM_CHECK(dist_jobs_.count(id) != 0 || dist_records_.count(id) != 0,
            "cluster: unknown distributed job id");
  // "No longer live" also covers a record forget() dropped mid-wait —
  // without it a forgotten id would block here forever.
  place_cv_.wait(lock, [&] {
    return dist_records_.count(id) != 0 || dist_jobs_.count(id) == 0;
  });
  auto it = dist_records_.find(id);
  PDM_CHECK(it != dist_records_.end(),
            "cluster: distributed job record was forgotten");
  return it->second;
}

DistributedInfo Cluster::distributed_info(JobId id) const {
  std::lock_guard g(mu_);
  if (auto r = dist_records_.find(id); r != dist_records_.end()) {
    return r->second;
  }
  auto it = dist_jobs_.find(id);
  PDM_CHECK(it != dist_jobs_.end(), "cluster: unknown distributed job id");
  return it->second.info;
}

u32 Cluster::shard_of(JobId id) const {
  {
    std::lock_guard g(mu_);
    if (auto r = records_.find(id); r != records_.end()) {
      return r->second.shard;
    }
  }
  return placement_of(id).shard;
}

ClusterStats Cluster::stats() const {
  ClusterStats c;
  // Live shard snapshots are taken outside the cluster lock (each
  // stats() takes its shard's mutex); retired snapshots and the
  // cluster-side counters come after, under it.
  std::vector<std::shared_ptr<SortService>> svcs;
  {
    std::lock_guard g(mu_);
    svcs.reserve(slots_.size());
    for (const Slot& s : slots_) svcs.push_back(s.service);
  }
  std::vector<ServiceStats> per_shard(svcs.size());
  for (usize i = 0; i < svcs.size(); ++i) {
    if (svcs[i]) per_shard[i] = svcs[i]->stats();
  }
  {
    std::lock_guard g(mu_);
    c.shards = slots_.size();
    c.active = router_.num_active();
    for (usize i = 0; i < slots_.size(); ++i) {
      if (auto it = retired_stats_.find(static_cast<u32>(i));
          it != retired_stats_.end()) {
        per_shard[i] = it->second;  // final snapshot of a drained shard
      }
    }
    c.jobs_per_shard = jobs_per_shard_;
    c.spilled = spilled_;
    c.rejected_cluster_wide = rejected_cluster_wide_;
    c.held_now = hold_.size();
    c.held_total = held_total_;
    c.held_cancelled = held_cancelled_;
    c.held_rejected = held_rejected_;
    c.held_rejected_deadline = held_rejected_deadline_;
    c.stolen = stolen_;
    c.migrated = migrated_;
    c.shards_added = shards_added_;
    c.shards_drained = shards_drained_;
    c.cluster_records = records_.size();
    c.distributed_jobs = dist_submitted_;
    c.distributed_active = dist_jobs_.size();
    c.distributed_completed = dist_completed_;
    c.distributed_cancelled = dist_cancelled_;
    c.distributed_failed = dist_failed_;
    c.dist_range_records = dist_last_range_records_;
    c.dist_skew = dist_last_skew_;
    c.dist_skew_max = dist_max_skew_;
  }
  c.per_shard = std::move(per_shard);
  c.io.reset(0);
  double max_window = 0;
  for (const ServiceStats& s : c.per_shard) {
    c.submitted += s.submitted;
    c.completed += s.completed;
    c.failed += s.failed;
    c.cancelled += s.cancelled;
    c.rejected += s.rejected;
    c.deadline_missed += s.deadline_missed;
    c.retained += s.retained;
    c.batches_run += s.batches_run;
    c.peak_memory_bytes += s.peak_memory_bytes;
    max_window = std::max(max_window, s.busy_window_s);
    c.io.read_ops += s.io.read_ops;
    c.io.write_ops += s.io.write_ops;
    c.io.blocks_read += s.io.blocks_read;
    c.io.blocks_written += s.io.blocks_written;
    c.io.read_calls += s.io.read_calls;
    c.io.write_calls += s.io.write_calls;
    c.io.sim_time_s += s.io.sim_time_s;
    c.io.disk_reads.insert(c.io.disk_reads.end(), s.io.disk_reads.begin(),
                           s.io.disk_reads.end());
    c.io.disk_writes.insert(c.io.disk_writes.end(), s.io.disk_writes.begin(),
                            s.io.disk_writes.end());
    c.io.disk_read_calls.insert(c.io.disk_read_calls.end(),
                                s.io.disk_read_calls.begin(),
                                s.io.disk_read_calls.end());
    c.io.disk_write_calls.insert(c.io.disk_write_calls.end(),
                                 s.io.disk_write_calls.begin(),
                                 s.io.disk_write_calls.end());
    c.blocks_per_shard.push_back(s.io.total_blocks());
  }
  // Hold-queue terminals never reached a shard; parked jobs have not
  // yet: account them cluster-side so submitted = terminal sums + live.
  c.submitted += c.held_now + c.held_cancelled + c.held_rejected;
  c.cancelled += c.held_cancelled;
  c.rejected += c.held_rejected;
  c.retained += c.cluster_records;
  if (c.completed > 0 && max_window > 0) {
    c.jobs_per_sec = static_cast<double>(c.completed) / max_window;
  }
  c.job_imbalance = imbalance_ratio(c.jobs_per_shard);
  c.io_imbalance = imbalance_ratio(c.blocks_per_shard);
  return c;
}

std::string Cluster::metrics_text() const {
  {
    std::lock_guard g(mu_);
    note_hold_depth(hold_.size());
  }
  return metrics::Registry::global().text();
}

introspect::StateDump Cluster::dump_state() const {
  introspect::StateDump d;
  auto& flight = jobtrace::FlightRecorder::instance();
  {
    std::lock_guard g(mu_);
    // Reverse-map local shard ids to cluster ids so the dump's job ids
    // answer to wait()/info()/cancel().
    std::vector<std::map<JobId, JobId>> to_cluster(slots_.size());
    for (const auto& [cid, p] : jobs_) {
      if (p.shard != kHeldShard) to_cluster[p.shard][p.local] = cid;
    }
    for (usize i = 0; i < slots_.size(); ++i) {
      const Slot& slot = slots_[i];
      introspect::ShardSnapshot ss;
      ss.shard = static_cast<u32>(i);
      ss.active = slot.state == SlotState::kActive;
      if (slot.service) {
        // Shard calls under mu_ follow the established cluster -> shard
        // lock order (same as pump_locked's load() polls).
        const ShardLoad l = slot.service->load();
        ss.queued = l.queued;
        ss.running = l.running;
        ss.workers = l.workers;
        ss.reserved_bytes = l.reserved_bytes;
        ss.budget_limit = l.budget_limit;
        ss.cpu_in_use = l.cpu_in_use;
        ss.cpu_total = l.cpu_total;
        for (const JobInfo& ji : slot.service->jobs()) {
          if (job_state_terminal(ji.state)) continue;
          introspect::JobSnapshot js;
          auto found = to_cluster[i].find(ji.id);
          js.id = found != to_cluster[i].end() ? found->second : ji.id;
          js.trace_id = ji.trace_id;
          js.name = ji.name;
          js.shard = static_cast<u32>(i);
          js.state = job_state_name(ji.state);
          js.phase = flight.last_event_name(ji.trace_id);
          js.n = ji.n;
          js.priority = ji.priority;
          js.queue_s = ji.queue_s;
          js.run_s = ji.run_s;
          d.in_flight.push_back(std::move(js));
        }
      }
      d.shards.push_back(ss);
    }
    for (const HeldJob& h : hold_) {
      introspect::HeldSnapshot hs;
      hs.id = h.id;
      hs.trace_id = h.job.spec.trace_id;
      hs.name = h.job.spec.name;
      hs.home = h.home;
      hs.park_reason = h.park_reason;
      hs.n = h.job.n;
      hs.priority = h.job.spec.priority;
      hs.parked_s = seconds(Clock::now() - h.t_submit);
      d.held.push_back(std::move(hs));
    }
    d.distributed_active = dist_jobs_.size();
    note_hold_depth(hold_.size());
  }
  // Registry text after releasing mu_ (it refreshes trace gauges and
  // takes its own lock).
  d.metrics = metrics::Registry::global().text();
  return d;
}

std::string Cluster::introspect_text() const {
  return introspect::to_text(dump_state());
}

}  // namespace pdm
