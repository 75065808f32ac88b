#include "pdm/io_scheduler.h"

#include <functional>
#include <type_traits>
#include <vector>

#include "pdm/async_io.h"

namespace pdm {

IoScheduler::IoScheduler(DiskBackend& backend, CostModel cost)
    : backend_(&backend), cost_(cost) {
  stats_.reset(backend_->num_disks());
}

namespace {

template <class Req>
auto req_buf(const Req& r) {
  if constexpr (std::is_same_v<Req, ReadReq>) {
    return r.dst;
  } else {
    return r.src;
  }
}

template <class Req>
void set_stride(Req& r, i64 stride) {
  if constexpr (std::is_same_v<Req, ReadReq>) {
    r.dst_stride_bytes = stride;
  } else {
    r.src_stride_bytes = stride;
  }
}

// Merges adjacent same-disk requests with physically contiguous block
// indices and a uniform buffer stride into multi-block extent requests.
// Per-disk submission order is preserved (merging only ever fuses a
// request into the *latest* open request of its disk, and an intervening
// non-adjacent request on that disk closes the chain), so executing the
// coalesced batch through any per-disk FIFO is equivalent to executing
// the raw one.
template <class Req>
void coalesce_batch(std::span<const Req> reqs, usize block_bytes,
                    u32 num_disks, std::vector<Req>& out) {
  out.clear();
  out.reserve(reqs.size());
  static thread_local std::vector<i64> open;  // per-disk index into out
  open.assign(num_disks, -1);
  for (const Req& r : reqs) {
    const u32 d = r.where.disk;
    if (open[d] >= 0) {
      Req& o = out[static_cast<usize>(open[d])];
      if (o.where.index + o.count == r.where.index &&
          o.count + r.count <= IoScheduler::kMaxCoalesceBlocks) {
        // The merged request's uniform buffer stride: declared by either
        // multi-block side, else inferred from the pair's buffer gap
        // (a striped run's load buffer gives D * block_bytes here).
        i64 stride;
        if (o.count > 1) {
          stride = o.stride_or(block_bytes);
        } else if (r.count > 1) {
          stride = r.stride_or(block_bytes);
        } else {
          stride = req_buf(r) - req_buf(o);
        }
        const bool adjacent =
            stride != 0 &&
            req_buf(r) == req_buf(o) + static_cast<i64>(o.count) * stride &&
            (o.count == 1 || o.stride_or(block_bytes) == stride) &&
            (r.count == 1 || r.stride_or(block_bytes) == stride);
        if (adjacent) {
          o.count += r.count;
          set_stride(o, stride);
          continue;
        }
      }
    }
    open[d] = static_cast<i64>(out.size());
    out.push_back(r);
  }
}

// Builds per-disk FIFO queues and executes round t = the t-th request of
// every non-empty queue, until all queues drain. Returns the round count.
template <class Req>
u64 run_rounds(std::span<const Req> reqs, u32 num_disks,
               const std::function<void(std::span<const Req>)>& exec) {
  static thread_local std::vector<Req> round_buf;
  static thread_local std::vector<std::vector<u32>> queues;
  if (queues.size() < num_disks) queues.resize(num_disks);
  for (auto& q : queues) q.clear();
  for (usize i = 0; i < reqs.size(); ++i) {
    queues[reqs[i].where.disk].push_back(static_cast<u32>(i));
  }
  u64 rounds = 0;
  for (usize t = 0;; ++t) {
    round_buf.clear();
    for (u32 d = 0; d < num_disks; ++d) {
      if (t < queues[d].size()) round_buf.push_back(reqs[queues[d][t]]);
    }
    if (round_buf.empty()) break;
    exec(std::span<const Req>(round_buf));
    ++rounds;
  }
  return rounds;
}

// Paper ops of a batch without executing it: the longest per-disk queue in
// *blocks* (one parallel op moves at most one block per disk, so a c-block
// extent request still costs c ops' worth of load on its disk).
template <class Req>
u64 count_block_rounds(std::span<const Req> reqs, u32 num_disks) {
  static thread_local std::vector<u64> load;
  load.assign(num_disks, 0);
  u64 rounds = 0;
  for (const auto& r : reqs) {
    load[r.where.disk] += r.count;
    rounds = std::max(rounds, load[r.where.disk]);
  }
  return rounds;
}

// Rounds of the coalesced batch in *requests* per disk: what run_rounds
// will execute. Must agree with run_rounds above.
template <class Req>
u64 count_req_rounds(std::span<const Req> reqs, u32 num_disks) {
  static thread_local std::vector<u64> load;
  load.assign(num_disks, 0);
  u64 rounds = 0;
  for (const auto& r : reqs) {
    rounds = std::max(rounds, ++load[r.where.disk]);
  }
  return rounds;
}

// A batch's charge to one IoStats: the paper ops and blocks of the raw
// batch, the calls of its coalesced form, per disk too.
template <class Req>
void charge(IoStats& s, std::span<const Req> reqs, std::span<const Req> co,
            u64 rounds, u64 blocks, double sim) {
  constexpr bool w = std::is_same_v<Req, WriteReq>;
  (w ? s.write_ops : s.read_ops) += rounds;
  (w ? s.blocks_written : s.blocks_read) += blocks;
  (w ? s.write_calls : s.read_calls) += co.size();
  s.sim_time_s += sim;
  std::vector<u64>& disk_blocks = w ? s.disk_writes : s.disk_reads;
  std::vector<u64>& disk_calls = w ? s.disk_write_calls : s.disk_read_calls;
  for (const auto& r : reqs) disk_blocks[r.where.disk] += r.count;
  for (const auto& c : co) ++disk_calls[c.where.disk];
}

}  // namespace

template <class Req>
u64 IoScheduler::account(std::span<const Req> reqs) {
  constexpr bool is_write = std::is_same_v<Req, WriteReq>;
  std::vector<Req>& co = coalesced_buf<Req>();
  co.clear();
  if (reqs.empty()) return 0;
  const u32 nd = backend_->num_disks();
  u64 blocks = 0;
  for (const auto& r : reqs) {
    PDM_CHECK(r.where.disk < nd,
              is_write ? "write: bad disk" : "read: bad disk");
    PDM_CHECK(r.count > 0,
              is_write ? "write: empty request" : "read: empty request");
    blocks += r.count;
    for (u64 b = 0; b < r.count; ++b) {
      stats_.hash_request(r.where.disk, r.where.index + b, is_write);
    }
  }
  const u64 rounds = count_block_rounds<Req>(reqs, nd);
  const double sim = static_cast<double>(rounds) *
                     cost_.round_cost(backend_->block_bytes());
  if (coalescing_) {
    coalesce_batch<Req>(reqs, backend_->block_bytes(), nd, co);
  } else {
    co.assign(reqs.begin(), reqs.end());
  }
  charge<Req>(stats_, reqs, co, rounds, blocks, sim);
  if (totals_ != nullptr) {
    totals_->update([&](IoStats& t) {
      for (auto* v : {&t.disk_reads, &t.disk_writes, &t.disk_read_calls,
                      &t.disk_write_calls}) {
        if (v->size() < nd) v->resize(nd, 0);  // default-constructed
      }
      charge<Req>(t, reqs, co, rounds, blocks, sim);
    });
  }
  return rounds;
}

template <class Req>
u64 IoScheduler::execute(std::span<const Req> reqs) {
  if (reqs.empty()) return 0;
  if (pipeline_ != nullptr && pipeline_->enabled()) {
    if constexpr (std::is_same_v<Req, WriteReq>) {
      return pipeline_->write(reqs);
    } else {
      return pipeline_->read(reqs);
    }
  }
  const u64 rounds = account(reqs);
  const std::span<const Req> co = coalesced_buf<Req>();
  const u64 executed = run_rounds<Req>(
      co, backend_->num_disks(), [this](std::span<const Req> round) {
        if constexpr (std::is_same_v<Req, WriteReq>) {
          backend_->write_batch(round);
        } else {
          backend_->read_batch(round);
        }
      });
  PDM_ASSERT(executed == count_req_rounds<Req>(co, backend_->num_disks()),
             "round accounting mismatch");
  return rounds;
}

template u64 IoScheduler::account(std::span<const ReadReq>);
template u64 IoScheduler::account(std::span<const WriteReq>);

u64 IoScheduler::read(std::span<const ReadReq> reqs) { return execute(reqs); }

u64 IoScheduler::write(std::span<const WriteReq> reqs) {
  return execute(reqs);
}

}  // namespace pdm
