#include "access/streaming.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace dp::access {

void StreamingSubstrate::on_bind() {
  cache_idx_.clear();
  cache_attr_.clear();
  if (source_.file_backed()) {
    stream::EdgeFileStream* file = source_.file();
    file->set_meter(&meter_);
    stream_ = std::make_unique<EdgeStream>(*file, nullptr);
    // The decode buffer holds resident edge records of the access layer
    // — charge it against the budget for the lifetime of the bind.
    charge_resident(file->resident_buffer_edges(), "IO block buffer");
  } else {
    stream_ = std::make_unique<EdgeStream>(*g_, nullptr);
  }
  const std::vector<EdgeId>& retained = lg_->retained();
  retained_of_.assign(g_->num_edges(), core::SamplingEngine::kNotRetained);
  for (std::size_t idx = 0; idx < retained.size(); ++idx) {
    retained_of_[retained[idx]] = static_cast<std::uint32_t>(idx);
  }
  engine_ = core::SamplingEngine(nullptr, grain_);
  pass_ordinal_ = 0;
}

RetainedEdge StreamingSubstrate::load_attr(std::uint32_t idx) const {
  const EdgeId e = lg_->retained()[idx];
  const Edge edge = source_.file()->edge(e);
  return RetainedEdge{e, edge.u, edge.v, edge.w, lg_->level(e)};
}

std::uint64_t StreamingSubstrate::align_fault(
    std::uint64_t fail_at) const noexcept {
  if (fail_at == kNoFault || !source_.file_backed()) return fail_at;
  const std::uint64_t be = source_.file()->block_edges();
  return fail_at / be * be;
}

void StreamingSubstrate::stored_attrs(const std::uint32_t* idxs,
                                      std::size_t count,
                                      RetainedEdge* out) const {
  if (!table_.empty() || count == 0) {
    Substrate::stored_attrs(idxs, count, out);
    return;
  }
  // Merge walk of the ascending indices against the ascending cache: one
  // lower_bound for the batch, then a forward cursor. An index the cursor
  // cannot find (a miss, or a batch out of order) reads its file record.
  auto it = std::lower_bound(cache_idx_.begin(), cache_idx_.end(), idxs[0]);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t idx = idxs[i];
    while (it != cache_idx_.end() && *it < idx) ++it;
    if (it != cache_idx_.end() && *it == idx) {
      out[i] = cache_attr_[static_cast<std::size_t>(it - cache_idx_.begin())];
    } else {
      out[i] = load_attr(idx);
    }
  }
}

void StreamingSubstrate::fetch_edges(const std::uint32_t* idxs,
                                     std::size_t count, Edge* out) const {
  if (!table_.empty()) {
    Substrate::fetch_edges(idxs, count, out);
    return;
  }
  const EdgeId* retained = lg_->retained().data();
  const stream::EdgeFileStream* file = source_.file();
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = file->edge(retained[idxs[i]]);
  }
}

void StreamingSubstrate::materialize_union(
    const std::vector<std::uint32_t>& indices, std::vector<EdgeId>& ids,
    std::vector<Edge>& edges) const {
  if (!table_.empty()) {
    Substrate::materialize_union(indices, ids, edges);
    return;
  }
  // Runs on the offline job thread concurrently with InnerRefine. The
  // file's random-access path and the level graph are immutable for the
  // bind, so this is race-free.
  const EdgeId* retained = lg_->retained().data();
  const stream::EdgeFileStream* file = source_.file();
  ids.clear();
  edges.clear();
  ids.reserve(indices.size());
  edges.reserve(indices.size());
  for (const std::uint32_t idx : indices) {
    const EdgeId e = retained[idx];
    ids.push_back(e);
    edges.push_back(file->edge(e));
  }
}

void StreamingSubstrate::release_stored(std::size_t k) {
  Substrate::release_stored(k);
  if (table_.empty() && !cache_idx_.empty()) {
    uncharge_resident(cache_idx_.size());
    cache_idx_.clear();
    cache_attr_.clear();
  }
}

void StreamingSubstrate::multiplier_sweep(const SweepKernel& kernel) {
  // The round's ONE pass over the input. Arrivals come in stream order;
  // each retained arrival is a one-element base-relative kernel span at
  // its retained index, so the filled buffers are identical to any other
  // backend's. Graph mode serves the span from the attribute table; file
  // mode builds it from the record just decoded out of the current block.
  //
  // Fault site (phase 0): the pass may die at a deterministic arrival
  // offset (block-aligned on the file backend); the retry re-walks from
  // the start (kernel fills are pure per index, so partial fills are
  // simply overwritten) and every physical walk — including the aborted
  // ones — is charged as a pass.
  const std::uint64_t pass = pass_ordinal_++;
  const std::uint64_t m = g_->num_edges();
  const RetainedEdge* table = table_.data();
  const bool file_mode = table_.empty();
  const core::LevelGraph& lg = *lg_;
  const std::uint32_t* retained_of = retained_of_.data();
  const bool poll_chunks = stop_.armed();
  for (std::uint64_t attempt = 0;; ++attempt) {
    meter_.add_pass();
    const std::uint64_t fail_at = align_fault(
        fault_offset_or_none(FaultSite::kStreamPass, pass, 0, attempt, m));
    try {
      std::uint64_t arrival = 0;
      stream_->for_each_pass_indexed([&](EdgeId pos, const Edge& e) {
        // Pass-chunk safe point: one pass dominates a streaming round's
        // wall time, so a deadline must be able to fire inside it. The
        // kernel only fills pure per-index buffers — abandoning the pass
        // loses no state. SolveAborted is not a SubstrateFault, so it
        // bypasses the retry loop below.
        if (poll_chunks && (arrival & (kStopPollStride - 1)) == 0) {
          stop_.throw_if_stopped("stream.pass");
        }
        if (arrival++ == fail_at) {
          throw SubstrateFault(
              "stream pass died mid-pass (multiplier sweep)",
              {fault_site_name(FaultSite::kStreamPass), pass, attempt});
        }
        const std::uint32_t idx = retained_of[pos];
        if (idx == core::SamplingEngine::kNotRetained) return;
        if (file_mode) {
          const RetainedEdge re{pos, e.u, e.v, e.w, lg.level(pos)};
          kernel(idx, idx + 1, &re);
        } else {
          kernel(idx, idx + 1, table + idx);
        }
      });
      return;
    } catch (const SubstrateFault&) {
      meter_.add_faults();
      if (attempt + 1 >= retry_.max_attempts) throw;
    }
  }
}

const core::SamplingRound& StreamingSubstrate::draw(
    const std::vector<double>& prob, std::size_t t, std::uint64_t round,
    std::uint64_t seed) {
  // Same pass as the multiplier sweep (already charged): the draw decision
  // for each arriving edge is evaluated inline and only sampled edges are
  // stored. The arrival order rotates through a few shuffles so adjacent
  // rounds see different (adversarial) orders — exercising the
  // order-invariance of the counter-based masks — while the stream's
  // per-seed permutation cache stays bounded for arbitrarily long solves.
  // (On the file backend the shuffle permutes BLOCKS, keeping IO
  // sequential within each block; the masks are arrival-order-invariant,
  // so the stored sets — and the solve — stay bitwise identical.)
  const std::uint64_t order_seed = mix_combine(seed ^ 0x9e37'79b9'7f4a'7c15ULL,
                                               round & 3);
  // Fault site (phase 1): the draw shares the sweep's logical pass, so its
  // injection key is (that pass ordinal, phase 1). A failed draw attempt
  // means the fused pass physically re-walks — charged as an extra pass —
  // and the engine's draw restarts clean (its buffers reset at entry).
  const std::uint64_t pass = pass_ordinal_ == 0 ? 0 : pass_ordinal_ - 1;
  const std::uint64_t m = g_->num_edges();
  const bool poll_chunks = stop_.armed();
  for (std::uint64_t attempt = 0;; ++attempt) {
    const std::uint64_t fail_at = align_fault(
        fault_offset_or_none(FaultSite::kStreamPass, pass, 1, attempt, m));
    try {
      // The arrival probe carries both interleaved duties of the physical
      // re-walk: the deterministic mid-pass fault and the pass-chunk stop
      // poll (the draw stores only sampled edges, so abandoning it loses
      // no state either).
      const std::function<void(std::uint64_t)> probe =
          [&](std::uint64_t arrival) {
            if (poll_chunks && (arrival & (kStopPollStride - 1)) == 0) {
              stop_.throw_if_stopped("stream.pass");
            }
            if (arrival == fail_at) {
              throw SubstrateFault(
                  "stream pass died mid-pass (draw)",
                  {fault_site_name(FaultSite::kStreamPass), pass, attempt});
            }
          };
      const core::SamplingRound& draws = engine_.draw_stream_mapped(
          *stream_, retained_of_, order_seed, prob, t, round, seed,
          fail_at == kNoFault && !poll_chunks ? nullptr : &probe);
      meter_.add_round();
      meter_.store_edges(draws.stored_total());
      if (table_.empty()) {
        // File mode: snapshot the drawn union's attributes into the
        // per-round cache so the pipeline's stored_attrs() reads are RAM
        // lookups, not per-index file records. Exactly o(m) entries,
        // budget-charged, dropped at release_stored. The previous round's
        // cache was released before this draw (its Merge runs inside its
        // own run_round), but uncharge defensively in case a caller
        // skipped the release.
        if (!cache_idx_.empty()) uncharge_resident(cache_idx_.size());
        cache_idx_ = draws.union_support();
        cache_attr_.resize(cache_idx_.size());
        for (std::size_t i = 0; i < cache_idx_.size(); ++i) {
          cache_attr_[i] = load_attr(cache_idx_[i]);
        }
        charge_resident(cache_idx_.size(), "stored-sample attribute cache");
      }
      return draws;
    } catch (const SubstrateFault&) {
      meter_.add_faults();
      if (attempt + 1 >= retry_.max_attempts) throw;
      meter_.add_pass();  // the retry physically re-walks the fused pass
    }
  }
}

}  // namespace dp::access
