#pragma once
// Round-level checkpoint/resume for the outer sampling loop.
//
// A RoundCheckpoint captures everything Solver::solve mutates across outer
// rounds — the raw dual iterate (a DualSnapshot: scale, x_i(k) in
// activation order, the per-vertex maxima, the odd-set variables in stored
// order), the incumbent primal, the round position, the per-round history
// and both resource meters — so a solve killed after round k and resumed
// from the checkpoint produces a SolverResult bitwise identical to the
// uninterrupted run, on every substrate and thread count. Identity fields
// (seed, eps, p, t, sample seed, instance shape) pin the checkpoint to ONE
// solve configuration; the solver rejects a mismatched resume with
// ConfigError.
//
// Wire format (all integers little-endian):
//   "DPCK" magic | version u32 | payload size u64
//   | checksum64 (util/hash) of the payload u64 | payload
// The payload holds the fields below in order (an odd set as level, value,
// members), each vector as a u64 count followed by its elements.
// core/checkpoint.cpp names them once, in one list that the size count,
// the writer and the reader all walk.
// The checksum covers the payload and is verified BEFORE any payload parse;
// a flipped bit anywhere — header or payload — surfaces as
// CheckpointCorrupt, never as a half-restored solve. Doubles travel as
// their IEEE-754 bit patterns (bit_cast), preserving bitwise resume.
// Version bumps are strict: kVersion is the only version deserialize
// accepts (the format is a crash-recovery artifact, not an archive).

#include <cstdint>
#include <utility>
#include <vector>

#include "core/dual_state.hpp"
#include "core/solver.hpp"
#include "util/accounting.hpp"

namespace dp::core {

struct RoundCheckpoint {
  // v2: the meter block grew the separation flow-work counters (max_flows,
  // max_flows_saved, gh_full_builds, gh_incremental, gh_tree_reuses).
  // v3: identity grew graph_generation — the dynamic-graph delta counter.
  // A checkpoint cut before a delta must not silently resume against the
  // mutated graph: n/m/retained can all survive a remove+insert delta, so
  // the generation is the field that makes staleness a typed rejection.
  // v4: the meter block grew the dynamic-resolve savings (saved_rounds,
  // saved_passes, repaired_rows) and the out-of-core counters (io_bytes,
  // io_stalls, prefetch_hits, shuffle_bytes, resident_edges,
  // peak_resident) — a mid-pass kill/resume on the file backend must
  // restore its IO accounting exactly.
  // v5: the meter block lost its sketch-word counter (slot 4) with the
  // AGM sketch mirror that was its only writer; every later counter moves
  // up a slot.
  // v6: the payload checksum is checksum64 (four word-wise lanes of
  // xxHash64's round) in place of byte-wise FNV-1a; layout, fields and
  // sizes are those of v5.
  // v7: the meter block lost the four Gomory-Hu reuse counters (slots 9-12:
  // max_flows_saved, gh_full_builds, gh_incremental, gh_tree_reuses) with
  // the tree cache and incremental replay that were their only writers;
  // every later counter moves up four slots.
  static constexpr std::uint32_t kVersion = 7;

  // -- Identity: the solve configuration this checkpoint belongs to. --
  std::uint64_t solver_seed = 0;
  double eps = 0;
  double p = 0;
  std::uint64_t sparsifiers = 0;  // resolved t
  std::uint64_t sample_seed = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t retained = 0;
  std::int32_t levels = 0;
  std::uint64_t graph_generation = 0;

  // -- Position: where the outer loop resumes. --
  std::uint64_t next_round = 0;
  std::uint64_t outer_rounds = 0;
  std::uint64_t oracle_calls = 0;

  // -- Incumbent primal (support only; multiplicities are int64). --
  double best_value = 0;
  double beta = 0;
  std::vector<std::pair<std::uint64_t, std::int64_t>> best_support;

  // -- The raw dual iterate (DualState::restore's input). --
  DualSnapshot duals;

  // -- Per-round history and resource accounting. --
  std::vector<RoundStats> history;
  ResourceMeter solve_meter;
  ResourceMeter substrate_meter;

  std::vector<std::uint8_t> serialize() const;

  /// Parses and validates a serialized checkpoint. Throws CheckpointCorrupt
  /// on any structural defect: short buffer, wrong magic/version, size or
  /// checksum mismatch, truncated or oversized payload, or a meter whose
  /// running stored/resident count exceeds its peak.
  static RoundCheckpoint deserialize(const std::vector<std::uint8_t>& bytes);
};

}  // namespace dp::core
