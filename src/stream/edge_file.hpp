#pragma once
// Out-of-core edge storage — the file-backed half of the access layer.
//
// The paper's streaming model assumes the input does NOT fit in memory:
// the algorithm reads it in sequential passes and may retain only o(m)
// state between them. This file makes that real. A binary edge file
// ("DPEF") holds the graph as fixed-size blocks of 16-byte records, each
// block carrying its own checksum, and EdgeFileStream reads it back —
// mmap or buffered pread — one block at a time: the thread that runs the
// pass reads, verifies and decodes each block into one block buffer and
// hands it to the pass, so a round-iteration pass never holds m edges in
// the access layer. Only page-cached files have been measured: no
// workload reads a file that is not in the page cache. A cold file would
// fault each block on the pass thread, and the draw's shuffled re-walk
// visits blocks in an order the kernel's readahead does not follow.
//
// Wire format v2 (all integers little-endian):
//   header (40 bytes):
//     "DPEF" magic | version u32 | n u64 | m u64 | block_edges u64
//     | checksum64 (util/hash) of the preceding 32 bytes
//   then ceil(m / block_edges) blocks, block b holding records
//   [b*block_edges, min(m, (b+1)*block_edges)):
//     per edge: u u32 | v u32 | w as IEEE-754 bit pattern u64   (16 bytes)
//     then the block's checksum64 over its record bytes.
// v1 sealed the same layout with byte-wise FNV-1a; a v1 file is rejected
// as an unsupported version. The total file size is exact; a truncated or
// padded file is rejected at open, and a flipped bit anywhere surfaces as
// CheckpointCorrupt at open (header) or at the first pass that decodes
// the damaged block — never as a silently wrong solve. Every pass
// verifies every block it decodes, so a block damaged between two passes
// fails the next one. Weights travel as bit patterns, so a file
// round-trip is bitwise lossless.
//
// Accounting (util/accounting): every block decode charges its bytes
// (io_bytes) and one IO stall (io_stalls: the pass waited for the block)
// to the attached ResourceMeter. Random-access reads
// (EdgeFileStream::edge) are unmetered and touch no shared mutable state,
// so they are safe from any thread, even against an in-flight pass (the
// pipeline's offline re-solve reads stored records from a pool thread).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/accounting.hpp"

namespace dp::stream {

inline constexpr char kEdgeFileMagic[4] = {'D', 'P', 'E', 'F'};
inline constexpr std::uint32_t kEdgeFileVersion = 2;
inline constexpr std::size_t kEdgeFileHeaderBytes = 40;
inline constexpr std::size_t kEdgeRecordBytes = 16;
/// Default edges per block. Small enough that the block buffer is o(m)
/// for any interesting m, large enough that per-block overheads vanish.
inline constexpr std::size_t kDefaultBlockEdges = 1024;

/// Streaming writer: emits a DPEF file block by block without ever holding
/// more than one block of edges. The header is patched at close() (the
/// edge count is not known up front), so a writer that is never close()d
/// leaves a file whose zeroed magic makes every open fail — a crash during
/// generation cannot look like a valid input.
class EdgeFileWriter {
 public:
  EdgeFileWriter(const std::string& path, std::size_t num_vertices,
                 std::size_t block_edges = kDefaultBlockEdges);
  ~EdgeFileWriter();

  EdgeFileWriter(const EdgeFileWriter&) = delete;
  EdgeFileWriter& operator=(const EdgeFileWriter&) = delete;

  void add_edge(Vertex u, Vertex v, double w);

  /// Flush the tail block and write the real header. Idempotent.
  void close();

 private:
  void flush_block();

  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t block_edges_ = kDefaultBlockEdges;
  std::vector<std::uint8_t> block_;  // pending record bytes
  bool closed_ = false;
};

/// Read side: validates the header and exact file size at open, then
/// serves sequential block scans, decoded on the calling thread, and
/// unmetered random-access record reads. Maps the file; falls back to
/// buffered pread when mmap fails.
class EdgeFileStream {
 public:
  explicit EdgeFileStream(const std::string& path);
  ~EdgeFileStream();

  EdgeFileStream(const EdgeFileStream&) = delete;
  EdgeFileStream& operator=(const EdgeFileStream&) = delete;

  std::size_t num_vertices() const noexcept { return n_; }
  std::size_t num_edges() const noexcept { return m_; }
  std::size_t block_edges() const noexcept { return block_edges_; }
  std::size_t num_blocks() const noexcept { return num_blocks_; }
  const std::string& path() const noexcept { return path_; }

  /// IO accounting sink for sequential scans (bytes, stalls).
  void set_meter(ResourceMeter* meter) noexcept { meter_ = meter; }

  /// Edges held resident by the scan machinery (the one block buffer), in
  /// edge units — what the access layer charges against the memory
  /// budget.
  std::size_t resident_buffer_edges() const noexcept { return block_edges_; }

  /// Number of records in block b.
  std::size_t block_count(std::size_t b) const noexcept {
    const std::size_t lo = b * block_edges_;
    return lo >= m_ ? 0 : std::min(block_edges_, m_ - lo);
  }

  /// Unmetered random-access read of one record (const, no shared mutable
  /// state): the stored-attribute path of the file-backed substrate.
  /// Block checksums are verified by the sequential scans; this trusts
  /// them.
  Edge edge(EdgeId id) const;

  /// Sequential scan over blocks in the given order, invoking
  /// fn(first_edge_id_of_block, records, count) per block. Each block is
  /// read, checksum-verified and decoded on the calling thread just
  /// before fn sees it; the records stay valid until fn returns. Throws
  /// CheckpointCorrupt on a checksum mismatch. Not reentrant (one scan at
  /// a time; the access substrates run passes sequentially).
  template <typename Fn>
  void scan_blocks(const std::uint32_t* order, std::size_t count, Fn&& fn) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t b = order[i];
      decode_block(b);
      fn(static_cast<EdgeId>(b * block_edges_), buffer_.data(),
         block_count(b));
    }
  }

  /// Convenience: natural-order scan over every edge, fn(id, edge).
  template <typename Fn>
  void for_each(Fn&& fn) {
    scan_blocks(natural_order_.data(), natural_order_.size(),
                [&](EdgeId base, const Edge* edges, std::size_t k) {
                  for (std::size_t i = 0; i < k; ++i) {
                    fn(static_cast<EdgeId>(base + i), edges[i]);
                  }
                });
  }

 private:
  /// Read + checksum-verify + decode block b into buffer_, and charge its
  /// bytes and one stall to the meter.
  void decode_block(std::size_t b);

  std::string path_;
  int fd_ = -1;
  const std::uint8_t* map_ = nullptr;  // non-null iff mmap mode
  std::size_t file_size_ = 0;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t block_edges_ = 0;
  std::size_t num_blocks_ = 0;
  ResourceMeter* meter_ = nullptr;
  std::vector<Edge> buffer_;              // the decoded block
  std::vector<std::uint8_t> io_scratch_;  // pread staging (no mapping)
  std::vector<std::uint32_t> natural_order_;
};

/// One edge source behind one interface: a materialized in-RAM Graph or a
/// file-backed EdgeFileStream. The streaming substrate accepts either;
/// substrates whose access model requires random access to the whole input
/// (the in-memory reference) reject a file-backed source with a typed
/// ConfigError at bind.
class EdgeSource {
 public:
  EdgeSource() = default;
  /// In-RAM source; the graph must outlive the source.
  EdgeSource(const Graph& g) : graph_(&g) {}  // NOLINT(runtime/explicit)
  /// File-backed source (shared: the substrate and the caller's benches
  /// may hold the same open stream).
  EdgeSource(std::shared_ptr<EdgeFileStream> file)  // NOLINT
      : file_(std::move(file)) {}

  bool attached() const noexcept {
    return graph_ != nullptr || file_ != nullptr;
  }
  bool file_backed() const noexcept { return file_ != nullptr; }
  const Graph* graph() const noexcept { return graph_; }
  EdgeFileStream* file() const noexcept { return file_.get(); }

  std::size_t num_vertices() const noexcept {
    return file_ ? file_->num_vertices()
                 : (graph_ != nullptr ? graph_->num_vertices() : 0);
  }
  std::size_t num_edges() const noexcept {
    return file_ ? file_->num_edges()
                 : (graph_ != nullptr ? graph_->num_edges() : 0);
  }

 private:
  const Graph* graph_ = nullptr;
  std::shared_ptr<EdgeFileStream> file_;
};

/// Serialize a graph's edges (in edge-id order) to a DPEF file.
void write_edge_file(const std::string& path, const Graph& g,
                     std::size_t block_edges = kDefaultBlockEdges);

/// Read a DPEF file back into a Graph (edge ids = record order, so a
/// write/read round-trip is bitwise identical). Validates header, size and
/// every block checksum; throws CheckpointCorrupt on any defect.
Graph read_edge_file(const std::string& path);

}  // namespace dp::stream
