#include "stream/edge_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <numeric>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace dp::stream {

namespace {

// Explicit little-endian codecs: the file is a wire format, so byte order
// is pinned rather than inherited from the host.
void store_u32(std::uint8_t* out, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(x >> (8 * i));
}

void store_u64(std::uint8_t* out, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(x >> (8 * i));
}

std::uint32_t load_u32(const std::uint8_t* in) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) x |= std::uint32_t{in[i]} << (8 * i);
  return x;
}

std::uint64_t load_u64(const std::uint8_t* in) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= std::uint64_t{in[i]} << (8 * i);
  return x;
}

ErrorContext file_context(std::uint64_t block = kNoErrorContext) {
  return ErrorContext{"stream.edge_file", block, kNoErrorContext};
}

void pread_exact(int fd, std::uint8_t* out, std::size_t len, std::size_t off,
                 const std::string& path) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t got = ::pread(fd, out + done, len - done,
                                static_cast<off_t>(off + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw CheckpointCorrupt(
          "edge file: read failed (" + std::string(std::strerror(errno)) +
              "): " + path,
          file_context());
    }
    if (got == 0) {
      throw CheckpointCorrupt("edge file: unexpected end of file: " + path,
                              file_context());
    }
    done += static_cast<std::size_t>(got);
  }
}

/// Byte offset of block b's first record. Every block before the last is
/// full, so the stride is uniform: block_edges records + an 8-byte checksum.
std::size_t block_offset(std::size_t b, std::size_t block_edges) {
  return kEdgeFileHeaderBytes +
         b * (block_edges * kEdgeRecordBytes + sizeof(std::uint64_t));
}

}  // namespace

// ---------------------------------------------------------------------------
// EdgeFileWriter

EdgeFileWriter::EdgeFileWriter(const std::string& path,
                               std::size_t num_vertices,
                               std::size_t block_edges)
    : path_(path),
      n_(num_vertices),
      block_edges_(block_edges == 0 ? 1 : block_edges) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw ConfigError("edge file: cannot open for writing: " + path,
                      file_context());
  }
  // Reserve the header slot with zeros; close() patches the real header.
  const std::uint8_t zeros[kEdgeFileHeaderBytes] = {};
  if (std::fwrite(zeros, 1, kEdgeFileHeaderBytes, file_) !=
      kEdgeFileHeaderBytes) {
    std::fclose(file_);
    file_ = nullptr;
    throw ConfigError("edge file: write failed: " + path, file_context());
  }
  block_.reserve(block_edges_ * kEdgeRecordBytes);
}

EdgeFileWriter::~EdgeFileWriter() {
  // Abandoned writer: leave the zeroed header so the file can never pass
  // validation as a complete input.
  if (file_ != nullptr && !closed_) std::fclose(file_);
}

void EdgeFileWriter::add_edge(Vertex u, Vertex v, double w) {
  if (closed_) {
    throw ConfigError("edge file: add_edge after close: " + path_,
                      file_context());
  }
  std::uint8_t rec[kEdgeRecordBytes];
  store_u32(rec, u);
  store_u32(rec + 4, v);
  store_u64(rec + 8, std::bit_cast<std::uint64_t>(w));
  block_.insert(block_.end(), rec, rec + kEdgeRecordBytes);
  ++m_;
  if (block_.size() == block_edges_ * kEdgeRecordBytes) flush_block();
}

void EdgeFileWriter::flush_block() {
  if (block_.empty()) return;
  std::uint8_t sum[sizeof(std::uint64_t)];
  store_u64(sum, checksum64(block_.data(), block_.size()));
  if (std::fwrite(block_.data(), 1, block_.size(), file_) != block_.size() ||
      std::fwrite(sum, 1, sizeof(sum), file_) != sizeof(sum)) {
    throw ConfigError("edge file: write failed: " + path_, file_context());
  }
  block_.clear();
}

void EdgeFileWriter::close() {
  if (closed_) return;
  flush_block();
  std::uint8_t header[kEdgeFileHeaderBytes];
  std::memcpy(header, kEdgeFileMagic, 4);
  store_u32(header + 4, kEdgeFileVersion);
  store_u64(header + 8, n_);
  store_u64(header + 16, m_);
  store_u64(header + 24, block_edges_);
  store_u64(header + 32, checksum64(header, 32));
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fwrite(header, 1, kEdgeFileHeaderBytes, file_) !=
          kEdgeFileHeaderBytes ||
      std::fclose(file_) != 0) {
    file_ = nullptr;
    throw ConfigError("edge file: finalize failed: " + path_, file_context());
  }
  file_ = nullptr;
  closed_ = true;
}

// ---------------------------------------------------------------------------
// EdgeFileStream

EdgeFileStream::EdgeFileStream(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw ConfigError("edge file: cannot open: " + path, file_context());
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw ConfigError("edge file: cannot stat: " + path, file_context());
  }
  file_size_ = static_cast<std::size_t>(st.st_size);
  try {
    if (file_size_ < kEdgeFileHeaderBytes) {
      throw CheckpointCorrupt("edge file: truncated header: " + path,
                              file_context());
    }
    std::uint8_t header[kEdgeFileHeaderBytes];
    pread_exact(fd_, header, kEdgeFileHeaderBytes, 0, path);
    if (std::memcmp(header, kEdgeFileMagic, 4) != 0) {
      throw CheckpointCorrupt("edge file: bad magic: " + path, file_context());
    }
    if (load_u32(header + 4) != kEdgeFileVersion) {
      throw CheckpointCorrupt(
          "edge file: unsupported version " +
              std::to_string(load_u32(header + 4)) + ": " + path,
          file_context());
    }
    if (load_u64(header + 32) != checksum64(header, 32)) {
      throw CheckpointCorrupt("edge file: header checksum mismatch: " + path,
                              file_context());
    }
    n_ = load_u64(header + 8);
    m_ = load_u64(header + 16);
    block_edges_ = load_u64(header + 24);
    if (block_edges_ == 0) {
      throw CheckpointCorrupt("edge file: zero block size: " + path,
                              file_context());
    }
    num_blocks_ = (m_ + block_edges_ - 1) / block_edges_;
    const std::size_t expected =
        kEdgeFileHeaderBytes + m_ * kEdgeRecordBytes +
        num_blocks_ * sizeof(std::uint64_t);
    if (file_size_ != expected) {
      throw CheckpointCorrupt(
          "edge file: size mismatch (truncated or padded): " + path +
              " (have " + std::to_string(file_size_) + ", expected " +
              std::to_string(expected) + ")",
          file_context());
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  if (file_size_ > 0) {
    void* map = ::mmap(nullptr, file_size_, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (map != MAP_FAILED) {
      map_ = static_cast<const std::uint8_t*>(map);
    }
    // mmap failure is not fatal: fall back to buffered pread.
  }
  natural_order_.resize(num_blocks_);
  std::iota(natural_order_.begin(), natural_order_.end(), 0u);
  buffer_.reserve(block_edges_);
}

EdgeFileStream::~EdgeFileStream() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), file_size_);
  }
  if (fd_ >= 0) ::close(fd_);
}

Edge EdgeFileStream::edge(EdgeId id) const {
  const std::size_t b = id / block_edges_;
  const std::size_t off = block_offset(b, block_edges_) +
                          (id - b * block_edges_) * kEdgeRecordBytes;
  std::uint8_t local[kEdgeRecordBytes];
  const std::uint8_t* rec;
  if (map_ != nullptr) {
    rec = map_ + off;
  } else {
    pread_exact(fd_, local, kEdgeRecordBytes, off, path_);
    rec = local;
  }
  Edge e;
  e.u = load_u32(rec);
  e.v = load_u32(rec + 4);
  e.w = std::bit_cast<double>(load_u64(rec + 8));
  return e;
}

void EdgeFileStream::decode_block(std::size_t b) {
  const std::size_t count = block_count(b);
  const std::size_t len = count * kEdgeRecordBytes;
  const std::size_t off = block_offset(b, block_edges_);
  const std::uint8_t* bytes;
  if (map_ != nullptr) {
    bytes = map_ + off;
  } else {
    io_scratch_.resize(len + sizeof(std::uint64_t));
    pread_exact(fd_, io_scratch_.data(), io_scratch_.size(), off, path_);
    bytes = io_scratch_.data();
  }
  if (checksum64(bytes, len) != load_u64(bytes + len)) {
    throw CheckpointCorrupt(
        "edge file: block " + std::to_string(b) + " checksum mismatch: " +
            path_,
        file_context(b));
  }
  buffer_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* rec = bytes + i * kEdgeRecordBytes;
    buffer_[i].u = load_u32(rec);
    buffer_[i].v = load_u32(rec + 4);
    buffer_[i].w = std::bit_cast<double>(load_u64(rec + 8));
  }
  if (meter_ != nullptr) {
    meter_->add_io_bytes(len + sizeof(std::uint64_t));
    meter_->add_io_stalls();
  }
}

// ---------------------------------------------------------------------------
// Whole-graph helpers

void write_edge_file(const std::string& path, const Graph& g,
                     std::size_t block_edges) {
  EdgeFileWriter writer(path, g.num_vertices(), block_edges);
  for (const Edge& e : g.edges()) writer.add_edge(e.u, e.v, e.w);
  writer.close();
}

Graph read_edge_file(const std::string& path) {
  EdgeFileStream stream(path);
  std::vector<Edge> edges;
  edges.reserve(stream.num_edges());
  stream.for_each([&edges](EdgeId, const Edge& e) { edges.push_back(e); });
  return Graph(stream.num_vertices(), std::move(edges));
}

}  // namespace dp::stream
