// Persistent content-addressed run store (DESIGN.md §11).
//
// A Store is a directory of single-file "PDNC" chunks keyed by a 64-bit
// content digest, one file per key and nothing else: the chunk files are the
// index. It persists the most expensive computations in the stack — golden
// transient simulations — so that re-runs with an identical (design,
// simulator, vector stream) configuration replay results instead of paying
// for them again, and it holds training checkpoints keyed by the data they
// train on. Clients choose the key; the store never interprets it.
//
// Chunk layout (little-endian, fixed field order):
//
//   magic  "PDNC"                 4 bytes
//   u32    version (= 1)
//   u64    key        (must match the digest the chunk is addressed by)
//   u64    payload_size
//   u64    payload_fnv1a          (util::fnv1a64 of the payload bytes)
//   payload
//
// Robustness contract: a truncated, tampered, mis-keyed, or wrong-version
// chunk is *never* an error and *never* wrong data — get() logs a named
// reason, drops the chunk (store.evict), and reports a miss so the caller
// recomputes. A key with no chunk file is a plain miss. Writes go through a
// temp file + rename, so a crash mid-put leaves either no chunk or a
// complete one.
//
// Concurrency: all methods are safe to call from multiple threads. Writes
// and the stats sit behind a mutex; chunk file reads run outside it
// (distinct files), so a warm store serves parallel dataset generation
// without serializing the I/O.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

namespace pdnn::store {

/// Lifetime operation counts for one Store instance (process-local, always
/// collected; the obs counters mirror these when instrumentation is on).
struct StoreStats {
  std::int64_t hits = 0;    ///< verified chunk lookups
  std::int64_t misses = 0;  ///< lookups that found no usable chunk
  std::int64_t writes = 0;  ///< chunks persisted
  std::int64_t evicts = 0;  ///< corrupt/unreadable chunks dropped
};

class Store {
 public:
  /// Open (creating if needed) the store rooted at `directory`.
  explicit Store(std::string directory);

  /// Look up `key`. On a verified hit the payload is copied into `*payload`
  /// and true is returned. No chunk file is a plain miss; any integrity
  /// failure (truncation, bad magic/version, key or checksum mismatch)
  /// evicts the chunk and returns false.
  bool get(std::uint64_t key, std::string* payload);

  /// Persist `payload` under `key` (overwrites an existing chunk).
  void put(std::uint64_t key, const std::string& payload);

  /// Content-addressed whole-file publish (artifact distribution): read the
  /// file at `path`, key the chunk by the payload's own FNV-1a digest, and
  /// return that key. Identical bytes publish once — a re-publish of a
  /// digest whose chunk file exists is a no-op.
  std::uint64_t put_file(const std::string& path);

  /// Fetch the chunk at `key` into `dest_path` (temp file + rename, like
  /// every store write). Returns false on a miss — including a published
  /// file whose chunk has since been corrupted, which evicts as usual.
  bool get_file(std::uint64_t key, const std::string& dest_path);

  StoreStats stats() const;

  const std::string& directory() const { return dir_; }

  /// Path of the chunk file that stores `key`.
  std::string chunk_path(std::uint64_t key) const;

  /// 16-digit lowercase hex spelling of a key (chunk file stem).
  static std::string key_hex(std::uint64_t key);

 private:
  /// Drop a chunk that failed verification: named log line, store.evict,
  /// best-effort file deletion.
  void evict(std::uint64_t key, const std::string& reason);

  /// Count one miss (a missing or evicted chunk).
  void count_miss();

  std::string dir_;
  mutable std::mutex mu_;
  StoreStats stats_;
};

}  // namespace pdnn::store
