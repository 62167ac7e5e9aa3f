#include "store/store.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "store/container.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/io.hpp"

namespace pdnn::store {

namespace {

constexpr char kChunkMagic[5] = "PDNC";
constexpr std::uint32_t kChunkVersion = 1;

}  // namespace

Store::Store(std::string directory) : dir_(std::move(directory)) {
  PDN_CHECK(!dir_.empty(), "Store: empty directory");
  util::ensure_directory(dir_);
}

std::string Store::key_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, key);
  return buf;
}

std::string Store::chunk_path(std::uint64_t key) const {
  return dir_ + "/" + key_hex(key) + ".pdnc";
}

void Store::evict(std::uint64_t key, const std::string& reason) {
  obs::logf("store: evicting chunk %s: %s", key_hex(key).c_str(),
            reason.c_str());
  util::remove_file(chunk_path(key));
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.evicts;
  obs::counter_add(obs::Counter::kStoreEvicts, 1);
}

void Store::count_miss() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  obs::counter_add(obs::Counter::kStoreMisses, 1);
}

bool Store::get(std::uint64_t key, std::string* payload) {
  PDN_CHECK(payload != nullptr, "Store::get: null payload output");
  obs::TraceSpan span("store.lookup");
  const std::string path = chunk_path(key);

  std::string chunk;
  if (!util::read_file(path, &chunk)) {
    count_miss();  // never written, or already evicted
    return false;
  }

  // Verify the self-describing chunk; any failure degrades to a miss.
  try {
    const std::string where = "store chunk " + path;
    std::istringstream in(chunk);
    check_magic(in, kChunkMagic, where);
    check_version(in, kChunkVersion, where);
    const auto stored_key = read_field<std::uint64_t>(in, where, "key");
    PDN_CHECK(stored_key == key,
              "key mismatch in " + where + " (field 'key')");
    const auto size = read_field<std::uint64_t>(in, where, "payload_size");
    const auto checksum =
        read_field<std::uint64_t>(in, where, "payload_fnv1a");
    const auto offset = static_cast<std::size_t>(in.tellg());
    PDN_CHECK(chunk.size() - offset == size,
              "truncated file " + where + " reading field 'payload'");
    PDN_CHECK(util::fnv1a64(chunk.data() + offset, size) == checksum,
              "checksum mismatch in " + where + " (field 'payload_fnv1a')");
    payload->assign(chunk, offset, size);
  } catch (const util::CheckError& e) {
    evict(key, e.what());
    count_miss();
    return false;
  }

  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.hits;
  obs::counter_add(obs::Counter::kStoreHits, 1);
  obs::hist_record(obs::Hist::kStoreChunkBytes,
                   static_cast<std::int64_t>(payload->size()));
  return true;
}

void Store::put(std::uint64_t key, const std::string& payload) {
  obs::TraceSpan span("store.write");
  std::ostringstream chunk;
  write_magic(chunk, kChunkMagic);
  write_field(chunk, kChunkVersion);
  write_field(chunk, key);
  write_field(chunk, static_cast<std::uint64_t>(payload.size()));
  write_field(chunk, util::fnv1a64(payload.data(), payload.size()));
  chunk.write(payload.data(), static_cast<std::streamsize>(payload.size()));

  // The file write happens under the lock so two threads putting the same
  // key never race on the shared temp file; distinct-key writes are the
  // common case and simulation dominates them by orders of magnitude.
  const std::lock_guard<std::mutex> lock(mu_);
  util::write_file_atomic(chunk_path(key), chunk.str());
  ++stats_.writes;
  obs::counter_add(obs::Counter::kStoreWrites, 1);
  obs::hist_record(obs::Hist::kStoreChunkBytes,
                   static_cast<std::int64_t>(payload.size()));
}

std::uint64_t Store::put_file(const std::string& path) {
  std::string payload;
  PDN_CHECK(util::read_file(path, &payload),
            "Store::put_file: cannot read " + path);
  const std::uint64_t key = util::fnv1a64(payload.data(), payload.size());
  // The key IS the content digest, so an existing chunk already holds these
  // bytes; a corrupt chunk degrades to a get_file miss (which evicts it) and
  // the caller re-publishes.
  if (!util::file_exists(chunk_path(key))) put(key, payload);
  return key;
}

bool Store::get_file(std::uint64_t key, const std::string& dest_path) {
  std::string payload;
  if (!get(key, &payload)) return false;
  util::write_file_atomic(dest_path, payload);
  return true;
}

StoreStats Store::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace pdnn::store
