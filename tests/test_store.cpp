// Persistent run-store tests: round trips, chunks surviving a reopen, the
// corruption-degrades-to-miss contract, and concurrent warm reads (the
// `Store` suite runs under TSan in CI). The chunk files are the store's only
// index, so presence and counts are read from the directory.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "store/store.hpp"
#include "util/check.hpp"
#include "util/io.hpp"

namespace pdnn {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/pdnn_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Overwrite `count` bytes at `offset` of an existing file in place.
void stomp_bytes(const std::string& path, std::streamoff offset,
                 const std::string& bytes) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekp(offset);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void truncate_file(const std::string& path, std::uintmax_t keep) {
  std::filesystem::resize_file(path, keep);
}

bool has_chunk(const store::Store& s, std::uint64_t key) {
  return std::filesystem::exists(s.chunk_path(key));
}

// Number of chunk files (`*.pdnc`) in the store's directory.
std::size_t chunk_count(const store::Store& s) {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(s.directory())) {
    if (entry.path().extension() == ".pdnc") ++n;
  }
  return n;
}

TEST(Store, PutGetRoundTrip) {
  store::Store s(fresh_dir("roundtrip"));
  const std::string payload("golden sample bytes \x00\x01\x02", 23);
  s.put(42, payload);
  EXPECT_TRUE(has_chunk(s, 42));
  EXPECT_EQ(chunk_count(s), 1u);

  std::string out;
  ASSERT_TRUE(s.get(42, &out));
  EXPECT_EQ(out, payload);
  const store::StoreStats st = s.stats();
  EXPECT_EQ(st.writes, 1);
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 0);
  EXPECT_EQ(st.evicts, 0);
}

TEST(Store, MissingKeyIsMissNotEviction) {
  store::Store s(fresh_dir("missing"));
  std::string out;
  EXPECT_FALSE(s.get(7, &out));
  const store::StoreStats st = s.stats();
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.evicts, 0);  // no chunk file: a plain miss, nothing dropped

  // A chunk file deleted behind the store's back is the same plain miss.
  s.put(8, "gone");
  util::remove_file(s.chunk_path(8));
  EXPECT_FALSE(s.get(8, &out));
  EXPECT_EQ(s.stats().misses, 2);
  EXPECT_EQ(s.stats().evicts, 0);
}

TEST(Store, RePutOverwrites) {
  store::Store s(fresh_dir("reput"));
  s.put(5, "old");
  s.put(5, "new");
  EXPECT_EQ(chunk_count(s), 1u);
  std::string out;
  ASSERT_TRUE(s.get(5, &out));
  EXPECT_EQ(out, "new");
}

TEST(Store, ReopenServesEarlierChunks) {
  const std::string dir = fresh_dir("reopen");
  {
    store::Store s(dir);
    s.put(1, "one");
    s.put(2, "two");
  }
  store::Store reopened(dir);
  EXPECT_EQ(chunk_count(reopened), 2u);
  EXPECT_TRUE(has_chunk(reopened, 1));
  std::string out;
  ASSERT_TRUE(reopened.get(2, &out));
  EXPECT_EQ(out, "two");
}

TEST(Store, TruncatedChunkDegradesToMiss) {
  store::Store s(fresh_dir("truncated"));
  s.put(9, std::string(256, 'x'));
  truncate_file(s.chunk_path(9), 40);  // cut into the payload

  std::string out;
  EXPECT_FALSE(s.get(9, &out));
  const store::StoreStats st = s.stats();
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.evicts, 1);
  // The corrupt chunk is gone and the key is recomputable: a re-put then
  // hits again.
  EXPECT_FALSE(has_chunk(s, 9));
  s.put(9, "fresh");
  ASSERT_TRUE(s.get(9, &out));
  EXPECT_EQ(out, "fresh");
}

TEST(Store, BadChecksumDegradesToMiss) {
  store::Store s(fresh_dir("checksum"));
  s.put(11, std::string(64, 'p'));
  // Chunk header is 4 (magic) + 4 (version) + 8 (key) + 8 (size) + 8
  // (checksum) = 32 bytes; stomp a payload byte past it.
  stomp_bytes(s.chunk_path(11), 40, "Q");

  std::string out;
  EXPECT_FALSE(s.get(11, &out));
  EXPECT_EQ(s.stats().evicts, 1);
}

TEST(Store, VersionMismatchDegradesToMiss) {
  store::Store s(fresh_dir("version"));
  s.put(13, "payload");
  stomp_bytes(s.chunk_path(13), 4, std::string("\x63\x00\x00\x00", 4));

  std::string out;
  EXPECT_FALSE(s.get(13, &out));
  EXPECT_EQ(s.stats().evicts, 1);
}

TEST(Store, MisKeyedChunkDegradesToMiss) {
  store::Store s(fresh_dir("miskeyed"));
  s.put(21, "payload for 21");
  // A chunk copied under another key's path self-identifies as foreign.
  std::filesystem::copy_file(s.chunk_path(21), s.chunk_path(22));

  std::string out;
  EXPECT_FALSE(s.get(22, &out));
  EXPECT_EQ(s.stats().evicts, 1);
  // The original chunk is untouched.
  ASSERT_TRUE(s.get(21, &out));
  EXPECT_EQ(out, "payload for 21");
}

TEST(Store, KeyHexIsZeroPadded) {
  EXPECT_EQ(store::Store::key_hex(0x1234), "0000000000001234");
  EXPECT_EQ(store::Store::key_hex(0xffffffffffffffffull),
            "ffffffffffffffff");
  store::Store s(fresh_dir("hex"));
  EXPECT_NE(s.chunk_path(0x1234).find("0000000000001234.pdnc"),
            std::string::npos);
}

TEST(Store, ConcurrentWarmReads) {
  store::Store s(fresh_dir("concurrent"));
  constexpr int kKeys = 16;
  for (int k = 0; k < kKeys; ++k) {
    s.put(static_cast<std::uint64_t>(k), "payload " + std::to_string(k));
  }

  constexpr int kThreads = 4;
  std::vector<std::thread> readers;
  std::vector<int> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&s, &ok, t] {
      std::string out;
      for (int k = 0; k < kKeys; ++k) {
        if (s.get(static_cast<std::uint64_t>(k), &out) &&
            out == "payload " + std::to_string(k)) {
          ++ok[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : readers) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], kKeys);
  EXPECT_EQ(s.stats().hits, kThreads * kKeys);
}

TEST(Store, ConcurrentDistinctKeyWrites) {
  store::Store s(fresh_dir("parallel_put"));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&s, t] {
      for (int k = 0; k < kPerThread; ++k) {
        const auto key = static_cast<std::uint64_t>(t * kPerThread + k);
        s.put(key, "w" + std::to_string(key));
      }
    });
  }
  for (std::thread& th : writers) th.join();
  EXPECT_EQ(chunk_count(s), static_cast<std::size_t>(kThreads * kPerThread));
  std::string out;
  for (int k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_TRUE(s.get(static_cast<std::uint64_t>(k), &out));
    EXPECT_EQ(out, "w" + std::to_string(k));
  }
}

TEST(Store, PutFileIsContentAddressedAndDedupes) {
  store::Store s(fresh_dir("put_file"));
  const std::string src = testing::TempDir() + "/pdnn_store_src.bin";
  const std::string payload("artifact bytes \x00\x7f", 17);
  util::write_file_atomic(src, payload);

  const std::uint64_t key = s.put_file(src);
  EXPECT_TRUE(has_chunk(s, key));
  EXPECT_EQ(chunk_count(s), 1u);
  // Same bytes → same key, no second chunk, no second write.
  EXPECT_EQ(s.put_file(src), key);
  EXPECT_EQ(chunk_count(s), 1u);
  EXPECT_EQ(s.stats().writes, 1);

  const std::string dest = testing::TempDir() + "/pdnn_store_dest.bin";
  ASSERT_TRUE(s.get_file(key, dest));
  std::string fetched;
  ASSERT_TRUE(util::read_file(dest, &fetched));
  EXPECT_EQ(fetched, payload);

  std::remove(src.c_str());
  std::remove(dest.c_str());
}

TEST(Store, GetFileMissesOnUnknownKeyAndCorruptChunk) {
  store::Store s(fresh_dir("get_file_miss"));
  const std::string dest = testing::TempDir() + "/pdnn_store_no_dest.bin";
  EXPECT_FALSE(s.get_file(99, dest));
  EXPECT_FALSE(util::file_exists(dest));

  const std::string src = testing::TempDir() + "/pdnn_store_corrupt_src.bin";
  util::write_file_atomic(src, "published artifact");
  const std::uint64_t key = s.put_file(src);
  stomp_bytes(s.chunk_path(key), 40, "XX");  // payload region
  EXPECT_FALSE(s.get_file(key, dest));
  EXPECT_FALSE(util::file_exists(dest));
  EXPECT_EQ(s.stats().evicts, 1);
  std::remove(src.c_str());
}

TEST(Store, PutFileOfUnreadablePathThrows) {
  store::Store s(fresh_dir("put_file_bad"));
  EXPECT_THROW(s.put_file(testing::TempDir() + "/pdnn_no_such_file.bin"),
               util::CheckError);
}

TEST(Store, GetFilePartialChunkWriteDegradesToMissAndRepublishHeals) {
  // A chunk cut off mid-payload — the shape a torn write would leave if the
  // temp+rename discipline were ever violated — must read as a miss, and a
  // re-publish of the same bytes must fully heal the store.
  store::Store s(fresh_dir("get_file_partial"));
  const std::string src = testing::TempDir() + "/pdnn_store_partial_src.bin";
  const std::string payload("published artifact payload bytes");
  util::write_file_atomic(src, payload);
  const std::uint64_t key = s.put_file(src);
  truncate_file(s.chunk_path(key), 35);  // 32-byte header + 3 payload bytes

  const std::string dest = testing::TempDir() + "/pdnn_store_partial_dest";
  EXPECT_FALSE(s.get_file(key, dest));
  EXPECT_FALSE(util::file_exists(dest));
  EXPECT_EQ(s.stats().evicts, 1);
  EXPECT_FALSE(has_chunk(s, key));

  // Content addressing: same bytes, same key, fresh chunk.
  EXPECT_EQ(s.put_file(src), key);
  ASSERT_TRUE(s.get_file(key, dest));
  std::string fetched;
  ASSERT_TRUE(util::read_file(dest, &fetched));
  EXPECT_EQ(fetched, payload);
  std::remove(src.c_str());
  std::remove(dest.c_str());
}

TEST(Store, GetFileTruncatedHeaderDegradesToMiss) {
  store::Store s(fresh_dir("get_file_header"));
  const std::string src = testing::TempDir() + "/pdnn_store_header_src.bin";
  util::write_file_atomic(src, "header casualty");
  const std::uint64_t key = s.put_file(src);
  truncate_file(s.chunk_path(key), 20);  // mid-header, before the checksum

  const std::string dest = testing::TempDir() + "/pdnn_store_header_dest";
  EXPECT_FALSE(s.get_file(key, dest));
  EXPECT_FALSE(util::file_exists(dest));
  EXPECT_EQ(s.stats().evicts, 1);
  std::remove(src.c_str());
}

TEST(Store, GetFileCorruptChunkLeavesExistingDestUntouched) {
  // Degrade-to-miss must not clobber whatever the caller already has at the
  // destination: verification happens before any byte lands there.
  store::Store s(fresh_dir("get_file_keep_dest"));
  const std::string src = testing::TempDir() + "/pdnn_store_keep_src.bin";
  util::write_file_atomic(src, "replacement artifact");
  const std::uint64_t key = s.put_file(src);

  const std::string dest = testing::TempDir() + "/pdnn_store_keep_dest";
  util::write_file_atomic(dest, "incumbent artifact");
  stomp_bytes(s.chunk_path(key), 40, "XX");  // payload region
  EXPECT_FALSE(s.get_file(key, dest));
  std::string kept;
  ASSERT_TRUE(util::read_file(dest, &kept));
  EXPECT_EQ(kept, "incumbent artifact");
  std::remove(src.c_str());
  std::remove(dest.c_str());
}

TEST(Store, StaleTempFileFromCrashedWriteIsIgnoredAcrossReopen) {
  // Crash-mid-put leaves a *.tmp residue next to the chunks. It must never
  // be counted, served, or break a reopen.
  const std::string dir = fresh_dir("stale_tmp");
  std::uint64_t key = 0;
  const std::string payload("surviving artifact");
  {
    store::Store s(dir);
    const std::string src = testing::TempDir() + "/pdnn_store_tmp_src.bin";
    util::write_file_atomic(src, payload);
    key = s.put_file(src);
    std::remove(src.c_str());
    // Simulate the torn write: a partial header under a temp name.
    std::ofstream tmp(s.chunk_path(key) + ".tmp", std::ios::binary);
    tmp.write("PDNC\x01", 5);
  }
  store::Store reopened(dir);
  EXPECT_EQ(chunk_count(reopened), 1u);
  EXPECT_TRUE(has_chunk(reopened, key));
  const std::string dest = testing::TempDir() + "/pdnn_store_tmp_dest";
  ASSERT_TRUE(reopened.get_file(key, dest));
  std::string fetched;
  ASSERT_TRUE(util::read_file(dest, &fetched));
  EXPECT_EQ(fetched, payload);
  EXPECT_EQ(reopened.stats().evicts, 0);
  std::remove(dest.c_str());
}

}  // namespace
}  // namespace pdnn
