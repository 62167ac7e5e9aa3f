// Shared conventions for the repository's binary containers (PDNB model
// artifacts and PDNC store chunks) and the payloads inside chunks (golden
// raw samples and training checkpoints).
//
// Every container is little-endian with a fixed field order: a 4-byte magic,
// a u32 version, then typed fields. These helpers centralize the two rules
// the formats share — every read is checked, and a failure names the file
// or chunk and the exact field — so a truncated or tampered container always
// produces a diagnosable util::CheckError instead of garbage data. The
// weight blocks inside PDNB artifacts and checkpoint payloads (a magic and a
// count, no version) are coded by one codec on top of these helpers,
// quant/serialize.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "util/check.hpp"

namespace pdnn::store {

/// Write one fixed-width field at the stream's current position.
template <typename T>
void write_field(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Read one fixed-width field; a short read names the container (`where`,
/// typically "<operation> <path>") and the field so corruption points at
/// exactly where it went wrong.
template <typename T>
T read_field(std::istream& in, const std::string& where, const char* field) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  PDN_CHECK(in.good(), "truncated file " + where + " reading field '" +
                           field + "'");
  return value;
}

/// Write a 4-byte magic.
inline void write_magic(std::ostream& out, const char (&magic)[5]) {
  out.write(magic, 4);
}

/// Read and verify a 4-byte magic (field 'magic').
inline void check_magic(std::istream& in, const char (&magic)[5],
                        const std::string& where) {
  char found[4];
  in.read(found, sizeof(found));
  PDN_CHECK(in.good() && std::equal(found, found + 4, magic),
            "bad magic in " + where + " (expected \"" + magic +
                "\"; field 'magic')");
}

/// Read the u32 version field and verify it matches (field 'version').
inline void check_version(std::istream& in, std::uint32_t expected,
                          const std::string& where) {
  const auto version = read_field<std::uint32_t>(in, where, "version");
  PDN_CHECK(version == expected,
            "unsupported version " + std::to_string(version) + " in " +
                where + " (expected " + std::to_string(expected) +
                "; field 'version')");
}

}  // namespace pdnn::store
