// Unit tests for the util module: RNG, Grid2D, CLI parser, map I/O, checks.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/grid2d.hpp"
#include "util/hash.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace pdnn {
namespace {

// Known-answer vectors from the reference FNV-1a test suite
// (Fowler/Noll/Vo): the empty string hashes to the offset basis.
TEST(Hash, Fnv1a64KnownAnswers) {
  EXPECT_EQ(util::fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(util::fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::fnv1a64("foobar", 6), 0x85944171f73967e8ull);
  EXPECT_EQ(util::fnv1a64(std::string_view("foobar")),
            0x85944171f73967e8ull);
}

TEST(Hash, StreamingMatchesOneShot) {
  const std::string msg = "worst-case dynamic PDN noise";
  util::Fnv1a64 h;
  h.add_bytes(msg.data(), msg.size());
  EXPECT_EQ(h.digest(), util::fnv1a64(msg.data(), msg.size()));
}

TEST(Hash, ChunkingInvariance) {
  // Feeding the same bytes in different chunkings gives the same digest
  // (digests only depend on content, never on buffering).
  const std::string msg = "0123456789abcdef";
  util::Fnv1a64 whole, split;
  whole.add_bytes(msg.data(), msg.size());
  split.add_bytes(msg.data(), 3);
  split.add_bytes(msg.data() + 3, 13);
  EXPECT_EQ(whole.digest(), split.digest());
}

TEST(Hash, FieldOrderAndTypeMatter) {
  util::Fnv1a64 a, b;
  a.add(std::int32_t{1}).add(std::int32_t{2});
  b.add(std::int32_t{2}).add(std::int32_t{1});
  EXPECT_NE(a.digest(), b.digest());

  // Length-prefixed strings: ("ab","c") must differ from ("a","bc").
  util::Fnv1a64 c, d;
  c.add_string("ab").add_string("c");
  d.add_string("a").add_string("bc");
  EXPECT_NE(c.digest(), d.digest());
}

TEST(Check, ThrowsWithMessage) {
  try {
    PDN_CHECK(1 == 2, "one is not two");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(PDN_CHECK(2 + 2 == 4, "math works"));
}

TEST(Rng, DeterministicForSeed) {
  util::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  util::Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  util::Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  util::Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(Rng, BernoulliFrequency) {
  util::Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  util::Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitDecorrelates) {
  util::Rng parent(23);
  util::Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformIntRejectsEmptyInterval) {
  util::Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), util::CheckError);
}

TEST(Grid2D, BasicAccess) {
  util::MapF g(3, 4, 1.5f);
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.cols(), 4);
  EXPECT_EQ(g.size(), 12u);
  g.at(2, 3) = 7.0f;
  EXPECT_FLOAT_EQ(g(2, 3), 7.0f);
  EXPECT_FLOAT_EQ(g.max_value(), 7.0f);
  EXPECT_FLOAT_EQ(g.min_value(), 1.5f);
}

TEST(Grid2D, BoundsChecked) {
  util::MapF g(2, 2);
  EXPECT_THROW(g.at(2, 0), util::CheckError);
  EXPECT_THROW(g.at(0, -1), util::CheckError);
}

TEST(Grid2D, SumAndMean) {
  util::MapF g(2, 2);
  g(0, 0) = 1;
  g(0, 1) = 2;
  g(1, 0) = 3;
  g(1, 1) = 4;
  EXPECT_DOUBLE_EQ(g.sum(), 10.0);
  EXPECT_DOUBLE_EQ(g.mean(), 2.5);
}

TEST(Grid2D, RowMajorLayout) {
  util::MapF g(2, 3);
  g(1, 2) = 9.0f;
  EXPECT_FLOAT_EQ(g.data()[1 * 3 + 2], 9.0f);
}

TEST(Cli, ParsesFlagsAndDefaults) {
  util::ArgParser args("prog", "test");
  args.add_flag("scale", "small", "the scale");
  args.add_flag("count", "5", "a count");
  args.add_bool("verbose", "verbosity");
  const char* argv[] = {"prog", "--scale", "paper", "--verbose"};
  ASSERT_TRUE(args.parse(4, argv));
  EXPECT_EQ(args.get("scale"), "paper");
  EXPECT_EQ(args.get_int("count"), 5);
  EXPECT_TRUE(args.get_bool("verbose"));
}

TEST(Cli, EqualsSyntax) {
  util::ArgParser args("prog", "test");
  args.add_flag("rate", "0.1", "rate");
  const char* argv[] = {"prog", "--rate=0.35"};
  ASSERT_TRUE(args.parse(2, argv));
  EXPECT_DOUBLE_EQ(args.get_double("rate"), 0.35);
}

TEST(Cli, RejectsUnknownFlag) {
  util::ArgParser args("prog", "test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(args.parse(3, argv), util::CheckError);
}

TEST(Cli, MissingValueThrows) {
  util::ArgParser args("prog", "test");
  args.add_flag("x", "1", "x");
  const char* argv[] = {"prog", "--x"};
  EXPECT_THROW(args.parse(2, argv), util::CheckError);
}

/// Parser with one value set on the command line for flag `name`.
util::ArgParser parsed_with(const std::string& name, const char* value) {
  util::ArgParser args("prog", "test");
  args.add_flag(name, "1", name);
  const std::string flag = "--" + name;
  const char* argv[] = {"prog", flag.c_str(), value};
  EXPECT_TRUE(args.parse(3, argv));
  return args;
}

/// `get` throws a CheckError whose message names the flag and its text.
template <typename Get>
void expect_flag_error(Get get, const std::string& flag,
                       const std::string& text) {
  try {
    get();
    ADD_FAILURE() << "expected CheckError for --" << flag << " " << text;
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
    EXPECT_NE(what.find("'" + text + "'"), std::string::npos) << what;
  }
}

TEST(Cli, IntFlagRejectsGarbage) {
  const util::ArgParser args = parsed_with("vectors", "abc");
  expect_flag_error([&] { return args.get_int("vectors"); }, "vectors", "abc");
}

TEST(Cli, IntFlagRejectsTrailingCharacters) {
  const util::ArgParser args = parsed_with("vectors", "2x");
  expect_flag_error([&] { return args.get_int("vectors"); }, "vectors", "2x");
  EXPECT_EQ(parsed_with("vectors", "-2").get_int("vectors"), -2);
}

TEST(Cli, IntFlagRejectsOutOfRange) {
  const util::ArgParser args = parsed_with("vectors", "99999999999");
  expect_flag_error([&] { return args.get_int("vectors"); }, "vectors",
                    "99999999999");
}

TEST(Cli, DoubleFlagRejectsGarbageTrailingAndOutOfRange) {
  for (const char* text : {"fast", "0.3s", "1e999", "nan", ""}) {
    const util::ArgParser args = parsed_with("rate", text);
    expect_flag_error([&] { return args.get_double("rate"); }, "rate", text);
  }
  EXPECT_DOUBLE_EQ(parsed_with("rate", "1e-4").get_double("rate"), 1e-4);
}

TEST(Cli, DoubleListChecksEveryItem) {
  const std::vector<double> rates =
      parsed_with("rates", "0.05,0.3").get_double_list("rates");
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 0.05);
  EXPECT_DOUBLE_EQ(rates[1], 0.3);
  for (const char* bad : {"0.1,abc", "0.1,0.2x"}) {
    const util::ArgParser args = parsed_with("rates", bad);
    const std::string item = std::string(bad).substr(4);
    expect_flag_error([&] { return args.get_double_list("rates"); }, "rates",
                      item);
  }
}

TEST(Io, CsvWritesAllCells) {
  util::MapF g(2, 2);
  g(0, 0) = 1.0f;
  g(1, 1) = 4.0f;
  const std::string path = testing::TempDir() + "/map.csv";
  util::write_csv(g, path);
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "1,0");
  EXPECT_EQ(line2, "0,4");
}

TEST(Io, PgmHeaderAndSize) {
  util::MapF g(4, 6, 0.5f);
  g(0, 0) = 1.0f;
  const std::string path = testing::TempDir() + "/map.pgm";
  util::write_pgm(g, path, 0.0f, 1.0f);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
  int w = 0, h = 0, maxv = 0;
  in >> w >> h >> maxv;
  EXPECT_EQ(w, 6);
  EXPECT_EQ(h, 4);
  EXPECT_EQ(maxv, 255);
  in.get();  // single whitespace after header
  std::vector<char> pixels(24);
  in.read(pixels.data(), 24);
  EXPECT_EQ(in.gcount(), 24);
  EXPECT_EQ(static_cast<unsigned char>(pixels[0]), 255);
}

TEST(Io, AsciiHeatmapDimensions) {
  util::MapF g(8, 8, 0.0f);
  g(0, 0) = 1.0f;
  const std::string art = util::ascii_heatmap(g, 8);
  // Highest-intensity glyph appears for the hot cell.
  EXPECT_NE(art.find('@'), std::string::npos);
}

TEST(Io, EnsureDirectoryCreatesNested) {
  const std::string dir = testing::TempDir() + "/a/b/c";
  util::ensure_directory(dir);
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

}  // namespace
}  // namespace pdnn
