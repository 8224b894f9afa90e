#include "stream/stream_io.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "stream/exact.h"
#include "stream/generators.h"

namespace gstream {
namespace {

TEST(StreamIoTest, RoundTripInMemory) {
  Stream s(100);
  s.Append(1, 5);
  s.Append(99, -3);
  s.Append(1, 2);
  const auto loaded = StreamFromText(StreamToText(s));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->domain(), 100u);
  ASSERT_EQ(loaded->length(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded->updates()[i].item, s.updates()[i].item);
    EXPECT_EQ(loaded->updates()[i].delta, s.updates()[i].delta);
  }
}

TEST(StreamIoTest, RoundTripGeneratedWorkload) {
  Rng rng(1);
  const Workload w = MakeZipfWorkload(1 << 12, 500, 1.3, 10000,
                                      StreamShapeOptions{}, rng);
  const auto loaded = StreamFromText(StreamToText(w.stream));
  ASSERT_TRUE(loaded.has_value());
  const FrequencyMap reloaded = ExactFrequencies(*loaded);
  EXPECT_EQ(reloaded.size(), w.frequencies.size());
  for (const auto& [item, value] : w.frequencies) {
    EXPECT_EQ(reloaded.at(item), value);
  }
}

TEST(StreamIoTest, CommentsAndBlankLinesIgnored) {
  const auto loaded = StreamFromText(
      "# a saved workload\n\ngstream-v1 16  # header\n"
      "3 7\n\n# trailing comment\n5 -2\n");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->length(), 2u);
  EXPECT_EQ(loaded->updates()[1].delta, -2);
}

TEST(StreamIoTest, WhitespaceOnlyLinesAreBlank) {
  // Any mix of the separator set (' ' \t \r \v \f) is a blank line,
  // before the header and after it.
  const auto loaded = StreamFromText("\f\ngstream-v1 16\n\v\n \f\t\n1 1\n");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->length(), 1u);
}

TEST(StreamIoTest, RejectsBadMagic) {
  EXPECT_FALSE(StreamFromText("gstream-v2 16\n1 1\n").has_value());
  EXPECT_FALSE(StreamFromText("1 1\n").has_value());
  EXPECT_FALSE(StreamFromText("").has_value());
}

TEST(StreamIoTest, RejectsOutOfDomainItem) {
  EXPECT_FALSE(StreamFromText("gstream-v1 16\n16 1\n").has_value());
}

TEST(StreamIoTest, RejectsMalformedLines) {
  EXPECT_FALSE(StreamFromText("gstream-v1 16\n1\n").has_value());
  EXPECT_FALSE(StreamFromText("gstream-v1 16\n1 2 3\n").has_value());
  EXPECT_FALSE(StreamFromText("gstream-v1 16\nfoo bar\n").has_value());
  EXPECT_FALSE(StreamFromText("gstream-v1 0\n").has_value());
  EXPECT_FALSE(StreamFromText("gstream-v1 16 junk\n1 1\n").has_value());
}

TEST(StreamIoTest, FileRoundTrip) {
  Stream s(32);
  s.Append(7, 42);
  s.Append(8, -42);
  const std::string path = ::testing::TempDir() + "/gstream_io_test.txt";
  ASSERT_TRUE(SaveStream(s, path));
  const auto loaded = LoadStream(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->length(), 2u);
  EXPECT_EQ(loaded->updates()[0].item, 7u);
  std::remove(path.c_str());
}

TEST(StreamIoTest, LoadMissingFileFails) {
  LoadStatus status;
  EXPECT_FALSE(LoadStream("/nonexistent/path/stream.txt", &status)
                   .has_value());
  EXPECT_EQ(status.error, LoadError::kIoError);
  EXPECT_NE(status.message.find("/nonexistent/path/stream.txt"),
            std::string::npos);
}

TEST(StreamIoTest, RealIoErrorMessagePinsErrnoShape) {
  // The kIoError message shape for *real* failures is
  // "<path>: <syscall> failed: <strerror> (errno N)" -- carrying the OS
  // error so logs are actionable, and structurally distinct from injected
  // faults (which carry "injected fault <site>" instead; pinned in
  // tests/engine/fault_injection_test.cc).  A missing file is the
  // always-reproducible real failure: ENOENT.
  LoadStatus status;
  EXPECT_FALSE(LoadStream("/nonexistent/path/stream.txt", &status)
                   .has_value());
  EXPECT_EQ(status.error, LoadError::kIoError);
  EXPECT_NE(status.message.find("open failed: "), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("(errno " + std::to_string(ENOENT) + ")"),
            std::string::npos)
      << status.message;
  EXPECT_EQ(status.message.find("injected fault"), std::string::npos)
      << status.message;
}

// ---------------------------------------------------------------------------
// Corruption coverage: every malformed input comes back as (nullopt,
// reason, line number) -- never UB, never abort.  The reason codes are
// asserted exactly so a refactor cannot silently merge failure modes.
// ---------------------------------------------------------------------------

LoadStatus StatusOf(const std::string& text) {
  LoadStatus status;
  EXPECT_FALSE(StreamFromText(text, &status).has_value()) << text;
  return status;
}

TEST(StreamIoCorruptionTest, EmptyFile) {
  EXPECT_EQ(StatusOf("").error, LoadError::kBadMagic);
  EXPECT_EQ(StatusOf("# only comments\n\n  \n").error, LoadError::kBadMagic);
}

TEST(StreamIoCorruptionTest, HeaderGarbage) {
  const LoadStatus magic = StatusOf("gstream-v2 16\n1 1\n");
  EXPECT_EQ(magic.error, LoadError::kBadMagic);
  EXPECT_NE(magic.message.find("line 1"), std::string::npos);

  // Header on a later line: the diagnostic names *that* line.
  const LoadStatus late = StatusOf("# saved\n\nnot-a-header 16\n");
  EXPECT_EQ(late.error, LoadError::kBadMagic);
  EXPECT_NE(late.message.find("line 3"), std::string::npos);

  EXPECT_EQ(StatusOf("gstream-v1 sixteen\n").error, LoadError::kParseError);
  EXPECT_EQ(StatusOf("gstream-v1 16 junk\n1 1\n").error,
            LoadError::kParseError);
  EXPECT_EQ(StatusOf("gstream-v1 0\n").error, LoadError::kDomainError);
}

TEST(StreamIoCorruptionTest, TruncatedFile) {
  // A write cut off mid-record leaves a line with a lone item and no
  // delta; the loader reports the exact line.
  const LoadStatus status = StatusOf("gstream-v1 16\n3 7\n5\n");
  EXPECT_EQ(status.error, LoadError::kParseError);
  EXPECT_NE(status.message.find("line 3"), std::string::npos);
  // Truncation that removes the update lines entirely still parses (an
  // empty stream is legal), and a header cut mid-token does not.
  EXPECT_TRUE(StreamFromText("gstream-v1 16\n").has_value());
  EXPECT_EQ(StatusOf("gstream-v1\n").error, LoadError::kParseError);
}

TEST(StreamIoCorruptionTest, OutOfDomainItem) {
  const LoadStatus status = StatusOf("gstream-v1 16\n1 1\n16 1\n");
  EXPECT_EQ(status.error, LoadError::kDomainError);
  EXPECT_NE(status.message.find("line 3"), std::string::npos);
  EXPECT_NE(status.message.find("16"), std::string::npos);
}

TEST(StreamIoCorruptionTest, IntegerOverflow) {
  // 2^64 and a delta beyond int64_t range: both overflow their fields and
  // must be parse errors, not silent wraparound.
  EXPECT_EQ(StatusOf("gstream-v1 16\n18446744073709551616 1\n").error,
            LoadError::kParseError);
  EXPECT_EQ(StatusOf("gstream-v1 16\n1 99999999999999999999\n").error,
            LoadError::kParseError);
  EXPECT_EQ(StatusOf("gstream-v1 99999999999999999999999\n").error,
            LoadError::kParseError);
}

TEST(StreamIoCorruptionTest, MinusSignOnUnsignedFieldRejected) {
  // The domain and the item are unsigned: a '-' sign is a parse error
  // naming the line, never a silent wrap to 2^64 - k.
  const LoadStatus domain = StatusOf("gstream-v1 -16\n");
  EXPECT_EQ(domain.error, LoadError::kParseError);
  EXPECT_NE(domain.message.find("line 1"), std::string::npos)
      << domain.message;
  for (const char* item : {"-0", "-1"}) {
    const LoadStatus status =
        StatusOf(std::string("gstream-v1 16\n1 1\n") + item + " 1\n");
    EXPECT_EQ(status.error, LoadError::kParseError) << item;
    EXPECT_NE(status.message.find("line 3"), std::string::npos)
        << status.message;
  }
  // '+' stays accepted on every field.
  EXPECT_TRUE(StreamFromText("gstream-v1 +16\n+1 +1\n").has_value());
}

TEST(StreamIoCorruptionTest, DomainTokenMustBeConsumedWhole) {
  // "0x3" is not a decimal domain, even though its "0" prefix is (and a
  // zero domain would be a kDomainError): tokens parse whole or not at all.
  const LoadStatus status = StatusOf("gstream-v1 0x3\n");
  EXPECT_EQ(status.error, LoadError::kParseError);
  EXPECT_NE(status.message.find("line 1"), std::string::npos);
  EXPECT_EQ(StatusOf("gstream-v1 16x\n").error, LoadError::kParseError);
}

TEST(StreamIoCorruptionTest, SuccessReportsOk) {
  LoadStatus status = LoadStatus::Fail(LoadError::kIoError, "stale");
  EXPECT_TRUE(StreamFromText("gstream-v1 16\n1 1\n", &status).has_value());
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(status.message.empty());
}

// ---------------------------------------------------------------------------
// Grammar edge cases: one row per corner of the accepted grammar (see
// stream_io.h), each with its verdict, reason and the line the diagnostic
// names.
// ---------------------------------------------------------------------------

struct GrammarRow {
  const char* name;
  std::string text;
  LoadError error;              // kOk: the text loads
  size_t line;                  // error rows: the line the message names
  std::vector<Update> updates;  // ok rows: the expected updates
};

std::vector<GrammarRow> GrammarTable() {
  using L = LoadError;
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const uint64_t kUMax = std::numeric_limits<uint64_t>::max();
  return {
      {"delta INT64_MIN", "gstream-v1 16\n3 -9223372036854775808\n", L::kOk,
       0, {{3, kMin}}},
      {"delta INT64_MIN-1", "gstream-v1 16\n3 -9223372036854775809\n",
       L::kParseError, 2, {}},
      {"delta INT64_MAX", "gstream-v1 16\n3 9223372036854775807\n", L::kOk, 0,
       {{3, kMax}}},
      {"delta INT64_MAX+1", "gstream-v1 16\n3 9223372036854775808\n",
       L::kParseError, 2, {}},
      {"item UINT64_MAX-1 in domain UINT64_MAX",
       "gstream-v1 18446744073709551615\n18446744073709551614 -1\n", L::kOk,
       0, {{kUMax - 1, -1}}},
      {"item UINT64_MAX outside domain UINT64_MAX",
       "gstream-v1 18446744073709551615\n18446744073709551615 1\n",
       L::kDomainError, 2, {}},
      {"item UINT64_MAX+1", "gstream-v1 16\n18446744073709551616 1\n",
       L::kParseError, 2, {}},
      {"domain UINT64_MAX+1", "gstream-v1 18446744073709551616\n",
       L::kParseError, 1, {}},
      {"leading zeros", "gstream-v1 0016\n0003 -0007\n00 000\n", L::kOk, 0,
       {{3, -7}, {0, 0}}},
      {"hex item", "gstream-v1 16\n0x3 1\n", L::kParseError, 2, {}},
      {"hex delta", "gstream-v1 16\n3 0x3\n", L::kParseError, 2, {}},
      {"plus signs", "gstream-v1 +16\n+5 +1\n", L::kOk, 0, {{5, 1}}},
      {"detached minus", "gstream-v1 16\n5 - 1\n", L::kParseError, 2, {}},
      {"double sign", "gstream-v1 16\n5 +-1\n", L::kParseError, 2, {}},
      {"lone plus", "gstream-v1 16\n+ 1\n", L::kParseError, 2, {}},
      {"CRLF line ends", "gstream-v1 16\r\n3 7\r\n5 -2\r\n", L::kOk, 0,
       {{3, 7}, {5, -2}}},
      {"vt/ff/tab separators",
       "gstream-v1\t16\n3\v7\n5\f-2\n\t1 \t\v\f 1 \v\n", L::kOk, 0,
       {{3, 7}, {5, -2}, {1, 1}}},
      {"comment glued to a token", "gstream-v1 16#hdr\n5 1#c\n", L::kOk, 0,
       {{5, 1}}},
      {"comment glued to a lone item", "gstream-v1 16\n5#1\n",
       L::kParseError, 2, {}},
      {"last line without newline", "gstream-v1 16\n3 7\n5 -2", L::kOk, 0,
       {{3, 7}, {5, -2}}},
      {"embedded NUL in a token", std::string("gstream-v1 16\n5\0 1\n", 19),
       L::kParseError, 2, {}},
      {"embedded NUL in a comment",
       std::string("gstream-v1 16\n5 1 #\0\n", 21), L::kOk, 0, {{5, 1}}},
      {"header after comment lines",
       "# saved\n\n   \n# again\ngstream-v1 16\n1 1\n", L::kOk, 0, {{1, 1}}},
      {"header error after comment lines", "# saved\n\ngstream-v1 x\n",
       L::kParseError, 3, {}},
      {"parse error after blank and comment lines",
       "gstream-v1 16\n\n# c\n1 1\n   \n# x\n1 x\n", L::kParseError, 7, {}},
      {"domain error after blank and comment lines",
       "# c\ngstream-v1 16\n\n1 1\n\t\n16 1\n", L::kDomainError, 6, {}},
      {"third token", "gstream-v1 16\n1 2 3\n", L::kParseError, 2, {}},
  };
}

TEST(StreamIoGrammarTest, EdgeCaseTable) {
  for (const GrammarRow& row : GrammarTable()) {
    SCOPED_TRACE(row.name);
    LoadStatus status;
    const std::optional<Stream> loaded = StreamFromText(row.text, &status);
    EXPECT_EQ(status.error, row.error) << status.message;
    if (row.error == LoadError::kOk) {
      ASSERT_TRUE(loaded.has_value());
      ASSERT_EQ(loaded->length(), row.updates.size());
      for (size_t i = 0; i < row.updates.size(); ++i) {
        EXPECT_EQ(loaded->updates()[i].item, row.updates[i].item) << i;
        EXPECT_EQ(loaded->updates()[i].delta, row.updates[i].delta) << i;
      }
    } else {
      EXPECT_FALSE(loaded.has_value());
      EXPECT_NE(status.message.find("line " + std::to_string(row.line)),
                std::string::npos)
          << status.message;
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded round trips over extreme values, and a mutation sweep over valid
// text: every mutant either loads or fails with a named reason.
// ---------------------------------------------------------------------------

void ExpectSameUpdates(const Stream& a, const Stream& b) {
  EXPECT_EQ(a.domain(), b.domain());
  ASSERT_EQ(a.length(), b.length());
  for (size_t i = 0; i < a.length(); ++i) {
    ASSERT_EQ(a.updates()[i].item, b.updates()[i].item) << i;
    ASSERT_EQ(a.updates()[i].delta, b.updates()[i].delta) << i;
  }
}

// A stream whose items and deltas favor the extremes of their ranges.
Stream ExtremeStream(uint64_t seed, size_t length) {
  uint64_t state = seed;
  const uint64_t domains[] = {1, 2, 1000,
                              std::numeric_limits<uint64_t>::max(),
                              SplitMix64(state) | 1};
  const uint64_t domain = domains[SplitMix64(state) % 5];
  Stream stream(domain);
  for (size_t i = 0; i < length; ++i) {
    const uint64_t r = SplitMix64(state);
    const ItemId item = r % 3 == 0   ? domain - 1
                        : r % 3 == 1 ? 0
                                     : SplitMix64(state) % domain;
    int64_t delta = static_cast<int64_t>(SplitMix64(state));
    switch (r >> 60) {
      case 0: delta = std::numeric_limits<int64_t>::min(); break;
      case 1: delta = std::numeric_limits<int64_t>::max(); break;
      case 2: delta = 0; break;
      case 3: delta = -1; break;
      case 4: delta = 1; break;
      case 5: delta %= 1000; break;
      default: break;
    }
    stream.Append(item, delta);
  }
  return stream;
}

// Reference formatting (iostream) for the writer's byte-identity pin.
std::string ReferenceText(const Stream& stream) {
  std::ostringstream out;
  out << "gstream-v1 " << stream.domain() << '\n';
  for (const Update& u : stream.updates()) {
    out << u.item << ' ' << u.delta << '\n';
  }
  return out.str();
}

TEST(StreamIoRoundTripTest, SeededExtremesSurviveSaveAndLoad) {
  const std::string path = ::testing::TempDir() + "/gstream_io_extremes.txt";
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    const Stream stream = ExtremeStream(seed, seed * 37);
    EXPECT_EQ(StreamToText(stream), ReferenceText(stream));
    ASSERT_TRUE(SaveStream(stream, path));
    LoadStatus status;
    const std::optional<Stream> loaded = LoadStream(path, &status);
    ASSERT_TRUE(loaded.has_value()) << status.message;
    ExpectSameUpdates(*loaded, stream);
  }
  std::remove(path.c_str());
}

TEST(StreamIoRoundTripTest, LoadsFromAPipe) {
  // A FIFO reports size 0: the loader must read to end of file, not trust
  // the size it was told.
  const std::string path = ::testing::TempDir() + "/gstream_io_fifo";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  const Stream stream = ExtremeStream(7, 20000);
  const std::string text = StreamToText(stream);
  std::thread writer([&] {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  });
  const std::optional<Stream> loaded = LoadStream(path);
  writer.join();
  ASSERT_TRUE(loaded.has_value());
  ExpectSameUpdates(*loaded, stream);
  std::remove(path.c_str());
}

// True when `message` names a line: "line <digits>".
bool NamesALine(const std::string& message) {
  const size_t at = message.find("line ");
  return at != std::string::npos && at + 5 < message.size() &&
         std::isdigit(static_cast<unsigned char>(message[at + 5]));
}

// The mutation sweep's inputs: 4000 SplitMix64-seeded mutants of a valid
// text, each with 1-3 inserted, flipped, deleted or truncating edits.
std::vector<std::string> MutantTexts() {
  Stream base(64);
  uint64_t state = 0x5eed;
  for (int i = 0; i < 40; ++i) {
    base.Append(SplitMix64(state) % 64,
                static_cast<int64_t>(SplitMix64(state) % 2001) - 1000);
  }
  const std::string valid = "# recorded\n" + StreamToText(base) + "# end\n";
  const char kInserts[] = "0123456789 #\n+-\t\r";
  std::vector<std::string> mutants;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = valid;
    const int mutations = 1 + static_cast<int>(SplitMix64(state) % 3);
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const size_t pos = SplitMix64(state) % text.size();
      switch (SplitMix64(state) % 4) {
        case 0:  // insert a grammar-significant byte
          text.insert(pos, 1,
                      kInserts[SplitMix64(state) % (sizeof(kInserts) - 1)]);
          break;
        case 1:  // flip to an arbitrary byte (NUL and high bytes included)
          text[pos] = static_cast<char>(SplitMix64(state));
          break;
        case 2:  // delete a byte
          text.erase(pos, 1);
          break;
        default:  // truncate
          text.resize(pos);
          break;
      }
    }
    mutants.push_back(std::move(text));
  }
  return mutants;
}

TEST(StreamIoMutationTest, EveryMutantLoadsOrFailsWithNamedReason) {
  size_t loaded_count = 0;
  for (const std::string& text : MutantTexts()) {
    SCOPED_TRACE(text);
    LoadStatus status;
    const std::optional<Stream> loaded = StreamFromText(text, &status);
    if (loaded.has_value()) {
      ++loaded_count;
      EXPECT_TRUE(status.ok());
      for (const Update& u : loaded->updates()) {
        ASSERT_LT(u.item, loaded->domain());
      }
      // Whatever loaded re-serializes to text that loads to the same stream.
      const std::optional<Stream> again = StreamFromText(StreamToText(*loaded));
      ASSERT_TRUE(again.has_value());
      ExpectSameUpdates(*again, *loaded);
    } else {
      EXPECT_TRUE(status.error == LoadError::kBadMagic ||
                  status.error == LoadError::kParseError ||
                  status.error == LoadError::kDomainError)
          << LoadErrorName(status.error);
      EXPECT_TRUE(NamesALine(status.message) ||
                  status.message == "no header line (empty input?)")
          << status.message;
    }
  }
  // The sweep exercises both outcomes.
  EXPECT_GT(loaded_count, 0u);
  EXPECT_LT(loaded_count, 4000u);
}

// ---------------------------------------------------------------------------
// Read windows: LoadStream parses a file through a window of
// kStreamWindowBytes, StreamFromText parses the whole text at once, and the
// two must agree byte for byte -- verdict, updates, reason and message --
// wherever the window boundaries fall.
// ---------------------------------------------------------------------------

void WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << std::strerror(errno);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  ASSERT_EQ(std::fclose(f), 0);
}

// Loads `text` both ways; returns the file load's status.
LoadStatus ExpectFileLoadsLikeText(const std::string& text,
                                   const std::string& path) {
  WriteFile(path, text);
  LoadStatus from_text;
  LoadStatus from_file;
  const std::optional<Stream> expected = StreamFromText(text, &from_text);
  const std::optional<Stream> loaded = LoadStream(path, &from_file);
  std::remove(path.c_str());
  EXPECT_EQ(from_file.error, from_text.error);
  EXPECT_EQ(from_file.message, from_text.message);
  EXPECT_EQ(loaded.has_value(), expected.has_value());
  if (loaded.has_value() && expected.has_value()) {
    ExpectSameUpdates(*loaded, *expected);
  }
  return from_file;
}

// Appends "7 1" update lines to `text` until it is exactly `size` bytes
// long; the last one is widened with spaces to land there.  Needs at least
// 4 bytes to fill.
void PadTo(std::string* text, size_t size) {
  while (size - text->size() >= 8) text->append("7 1\n");
  const size_t spaces = size - text->size() - 3;
  text->push_back('7');
  text->append(spaces, ' ');
  text->append("1\n");
}

// A text whose first window ends `cut` bytes into `line`, with update
// lines before it and two more windows of them after it.
std::string CutInside(const std::string& line, size_t cut) {
  std::string text = "gstream-v1 1000\n";
  PadTo(&text, kStreamWindowBytes - cut);
  text += line;
  PadTo(&text, text.size() + 2 * kStreamWindowBytes);
  return text + "999 -5\n";
}

size_t LinesIn(const std::string& text, size_t bytes) {
  return static_cast<size_t>(
      std::count(text.begin(), text.begin() + bytes, '\n'));
}

TEST(StreamIoWindowTest, FileLoadsLikeTextOnEveryTenthMutant) {
  const std::string path = ::testing::TempDir() + "/gstream_io_mutant.txt";
  const std::vector<std::string> mutants = MutantTexts();
  for (size_t i = 0; i < mutants.size(); i += 10) {
    SCOPED_TRACE(mutants[i]);
    ExpectFileLoadsLikeText(mutants[i], path);
  }
}

TEST(StreamIoWindowTest, BoundaryInsideALine) {
  const std::string path = ::testing::TempDir() + "/gstream_io_cut.txt";
  const struct {
    const char* where;
    std::string line;
    size_t cut;
  } kCuts[] = {
      {"inside an item token", "123 -45\n", 2},
      {"inside a delta", "123 -45\n", 6},
      {"between \\r and \\n", "12 3\r\n", 5},
      {"inside a comment", "5 1 # note\n", 7},
      {"exactly after a newline", "123 -45\n", 0},
  };
  for (const auto& c : kCuts) {
    SCOPED_TRACE(c.where);
    const std::string text = CutInside(c.line, c.cut);
    EXPECT_TRUE(ExpectFileLoadsLikeText(text, path).ok());
  }
}

TEST(StreamIoWindowTest, ErrorsOnTheSecondWindowCountEveryEarlierLine) {
  const std::string path = ::testing::TempDir() + "/gstream_io_late.txt";
  for (const auto& [line, error] :
       {std::pair<std::string, LoadError>{"5 x\n", LoadError::kParseError},
        {"1000 1\n", LoadError::kDomainError}}) {
    SCOPED_TRACE(line);
    const std::string text = CutInside(line, 0);
    const LoadStatus status = ExpectFileLoadsLikeText(text, path);
    EXPECT_EQ(status.error, error);
    const std::string named =
        "line " + std::to_string(LinesIn(text, kStreamWindowBytes) + 1) + ":";
    EXPECT_NE(status.message.find(named), std::string::npos)
        << status.message;
  }
}

TEST(StreamIoWindowTest, LineLongerThanTheWindow) {
  const std::string path = ::testing::TempDir() + "/gstream_io_long.txt";
  const size_t kLong = 2 * kStreamWindowBytes + 100;
  const std::pair<std::string, LoadError> kLines[] = {
      {"3" + std::string(kLong, ' ') + "4\n", LoadError::kOk},
      {"# " + std::string(kLong, 'c') + "\n", LoadError::kOk},
      {std::string(kLong, '0') + "9 1\n", LoadError::kOk},
      {"3" + std::string(kLong, '5') + " 1\n", LoadError::kParseError},
  };
  for (const auto& [line, error] : kLines) {
    SCOPED_TRACE(line.substr(0, 8));
    EXPECT_EQ(ExpectFileLoadsLikeText(CutInside(line, 5), path).error, error);
  }
}

TEST(StreamIoWindowTest, LastLineWithoutNewlineEndsAtTheBoundary) {
  const std::string path = ::testing::TempDir() + "/gstream_io_edge.txt";
  for (const size_t windows : {1, 2}) {
    SCOPED_TRACE(windows);
    std::string text = "gstream-v1 16\n";
    PadTo(&text, windows * kStreamWindowBytes - 3);
    text += "9 2";
    ASSERT_EQ(text.size(), windows * kStreamWindowBytes);
    EXPECT_TRUE(ExpectFileLoadsLikeText(text, path).ok());
    const std::optional<Stream> loaded = StreamFromText(text);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->updates().back().item, 9u);
    EXPECT_EQ(loaded->updates().back().delta, 2);
  }
}

// ---------------------------------------------------------------------------
// Segmented loads: a regular file of two or more windows is counted, then
// parsed in line-aligned segments that start at window boundaries, and any
// line off the canonical form sends it back through the one-window loop.
// Either way the load must be exactly StreamFromText of the same text.
// ---------------------------------------------------------------------------

// Canonical update lines: seeded items < 2^20 and deltas of either sign.
const std::string& CanonicalPool() {
  static const std::string pool = [] {
    std::string text;
    uint64_t state = 7;
    while (text.size() < 12 * kStreamWindowBytes) {
      const uint64_t r = SplitMix64(state);
      text += std::to_string(r % 100000) + " " +
              std::to_string(static_cast<int64_t>((r >> 32) % 2001) - 1000) +
              "\n";
    }
    return text;
  }();
  return pool;
}

// Appends canonical update lines to `text` until it is exactly `size`
// bytes long: whole lines of the pool from a line start picked by `seed`,
// then short lines sized to land there.  Needs at least 4 bytes to fill.
void CanonicalPadTo(std::string* text, size_t size, size_t seed) {
  const std::string& pool = CanonicalPool();
  const size_t from = pool.find('\n', seed % kStreamWindowBytes) + 1;
  const size_t room = size - text->size() - 4;
  if (const size_t nl = pool.rfind('\n', from + room - 1);
      room > 0 && nl != std::string::npos && nl >= from) {
    text->append(pool, from, nl + 1 - from);
  }
  while (size - text->size() >= 8) text->append("7 1\n");
  text->append(size - text->size() - 3, '7');
  text->append(" 1\n");
}

// A canonical text of about `windows` windows whose line `probe` starts at
// byte `at`.
std::string ProbeAt(const std::string& probe, size_t at, size_t windows,
                    size_t seed) {
  std::string text = "gstream-v1 1048576\n";
  CanonicalPadTo(&text, at, seed);
  text += probe;
  CanonicalPadTo(&text, std::max(text.size() + 4, windows * kStreamWindowBytes),
                 seed + 1);
  return text;
}

// Counts the loads whose segmented parse handed the file back to the
// one-window loop (always 0 when the observability layer is compiled out).
uint64_t Fallbacks() {
  return obs::Registry::Get().GetCounter("stream_io/load_fallbacks")->Value();
}

// Loads `text` both ways, as ExpectFileLoadsLikeText, and checks that a
// file of two or more windows falls back exactly when `canonical` is false.
void ExpectSegmentedLoad(const std::string& text, bool canonical,
                         const std::string& path) {
  const uint64_t before = Fallbacks();
  ExpectFileLoadsLikeText(text, path);
  const bool segmented = text.size() >= 2 * kStreamWindowBytes;
  EXPECT_EQ(Fallbacks() - before,
            obs::kEnabled && segmented && !canonical ? 1u : 0u);
}

TEST(StreamIoSegmentTest, LoadsLikeTextAroundEveryWindowBoundary) {
  const std::string path = ::testing::TempDir() + "/gstream_io_segments.txt";
  const std::string kProbes[] = {
      "0 0\n",                                            // canonical
      "1048575 -999999999999999999\n",                    // canonical
      "\n",                                               // blank
      "# note\n",                                         // comment
      "12 3\r\n",                                         // CRLF
      "3" + std::string(kStreamWindowBytes + 100, ' ') + "4\n",  // long
      "5 x\n",                                            // bad
  };
  for (size_t windows = 1; windows <= 9; ++windows) {
    SCOPED_TRACE(windows);
    for (size_t b = 1; b <= windows; ++b) {
      const size_t boundary = b * kStreamWindowBytes;
      for (const size_t at : {boundary - 1, boundary, boundary + 1}) {
        SCOPED_TRACE(at);
        for (size_t i = 0; i < std::size(kProbes); ++i) {
          SCOPED_TRACE(i);
          ExpectSegmentedLoad(ProbeAt(kProbes[i], at, windows, at + i),
                              i < 2, path);
        }
        // The last line ends the file at `at`, without a '\n'.
        std::string text = "gstream-v1 1048576\n";
        CanonicalPadTo(&text, at - 3, at);
        text += "9 2";
        ExpectSegmentedLoad(text, true, path);
      }
    }
  }
}

TEST(StreamIoSegmentTest, HeaderOffLineOneLoadsLikeText) {
  const std::string path = ::testing::TempDir() + "/gstream_io_header.txt";
  for (const char* lead : {"\n", "# saved\n", " \t\n"}) {
    std::string text = std::string(lead) + "gstream-v1 1048576\n";
    CanonicalPadTo(&text, 4 * kStreamWindowBytes, 3);
    ExpectSegmentedLoad(text, false, path);
  }
}

TEST(StreamIoSegmentTest, RepeatedLoadsAreBitEqual) {
  // Four windows: as many segments as the host has threads, up to four.
  std::string text = "gstream-v1 1048576\n";
  CanonicalPadTo(&text, 4 * kStreamWindowBytes, 4);
  const std::optional<Stream> expected = StreamFromText(text);
  ASSERT_TRUE(expected.has_value());
  const std::string path = ::testing::TempDir() + "/gstream_io_repeat.txt";
  WriteFile(path, text);
  const uint64_t fallbacks = Fallbacks();
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE(i);
    const std::optional<Stream> loaded = LoadStream(path);
    ASSERT_TRUE(loaded.has_value());
    ExpectSameUpdates(*loaded, *expected);
  }
  EXPECT_EQ(Fallbacks(), fallbacks);
  std::remove(path.c_str());
}

TEST(StreamIoRoundTripTest, SavedFileIsTheTextAcrossWindows) {
  // Long enough for SaveStream to flush its window several times.
  const Stream stream = ExtremeStream(11, 4 * kStreamWindowBytes / 20);
  const std::string path = ::testing::TempDir() + "/gstream_io_saved.txt";
  ASSERT_TRUE(SaveStream(stream, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string saved;
  char buffer[4096];
  for (size_t n; (n = std::fread(buffer, 1, sizeof(buffer), f)) > 0;) {
    saved.append(buffer, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_GT(saved.size(), 3 * kStreamWindowBytes);
  EXPECT_EQ(saved, ReferenceText(stream));
}

}  // namespace
}  // namespace gstream
