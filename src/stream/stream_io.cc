#include "stream/stream_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/thread_affinity.h"

namespace gstream {
namespace {

constexpr std::string_view kMagic = "gstream-v1";

// Real I/O failures carry "<syscall> failed: <strerror> (errno N)" so logs
// can be correlated with the OS error; injected ones (fault sites below)
// carry fault::InjectedFaultMessage instead -- the two are always
// distinguishable by message shape.  tests/stream/stream_io_test.cc pins
// both shapes.
std::string ErrnoDetail(const char* op, int err) {
  return std::string(op) + " failed: " + std::strerror(err) + " (errno " +
         std::to_string(err) + ")";
}

// The whitespace set of `istream >>` in the C locale: ' ' \t \n \v \f \r.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Forward scan over the tokens of one line (comment already cut off).
class Tokens {
 public:
  Tokens(const char* begin, const char* end) : p_(begin), end_(end) {}

  // The next whitespace-delimited token; empty once the line is used up.
  std::string_view Next() {
    while (p_ != end_ && IsSpace(*p_)) ++p_;
    const char* start = p_;
    while (p_ != end_ && !IsSpace(*p_)) ++p_;
    return {start, static_cast<size_t>(p_ - start)};
  }

  const char* end() const { return end_; }

 private:
  const char* p_;
  const char* end_;
};

// Whole-token decimal parse: an optional '+' sign, then digits, with '-'
// allowed only for signed types (std::from_chars enforces that).  Overflow
// fails.
template <typename Int>
bool ParseDecimal(std::string_view token, Int* out) {
  if (token.starts_with('+') && !token.starts_with("+-")) {
    token.remove_prefix(1);
  }
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// Reads the run of decimal digits at p and advances p past it.
uint64_t ReadDigits(const char*& p, const char* end) {
  uint64_t value = 0;
  while (p != end && static_cast<unsigned char>(*p - '0') < 10) {
    value = 10 * value + static_cast<uint64_t>(*p++ - '0');
  }
  return value;
}

// True when [begin, end) holds 1 to `max_digits` bytes.
bool RunFits(const char* begin, const char* end, std::ptrdiff_t max_digits) {
  return begin != end && end - begin <= max_digits;
}

// The longest canonical update line, without its '\n'.
constexpr size_t kCanonicalLineMax = 19 + 1 + 1 + 18;

// Reads [p, end) as the canonical update line SaveStream writes,
// "<1-19 digits> <'-'?><1-18 digits>", with an item < `domain`: one pass,
// no tokenizer, and digit runs too short to overflow, so it reads exactly
// the update the general path would.  Returns false on any other line.
// The one routine behind LineParser's fast path and the segment parser.
bool ParseCanonical(const char* p, const char* end, uint64_t domain,
                    Update* out) {
  const char* const item_digits = p;
  const uint64_t item = ReadDigits(p, end);
  if (!RunFits(item_digits, p, 19) || p == end || *p != ' ') return false;
  ++p;
  const bool negative = p != end && *p == '-';
  p += negative;
  const char* const delta_digits = p;
  const auto magnitude = static_cast<int64_t>(ReadDigits(p, end));
  if (!RunFits(delta_digits, p, 18) || p != end || item >= domain) {
    return false;
  }
  *out = Update{item, negative ? -magnitude : magnitude};
  return true;
}

// The one parser behind StreamFromText and LoadStream.  It takes its input
// as whole lines, in as many pieces as the caller likes, and keeps the line
// number, the header state and the output stream between pieces, so every
// diagnostic names the same line however the text was cut.
class LineParser {
 public:
  // `size_hint` is the input's total size in bytes, 0 when unknown.  Each
  // update line takes at least 4 bytes ("0 0\n"), so a known size bounds
  // the update count: the stream is reserved once, before its first
  // update, and never regrows (a regrow holds the old and the new array at
  // once).  Capacity past the last update is never written, so it never
  // becomes resident.  Without a hint the stream grows as it fills.
  explicit LineParser(size_t size_hint) : size_hint_(size_hint) {}

  // Parses every '\n'-terminated line of [p, end).  Returns where the
  // unterminated tail starts (`end` when there is none), or nullptr once a
  // line has failed; Finish reports the failure.
  const char* Feed(const char* p, const char* end) {
    for (;;) {
      const char* nl =
          static_cast<const char*>(std::memchr(p, '\n', end - p));
      if (nl == nullptr) return p;
      if (!ParseLine(p, nl)) return nullptr;
      p = nl + 1;
    }
  }

  // Parses [p, end), the input's last line (it has no '\n'; an empty range
  // is no line), unless a line has already failed.  Returns the stream, or
  // nullopt with `status` saying why.
  std::optional<Stream> Finish(const char* p, const char* end,
                               LoadStatus* status) {
    if (error_.ok() && p != end) ParseLine(p, end);
    if (error_.ok() && !stream_.has_value()) {
      error_ = LoadStatus::Fail(LoadError::kBadMagic,
                                "no header line (empty input?)");
    }
    const bool ok = error_.ok();
    ReportStatus(std::move(error_), status);
    if (!ok) return std::nullopt;
    return std::move(stream_);
  }

  // The header's domain once it has parsed, else 0.
  uint64_t domain() const {
    return stream_.has_value() ? stream_->domain() : 0;
  }

 private:
  // One line, [begin, end) without its '\n'.  The first line holding a
  // token is the header; every later one holds at most one update.
  bool ParseLine(const char* begin, const char* end) {
    ++line_no_;
    if (stream_.has_value() && AppendCanonical(begin, end)) return true;
    const char* hash =
        static_cast<const char*>(std::memchr(begin, '#', end - begin));
    Tokens fields(begin, hash != nullptr ? hash : end);
    const std::string_view item_token = fields.Next();
    if (item_token.empty()) return true;
    if (!stream_.has_value()) return ParseHeader(item_token, fields);
    uint64_t item = 0;
    int64_t delta = 0;
    if (!ParseDecimal(item_token, &item) ||
        !ParseDecimal(fields.Next(), &delta) || !fields.Next().empty()) {
      // Quote the line from its first token to its last non-space byte.
      const char* stop = fields.end();
      while (IsSpace(stop[-1])) --stop;
      return Fail(LoadError::kParseError,
                  "expected '<item> <delta>', got '" +
                      std::string(item_token.data(), stop) + "'");
    }
    if (item >= stream_->domain()) {
      return Fail(LoadError::kDomainError,
                  "item " + std::to_string(item) + " outside domain " +
                      std::to_string(stream_->domain()));
    }
    stream_->Append(item, delta);
    return true;
  }

  // The fast path for the canonical update line (ParseCanonical); any
  // other line, and every line that fails, takes the general path.
  bool AppendCanonical(const char* p, const char* end) {
    Update u;
    if (!ParseCanonical(p, end, stream_->domain(), &u)) return false;
    stream_->Append(u.item, u.delta);
    return true;
  }

  bool ParseHeader(std::string_view magic, Tokens fields) {
    if (magic != kMagic) {
      return Fail(LoadError::kBadMagic,
                  "expected '" + std::string(kMagic) + " <domain>' header");
    }
    uint64_t domain = 0;
    if (!ParseDecimal(fields.Next(), &domain)) {
      return Fail(LoadError::kParseError,
                  "domain is not a 64-bit unsigned integer");
    }
    if (domain == 0) {
      return Fail(LoadError::kDomainError, "domain must be positive");
    }
    if (const std::string_view extra = fields.Next(); !extra.empty()) {
      return Fail(LoadError::kParseError,
                  "unexpected token '" + std::string(extra) +
                      "' after header");
    }
    stream_.emplace(domain);
    if (size_hint_ != 0) stream_->Reserve(size_hint_ / 4 + 1);
    return true;
  }

  bool Fail(LoadError error, const std::string& detail) {
    error_ = LoadStatus::Fail(
        error, "line " + std::to_string(line_no_) + ": " + detail);
    return false;
  }

  const size_t size_hint_;
  size_t line_no_ = 0;  // 1-based; counts every line, blank or not
  std::optional<Stream> stream_;  // engaged once the header parsed
  LoadStatus error_;
};

// The one writer: formats `stream` in canonical form into a fixed window
// and hands each filled window to `flush(data, size)`, stopping early when
// flush returns false.  Returns false iff a flush did.
template <typename Flush>
bool WriteText(const Stream& stream, Flush flush) {
  // Widest fields: 20 digits for a uint64_t, '-' and 19 digits for an
  // int64_t; a line is "<item> <delta>\n".
  constexpr size_t kFieldMax = 20;
  constexpr size_t kLineMax = 2 * kFieldMax + 2;
  std::string window(kStreamWindowBytes, '\0');
  char* const begin = window.data();
  char* const last_line = begin + window.size() - kLineMax;
  char* p = std::copy(kMagic.begin(), kMagic.end(), begin);
  *p++ = ' ';
  p = std::to_chars(p, p + kFieldMax, stream.domain()).ptr;
  *p++ = '\n';
  for (const Update& u : stream.updates()) {
    if (p > last_line) {
      if (!flush(begin, static_cast<size_t>(p - begin))) return false;
      p = begin;
    }
    p = std::to_chars(p, p + kFieldMax, u.item).ptr;
    *p++ = ' ';
    p = std::to_chars(p, p + kFieldMax, u.delta).ptr;
    *p++ = '\n';
  }
  return flush(begin, static_cast<size_t>(p - begin));
}

// Reports a kIoError on `path` and returns nullopt.
std::optional<Stream> IoError(const std::string& path,
                              const std::string& detail, LoadStatus* status) {
  ReportStatus(LoadStatus::Fail(LoadError::kIoError, path + ": " + detail),
               status);
  return std::nullopt;
}

struct FileCloser {
  int fd;
  ~FileCloser() { ::close(fd); }
};

// The one-window loop: reads `fd` from its current offset to the end and
// parses it with one LineParser.  `size_hint` is as for LineParser;
// `read_fault`, when given, is asked before every read().  Each pass reads
// into the window behind the unterminated tail line the last pass left at
// its front, then parses the complete lines.  Only a single line longer
// than the window grows it.
std::optional<Stream> LoadWindowByWindow(int fd, size_t size_hint,
                                         fault::FaultPoint* read_fault,
                                         const std::string& path,
                                         LoadStatus* status) {
  LineParser parser(size_hint);
  std::string window(kStreamWindowBytes, '\0');
  size_t held = 0;
  for (;;) {
    if (held == window.size()) window.resize(2 * window.size());
    if (read_fault != nullptr && read_fault->ShouldFire()) {
      return IoError(path, fault::InjectedFaultMessage(read_fault->name()),
                     status);
    }
    const ssize_t n = ::read(fd, window.data() + held, window.size() - held);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(path, ErrnoDetail("read", errno), status);
    }
    const char* const end = window.data() + held + n;
    const char* const tail = parser.Feed(window.data(), end);
    if (tail == nullptr) break;  // a line failed: Finish reports it
    held = static_cast<size_t>(end - tail);
    std::memmove(window.data(), tail, held);
  }
  return parser.Finish(window.data(), window.data() + held, status);
}

// The number of '\n' bytes in [p, p + n).  Word at a time: each byte lane
// of `lanes` counts the newlines seen in that lane, and is folded into the
// total before it can pass 255.
uint64_t CountNewlines(const char* p, size_t n) {
  constexpr uint64_t kOnes = 0x0101010101010101;
  constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7f;
  constexpr size_t kFoldEvery = 255;  // words per lane fold
  uint64_t total = 0;
  size_t i = 0;
  while (n - i >= sizeof(uint64_t)) {
    uint64_t lanes = 0;
    for (size_t w = 0; w < kFoldEvery && n - i >= sizeof(uint64_t);
         ++w, i += sizeof(uint64_t)) {
      uint64_t word = 0;
      std::memcpy(&word, p + i, sizeof(word));
      const uint64_t x = word ^ ('\n' * kOnes);  // 0 exactly at a newline
      // Bit 7 of each byte of ((x & kLow7) + kLow7) | x is set iff the
      // byte of x is nonzero; no carry crosses a lane.
      lanes += (~(((x & kLow7) + kLow7) | x | kLow7)) >> 7;
    }
    // Pairs of lanes into 16-bit lanes (each <= 510), then their sum.
    const uint64_t pairs = (lanes & 0x00ff00ff00ff00ff) +
                           ((lanes >> 8) & 0x00ff00ff00ff00ff);
    total += (pairs * 0x0001000100010001) >> 48;
  }
  for (; i < n; ++i) total += p[i] == '\n';
  return total;
}

// What the first pass over a regular file learns.
struct LineCount {
  uint64_t bytes = 0;
  // newlines[w] counts the '\n' bytes of the w-th kStreamWindowBytes of
  // the file.
  std::vector<uint64_t> newlines;
  bool ends_in_newline = false;
  // Line 1 with its '\n', when that lies in the first window; else empty.
  std::string first_line;
};

// The first pass: reads `fd` to its end one window at a time, asking
// `read_fault` before every read(), and counts the newlines of each
// window.  Returns false with the error in `detail` when a read fails.
bool CountLines(int fd, fault::FaultPoint* read_fault, LineCount* count,
                std::string* detail) {
  std::unique_ptr<char[]> window(new char[kStreamWindowBytes]);
  for (;;) {
    if (read_fault->ShouldFire()) {
      *detail = fault::InjectedFaultMessage(read_fault->name());
      return false;
    }
    // Reads never cross a window boundary, so each lands in one count.
    const size_t at = count->bytes % kStreamWindowBytes;
    const ssize_t n = ::read(fd, window.get() + at, kStreamWindowBytes - at);
    if (n == 0) return true;
    if (n < 0) {
      if (errno == EINTR) continue;
      *detail = ErrnoDetail("read", errno);
      return false;
    }
    const char* const data = window.get() + at;
    if (count->bytes == 0) {
      if (const void* nl = std::memchr(data, '\n', n)) {
        count->first_line.assign(data, static_cast<const char*>(nl) + 1);
      }
    }
    if (at == 0) count->newlines.push_back(0);
    count->newlines.back() += CountNewlines(data, static_cast<size_t>(n));
    count->bytes += static_cast<uint64_t>(n);
    count->ends_in_newline = data[n - 1] == '\n';
  }
}

// One share of the parallel parse: the update lines that follow the
// newlines at file offsets [from, to), which are updates [first, last).
// The line after the file's j-th newline (from 0) is update j; line 1, the
// header, ends at newline 0.
struct Segment {
  uint64_t from = 0;
  uint64_t to = 0;
  size_t first = 0;
  size_t last = 0;
};

// Parses `segment` into its updates of `stream` through a window of its
// own, checking that its lines are exactly updates [first, last), so a
// count that does not match the file is caught here.  Returns false,
// leaving the rest, on a line that is not canonical, a pread error, a
// file that no longer matches the count, or once `stop` is set.
bool ParseSegment(int fd, uint64_t file_bytes, const Segment& segment,
                  const std::atomic<bool>& stop, Stream* stream) {
  std::unique_ptr<char[]> window(new char[kStreamWindowBytes]);
  char* const buf = window.get();
  const uint64_t domain = stream->domain();
  size_t slot = segment.first;
  uint64_t offset = segment.from;  // of the next read
  size_t held = 0;  // bytes of an unterminated line at the window's front
  bool seeking = true;  // the first '\n' at or after `from` is still ahead
  while (offset < file_bytes) {
    if (stop.load(std::memory_order_relaxed)) return false;
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(kStreamWindowBytes - held, file_bytes - offset));
    const ssize_t n =
        ::pread(fd, buf + held, want, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    const uint64_t base = offset - held;  // the file offset of buf[0]
    offset += static_cast<uint64_t>(n);
    const char* p = buf;
    const char* const end = buf + held + n;
    if (seeking) {
      const void* nl = std::memchr(p, '\n', end - p);
      if (nl == nullptr) return offset == file_bytes && slot == segment.last;
      p = static_cast<const char*>(nl) + 1;
      seeking = false;
    }
    for (;;) {
      // The line at p follows a newline of this segment iff it starts at
      // or before `to`.
      if (base + static_cast<uint64_t>(p - buf) > segment.to) {
        return slot == segment.last;
      }
      if (slot == segment.last) return false;
      const void* nl = std::memchr(p, '\n', end - p);
      if (nl == nullptr) break;
      Update u;
      if (!ParseCanonical(p, static_cast<const char*>(nl), domain, &u)) {
        return false;
      }
      stream->Set(slot++, u.item, u.delta);
      p = static_cast<const char*>(nl) + 1;
    }
    held = static_cast<size_t>(end - p);
    if (held > kCanonicalLineMax) return false;
    std::memmove(buf, p, held);
  }
  // The file's last line, which has no '\n' and is this segment's.
  Update u;
  if (seeking) return slot == segment.last;
  if (!ParseCanonical(buf, buf + held, domain, &u)) return false;
  stream->Set(slot++, u.item, u.delta);
  return slot == segment.last;
}

// The parallel parse of a counted file: line 1 through LineParser, then
// min(HardwareThreads(), windows) segments, each starting at a window
// boundary and parsed concurrently into a stream sized once.  Returns
// nullopt when line 1 is not the header or any segment fails.
std::optional<Stream> LoadSegments(int fd, const LineCount& count) {
  LineParser header(0);
  const char* const line = count.first_line.data();
  const char* const line_end = line + count.first_line.size();
  if (line == line_end || header.Feed(line, line_end) != line_end ||
      header.domain() == 0) {
    return std::nullopt;
  }
  uint64_t newlines = 0;
  for (const uint64_t n : count.newlines) newlines += n;
  const size_t windows = count.newlines.size();
  const size_t parts = std::min<size_t>(HardwareThreads(), windows);
  std::vector<Segment> segments(parts);
  size_t window = 0;
  uint64_t before = 0;  // newlines ahead of `window`
  for (size_t k = 0; k < parts; ++k) {
    const size_t first_window = k * windows / parts;
    for (; window < first_window; ++window) before += count.newlines[window];
    segments[k].from = k == 0 ? count.first_line.size() - 1
                              : uint64_t{first_window} * kStreamWindowBytes;
    segments[k].first = before;
    if (k > 0) {
      segments[k - 1].to = segments[k].from;
      segments[k - 1].last = before;
    }
  }
  // The file's final '\n', if it ends in one, starts no line.
  segments.back().to = count.bytes - count.ends_in_newline;
  segments.back().last = newlines - count.ends_in_newline;
  if (segments.back().first > segments.back().last) return std::nullopt;
  Stream stream(header.domain());
  stream.Resize(segments.back().last);
  std::atomic<bool> stop{false};
  auto parse = [&](const Segment& segment) {
    if (!ParseSegment(fd, count.bytes, segment, stop, &stream)) {
      stop.store(true, std::memory_order_relaxed);
    }
  };
  {
    std::vector<std::jthread> threads;  // joined on leaving the block
    threads.reserve(parts - 1);
    for (size_t k = 1; k < parts; ++k) threads.emplace_back(parse, segments[k]);
    parse(segments[0]);
  }
  if (stop.load(std::memory_order_relaxed)) return std::nullopt;
  return stream;
}

}  // namespace

std::string StreamToText(const Stream& stream) {
  std::string out;
  WriteText(stream, [&out](const char* data, size_t size) {
    out.append(data, size);
    return true;
  });
  return out;
}

std::optional<Stream> StreamFromText(const std::string& text,
                                     LoadStatus* status) {
  const char* const end = text.data() + text.size();
  LineParser parser(text.size());
  return parser.Finish(parser.Feed(text.data(), end), end, status);
}

bool SaveStream(const Stream& stream, const std::string& path) {
  static fault::FaultPoint* const kWriteError =
      fault::Registry::Get().GetPoint("stream_io/write_error");
  if (kWriteError->ShouldFire()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = WriteText(stream, [f](const char* data, size_t size) {
    return std::fwrite(data, 1, size, f) == size;
  });
  return std::fclose(f) == 0 && ok;
}

std::optional<Stream> LoadStream(const std::string& path,
                                 LoadStatus* status) {
  // Fault sites (handles are process-lifetime, fetched once): injected
  // open/read errors take exactly the real error paths below, but with the
  // uniform injected-fault message in place of the errno detail.  The read
  // site is asked before every read() of the first pass over the file, so
  // it can fire mid-file.
  static fault::FaultPoint* const kOpenFault =
      fault::Registry::Get().GetPoint("stream_io/open_error");
  static fault::FaultPoint* const kReadFault =
      fault::Registry::Get().GetPoint("stream_io/read_error");
  if (kOpenFault->ShouldFire()) {
    return IoError(path, fault::InjectedFaultMessage(kOpenFault->name()),
                   status);
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return IoError(path, ErrnoDetail("open", errno), status);
  const FileCloser closer{fd};
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return IoError(path, ErrnoDetail("fstat", errno), status);
  }
  // A regular file's size bounds the stream; pipes report none.
  const size_t size =
      S_ISREG(st.st_mode) ? static_cast<size_t>(st.st_size) : 0;
  if (size < 2 * kStreamWindowBytes) {
    return LoadWindowByWindow(fd, size, kReadFault, path, status);
  }
  LineCount count;
  if (std::string detail; !CountLines(fd, kReadFault, &count, &detail)) {
    return IoError(path, detail, status);
  }
  if (std::optional<Stream> stream = LoadSegments(fd, count)) {
    ReportStatus(LoadStatus::Ok(), status);
    return stream;
  }
  // A line off the canonical form, a failing line or a pread error: the
  // one-window loop reads the file again and says what is wrong.
  static obs::Counter* const kFallbacks =
      obs::Registry::Get().GetCounter("stream_io/load_fallbacks");
  kFallbacks->Increment();
  if (::lseek(fd, 0, SEEK_SET) != 0) {
    return IoError(path, ErrnoDetail("lseek", errno), status);
  }
  return LoadWindowByWindow(fd, size, nullptr, path, status);
}

}  // namespace gstream
