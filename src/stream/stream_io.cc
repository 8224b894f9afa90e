#include "stream/stream_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#include "util/fault.h"

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

  // The fast path for the canonical update line SaveStream writes,
  // "<1-19 digits> <'-'?><1-18 digits>", with an in-domain item: one pass,
  // no tokenizer, and digit runs too short to overflow, so it reads
  // exactly the update the general path would.  Any other line, and every
  // line that fails, returns false and takes the general path.
  bool AppendCanonical(const char* p, const char* end) {
    const char* const item_digits = p;
    const uint64_t item = ReadDigits(p, end);
    if (!RunFits(item_digits, p, 19) || p == end || *p != ' ') return false;
    ++p;
    const bool negative = p != end && *p == '-';
    p += negative;
    const char* const delta_digits = p;
    const auto magnitude = static_cast<int64_t>(ReadDigits(p, end));
    if (!RunFits(delta_digits, p, 18) || p != end ||
        item >= stream_->domain()) {
      return false;
    }
    stream_->Append(item, negative ? -magnitude : magnitude);
    return true;
  }

  // Reads the run of decimal digits at p and advances p past it.
  static uint64_t ReadDigits(const char*& p, const char* end) {
    uint64_t value = 0;
    while (p != end && static_cast<unsigned char>(*p - '0') < 10) {
      value = 10 * value + static_cast<uint64_t>(*p++ - '0');
    }
    return value;
  }

  // True when [begin, end) holds 1 to `max_digits` bytes.
  static bool RunFits(const char* begin, const char* end,
                      std::ptrdiff_t max_digits) {
    return begin != end && end - begin <= max_digits;
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
  static fault::FaultPoint* const kWriteFault =
      fault::Registry::Get().GetPoint("stream_io/write_error");
  if (kWriteFault->ShouldFire()) return false;
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
  // site is asked before every read(), so it can fire mid-file.
  static fault::FaultPoint* const kOpenFault =
      fault::Registry::Get().GetPoint("stream_io/open_error");
  static fault::FaultPoint* const kReadFault =
      fault::Registry::Get().GetPoint("stream_io/read_error");
  auto io_error = [&](const std::string& detail) {
    ReportStatus(LoadStatus::Fail(LoadError::kIoError, path + ": " + detail),
                 status);
    return std::nullopt;
  };
  if (kOpenFault->ShouldFire()) {
    return io_error(fault::InjectedFaultMessage(kOpenFault->name()));
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return io_error(ErrnoDetail("open", errno));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return io_error(ErrnoDetail("fstat", err));
  }
  // A regular file's size bounds the stream; pipes report none.
  LineParser parser(S_ISREG(st.st_mode) ? static_cast<size_t>(st.st_size)
                                        : 0);
  // Each pass reads into the window behind the unterminated tail line the
  // last pass left at its front, then parses the complete lines.  Only a
  // single line longer than the window grows it.
  std::string window(kStreamWindowBytes, '\0');
  size_t held = 0;
  for (;;) {
    if (held == window.size()) window.resize(2 * window.size());
    if (kReadFault->ShouldFire()) {
      ::close(fd);
      return io_error(fault::InjectedFaultMessage(kReadFault->name()));
    }
    const ssize_t n = ::read(fd, window.data() + held, window.size() - held);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return io_error(ErrnoDetail("read", err));
    }
    const char* const end = window.data() + held + n;
    const char* const tail = parser.Feed(window.data(), end);
    if (tail == nullptr) break;  // a line failed: Finish reports it
    held = static_cast<size_t>(end - tail);
    std::memmove(window.data(), tail, held);
  }
  ::close(fd);
  return parser.Finish(window.data(), window.data() + held, status);
}

}  // namespace gstream
