#include "stream/stream_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>

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

}  // namespace

std::string StreamToText(const Stream& stream) {
  // Widest fields: 20 digits for a uint64_t, '-' and 19 digits for an
  // int64_t; a line is "<item> <delta>\n".  Reserving the widest case
  // costs address space only: capacity past the written text is never
  // touched, so it never becomes resident.
  constexpr size_t kFieldMax = 20;
  constexpr size_t kLineMax = 2 * kFieldMax + 2;
  std::string out;
  out.reserve(kMagic.size() + kLineMax * (stream.length() + 1));
  char line[kLineMax];
  out.append(kMagic);
  out.push_back(' ');
  out.append(line, std::to_chars(line, line + kFieldMax, stream.domain()).ptr);
  out.push_back('\n');
  for (const Update& u : stream.updates()) {
    char* p = std::to_chars(line, line + kFieldMax, u.item).ptr;
    *p++ = ' ';
    p = std::to_chars(p, p + kFieldMax, u.delta).ptr;
    *p++ = '\n';
    out.append(line, p);
  }
  return out;
}

std::optional<Stream> StreamFromText(const std::string& text,
                                     LoadStatus* status) {
  const char* p = text.data();
  const char* const end = p + text.size();
  size_t line_no = 0;
  auto fail = [&](LoadError error, const std::string& detail) {
    ReportStatus(LoadStatus::Fail(
                     error, "line " + std::to_string(line_no) + ": " + detail),
                 status);
    return std::nullopt;
  };
  // Cuts the next line at '\n' and '#'; returns its content and advances p.
  auto next_line = [&]() -> Tokens {
    const char* nl =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    const char* line_end = nl != nullptr ? nl : end;
    const char* hash =
        static_cast<const char*>(std::memchr(p, '#', line_end - p));
    const Tokens tokens(p, hash != nullptr ? hash : line_end);
    p = nl != nullptr ? nl + 1 : end;
    ++line_no;
    return tokens;
  };

  // Header: the first line holding a token.
  Tokens header(end, end);
  std::string_view magic;
  while (p != end && magic.empty()) {
    header = next_line();
    magic = header.Next();
  }
  if (magic.empty()) {
    ReportStatus(LoadStatus::Fail(LoadError::kBadMagic,
                                  "no header line (empty input?)"),
                 status);
    return std::nullopt;
  }
  if (magic != kMagic) {
    return fail(LoadError::kBadMagic,
                "expected '" + std::string(kMagic) + " <domain>' header");
  }
  uint64_t domain = 0;
  if (!ParseDecimal(header.Next(), &domain)) {
    return fail(LoadError::kParseError,
                "domain is not a 64-bit unsigned integer");
  }
  if (domain == 0) {
    return fail(LoadError::kDomainError, "domain must be positive");
  }
  if (const std::string_view extra = header.Next(); !extra.empty()) {
    return fail(LoadError::kParseError,
                "unexpected token '" + std::string(extra) + "' after header");
  }

  // Every remaining line holds at most one update, and each update line
  // takes at least 4 bytes ("0 0\n"): reserve once, never regrow.
  const size_t newlines = static_cast<size_t>(std::count(p, end, '\n'));
  Stream stream(domain);
  stream.Reserve(std::min(newlines + 1, static_cast<size_t>(end - p) / 4 + 1));
  while (p != end) {
    Tokens fields = next_line();
    const std::string_view item_token = fields.Next();
    if (item_token.empty()) continue;
    uint64_t item = 0;
    int64_t delta = 0;
    if (!ParseDecimal(item_token, &item) ||
        !ParseDecimal(fields.Next(), &delta) || !fields.Next().empty()) {
      // Quote the line from its first token to its last non-space byte.
      const char* stop = fields.end();
      while (IsSpace(stop[-1])) --stop;
      return fail(LoadError::kParseError,
                  "expected '<item> <delta>', got '" +
                      std::string(item_token.data(), stop) + "'");
    }
    if (item >= domain) {
      return fail(LoadError::kDomainError,
                  "item " + std::to_string(item) + " outside domain " +
                      std::to_string(domain));
    }
    stream.Append(item, delta);
  }
  ReportStatus(LoadStatus::Ok(), status);
  return stream;
}

bool SaveStream(const Stream& stream, const std::string& path) {
  static fault::FaultPoint* const kWriteFault =
      fault::Registry::Get().GetPoint("stream_io/write_error");
  if (kWriteFault->ShouldFire()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = StreamToText(stream);
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::optional<Stream> LoadStream(const std::string& path,
                                 LoadStatus* status) {
  // Fault sites (handles are process-lifetime, fetched once): injected
  // open/read errors take exactly the real error paths below, but with the
  // uniform injected-fault message in place of the errno detail.
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
  if (kReadFault->ShouldFire()) {
    ::close(fd);
    return io_error(fault::InjectedFaultMessage(kReadFault->name()));
  }
  // One buffer sized from fstat, with one spare byte so the end-of-file
  // read lands without a regrow.  Only files that lie about their size
  // (pipes, procfs) take the doubling path.
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return io_error(ErrnoDetail("fstat", err));
  }
  std::string text(static_cast<size_t>(std::max<off_t>(st.st_size, 0)) + 1,
                   '\0');
  size_t got = 0;
  for (;;) {
    if (got == text.size()) text.resize(2 * text.size());
    const ssize_t n = ::read(fd, text.data() + got, text.size() - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      const int err = errno;
      ::close(fd);
      return io_error(ErrnoDetail("read", err));
    }
  }
  ::close(fd);
  text.resize(got);
  return StreamFromText(text, status);
}

}  // namespace gstream
