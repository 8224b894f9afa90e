// Plain-text serialization of streams: save a generated workload once,
// replay it across runs, tools, or machines.
//
// Format (line-oriented, '#' comments allowed):
//
//   gstream-v1 <domain>
//   <item> <delta>
//   <item> <delta>
//   ...
//
// Accepted grammar, exactly:
//   - Lines end at '\n'; the last line may lack one.  Line numbers in
//     diagnostics are 1-based and count every line, blank or not.
//   - A '#' starts a comment running to the end of its line, also when it
//     is glued to a token ("5 1#note").
//   - Tokens are separated by runs of ' ', '\t', '\r', '\v' and '\f' (the
//     `istream >>` set), so CRLF files load.  A line with no token left
//     after its comment is cut off is blank and skipped.
//   - The first non-blank line is the header: the token "gstream-v1", then
//     <domain>, and nothing else.  Every later non-blank line holds exactly
//     two tokens, <item> and <delta>.
//   - Numbers are decimal digits (leading zeros allowed) and each token must
//     be a number as a whole ("0x3", "5x" are errors).  <domain> and <item>
//     are uint64_t and take an optional '+' but no '-'; <delta> is int64_t
//     and takes '+' or '-'.  A value outside its type's range (2^64,
//     9223372036854775808, -9223372036854775809) is a parse error, never a
//     wrap.  <domain> must be positive and every <item> must be < <domain>.
//
// Loading validates the header, the domain bound on every item, and
// integer syntax; failures return std::nullopt rather than aborting, so
// callers can handle user-supplied files gracefully.  Pass a LoadStatus
// to learn *why* a load failed: the reason code distinguishes a missing
// file from a garbled header from an out-of-domain item, and the message
// names the offending line.
//
// Saving writes the canonical form: one header line, then one
// "<item> <delta>" line per update, single spaces, '\n' line ends, no signs
// on nonnegative values.
//
// Loading a regular file of at least two read windows takes three steps:
// one pass counts the newlines of each window, the stream is allocated
// once at its exact length, and min(HardwareThreads(), windows) threads
// parse line-aligned segments of the file (each starts at a window
// boundary, moved to the next line start) straight into their own updates.
// The segments take only the header on line 1 and the canonical update
// lines SaveStream writes; any other line, any failing line and any pread
// error stop them all, and the file is read again by the one-window loop,
// which parses it in order with the same line parser as StreamFromText.
// Pipes and files shorter than two windows take that loop directly.
// Either way the result, and every diagnostic, is what StreamFromText
// returns for the same text.  The parse threads start and end inside the
// call, and inherit the calling thread's CPU affinity.
//
// Memory contract: LoadStream holds at most HardwareThreads() read
// windows of kStreamWindowBytes plus the exactly sized stream, never the
// whole file; the one-window loop holds one window plus the stream, and
// grows its window only to fit a single line longer than it.
// StreamFromText holds only the text it is given plus the parsed stream.
// SaveStream formats into one window of kStreamWindowBytes and writes it
// out as it fills.  One line parser and one line formatter serve the file
// and the in-memory functions alike.

#ifndef GSTREAM_STREAM_STREAM_IO_H_
#define GSTREAM_STREAM_STREAM_IO_H_

#include <cstddef>
#include <optional>
#include <string>

#include "stream/stream.h"
#include "util/status.h"

namespace gstream {

// The read window of LoadStream and the write window of SaveStream.
// Windows from 64 KiB to 1 MiB load a 2M-update file equally fast, so the
// smallest one, which holds the least, is the size.
inline constexpr size_t kStreamWindowBytes = size_t{64} << 10;

// Serializes `stream` to the text format.  Returns false on I/O error.
bool SaveStream(const Stream& stream, const std::string& path);

// Parses a stream from the text format; nullopt on syntax, header, or
// domain violations (and on I/O errors).  On failure `status` (when
// given) holds the reason: kIoError for unreadable files, kBadMagic for
// a missing/foreign header, kParseError for bad tokens or integer
// overflow, kDomainError for well-formed values violating the domain
// bound -- each with the 1-based line number in the message.
std::optional<Stream> LoadStream(const std::string& path,
                                 LoadStatus* status = nullptr);

// In-memory variants, running the same parser and formatter as the file
// functions.
std::string StreamToText(const Stream& stream);
std::optional<Stream> StreamFromText(const std::string& text,
                                     LoadStatus* status = nullptr);

}  // namespace gstream

#endif  // GSTREAM_STREAM_STREAM_IO_H_
