#include "sim/trace_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "hpl/hpl_trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace bwshare::sim {
namespace {

AppTrace sample_trace() {
  AppTrace trace(3);
  trace.push(0, Event::compute(0.25));
  trace.push(0, Event::send(1, 4e6));
  trace.push(1, Event::recv(0, 4e6));
  trace.push(2, Event::send(1, 1e3));
  trace.push(1, Event::recv_any(1e3));
  trace.push(1, Event::irecv(0, 2e3));
  trace.push(0, Event::isend(1, 2e3));
  trace.push(0, Event::wait_all());
  trace.push(1, Event::wait_all());
  trace.push_barrier_all();
  return trace;
}

TEST(TraceIo, RoundTrip) {
  const auto original = sample_trace();
  const auto text = write_trace(original);
  const auto parsed = read_trace(text);
  ASSERT_EQ(parsed.num_tasks(), original.num_tasks());
  for (TaskId t = 0; t < original.num_tasks(); ++t) {
    const auto& a = original.program(t);
    const auto& b = parsed.program(t);
    ASSERT_EQ(a.size(), b.size()) << "task " << t;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].peer, b[i].peer);
      EXPECT_DOUBLE_EQ(a[i].bytes, b[i].bytes);
      EXPECT_DOUBLE_EQ(a[i].seconds, b[i].seconds);
    }
  }
}

TEST(TraceIo, CommentsAndWhitespace) {
  const auto trace = read_trace(R"(
# a comment
tasks 2

0 send 1 100   # trailing comment
1 recv 0 100
)");
  EXPECT_EQ(trace.num_tasks(), 2);
  EXPECT_EQ(trace.program(0).size(), 1u);
}

TEST(TraceIo, Errors) {
  EXPECT_THROW(read_trace("0 send 1 100"), Error);       // no tasks line
  EXPECT_THROW(read_trace("tasks 0"), Error);            // bad count
  EXPECT_THROW(read_trace("tasks 2\n5 compute 1"), Error);  // task range
  EXPECT_THROW(read_trace("tasks 2\n0 explode"), Error);  // unknown kind
  EXPECT_THROW(read_trace("tasks 2\n0 send 1"), Error);   // missing size
  EXPECT_THROW(read_trace("tasks 2\nxyz barrier"), Error);  // bad task id
  EXPECT_THROW(read_trace("tasks 2\n1 send abc 100"), Error);  // bad peer
  EXPECT_THROW(read_trace("tasks 2\n0 send -1 100"), Error);   // peer range
  EXPECT_THROW(read_trace("tasks 2x\n0 send 1 100"), Error);   // bad count
  EXPECT_THROW(read_trace("tasks 2\n0 compute abc"), Error);   // bad duration
  EXPECT_THROW(read_trace("tasks 2\n0 send 1 junk"), Error);   // bad size
  EXPECT_THROW(read_trace("tasks 2\n0 send 1 -100"), Error);   // negative size
  EXPECT_THROW(read_trace("tasks 4294967297\n0 barrier"), Error);  // int wrap
  EXPECT_THROW(read_trace("tasks 2\n0 compute nan"), Error);   // non-finite
  EXPECT_THROW(read_trace("tasks 2\n0 send 1 1e999"), Error);  // overflow
  EXPECT_THROW(read_trace("tasks 2147483647\n0 barrier"), Error);  // ceiling
  EXPECT_THROW(read_trace("tasks 1000001"), Error);              // ceiling
  try {
    (void)read_trace("# header\ntasks 2147483647\n");
    ADD_FAILURE() << "a task count above the ceiling must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trace line 2: task count "
                                         "2147483647 exceeds the limit of "
                                         "1000000"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(read_trace("tasks 1000000").num_tasks(), 1000000);
  EXPECT_THROW(AppTrace(1000001), Error);
}

TEST(TraceIo, ReadsFromAPipe) {
  // A FIFO has no size to read up front, so the reader takes it in chunks;
  // 200 KiB of text crosses several of them.
  AppTrace original(4);
  for (int i = 0; i < 8000; ++i) {
    original.push(i % 4, Event::compute(0.001 * i));
    original.push(i % 4, Event::isend((i + 1) % 4, 1000.0 * i));
  }
  const std::string text = write_trace(original);
  ASSERT_GT(text.size(), 200u * 1024);
  const std::string path = ::testing::TempDir() + "/bwshare_trace_fifo";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  });
  const AppTrace parsed = read_trace_file(path);
  writer.join();
  std::remove(path.c_str());
  EXPECT_EQ(write_trace(parsed), text);
}

TEST(TraceIo, StarAppliesEventToEveryTask) {
  const auto trace = read_trace(R"(
tasks 3
0 send 1 100
1 recv 0 100
* barrier
)");
  for (TaskId t = 0; t < trace.num_tasks(); ++t) {
    const auto& program = trace.program(t);
    ASSERT_FALSE(program.empty()) << "task " << t;
    EXPECT_EQ(program.back().kind, EventKind::kBarrier) << "task " << t;
  }
}

TEST(TraceIo, FileRoundTrip) {
  const auto original = sample_trace();
  const std::string path = ::testing::TempDir() + "/bwshare_trace.txt";
  write_trace_file(original, path);
  const auto parsed = read_trace_file(path);
  EXPECT_EQ(parsed.total_events(), original.total_events());
  // read_trace builds through AppTrace::push, which keeps the send count.
  EXPECT_EQ(original.total_sends(), 3u);  // send, send, isend
  EXPECT_EQ(parsed.total_sends(), original.total_sends());
  std::remove(path.c_str());
  EXPECT_THROW(read_trace_file("/nonexistent/trace.txt"), Error);
}


// ------------------------------------------------------------------------
// Pins against a transcription of the stream-based reader and writer this
// format used to have (ostringstream + "%.9g"/"%.0f", istringstream +
// getline + whitespace split + strtod/strtol), the way MaxMinReference pins
// the fluid solver: the text the writer emits and the AppTrace the reader
// builds must match the transcription byte for byte and bit for bit, and
// every rejected input must fail with the same message.
namespace reference {

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    const size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

// 0 = ok, 1 = malformed, 2 = out of range (the strtol-based try_parse_long).
int parse_long(const std::string& text, long& out, long min, long max) {
  if (text.empty()) return 1;
  size_t first = 0;
  if (text[0] == '+' || text[0] == '-') first = 1;
  if (first == text.size() || text[first] < '0' || text[first] > '9') return 1;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) return 1;
  if (errno == ERANGE || v < min || v > max) return 2;
  out = v;
  return 0;
}

std::string write_trace(const AppTrace& trace) {
  std::ostringstream os;
  os << "tasks " << trace.num_tasks() << "\n";
  for (TaskId t = 0; t < trace.num_tasks(); ++t) {
    for (const auto& e : trace.program(t)) {
      switch (e.kind) {
        case EventKind::kCompute:
          os << t << " compute " << strformat("%.9g", e.seconds) << "\n";
          break;
        case EventKind::kSend:
        case EventKind::kIsend:
          os << t << (e.kind == EventKind::kSend ? " send " : " isend ")
             << e.peer << " " << strformat("%.0f", e.bytes) << "\n";
          break;
        case EventKind::kRecv:
        case EventKind::kIrecv:
          os << t << (e.kind == EventKind::kRecv ? " recv " : " irecv ");
          if (e.peer == kAnySource)
            os << "any";
          else
            os << e.peer;
          os << " " << strformat("%.0f", e.bytes) << "\n";
          break;
        case EventKind::kWaitAll:
          os << t << " waitall\n";
          break;
        case EventKind::kBarrier:
          os << t << " barrier\n";
          break;
      }
    }
  }
  return os.str();
}

AppTrace read_trace(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string line;
  int line_no = 0;
  AppTrace trace;
  bool have_tasks = false;

  auto fail = [&](const std::string& msg) -> void {
    throw Error(strformat("trace line %d: %s", line_no, msg.c_str()));
  };
  auto parse_task = [&](const std::string& field,
                        const std::string& what) -> TaskId {
    long t = 0;
    switch (parse_long(field, t, 0, trace.num_tasks() - 1)) {
      case 1:
        fail("malformed " + what + " '" + field + "'");
        break;
      case 2:
        fail(what + " out of range");
        break;
      default:
        break;
    }
    return static_cast<TaskId>(t);
  };
  auto parse_number = [&](const std::string& field,
                          const std::string& what) -> double {
    char* end = nullptr;
    const double v = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0')
      fail("malformed " + what + " '" + field + "'");
    if (!std::isfinite(v) || v < 0.0)
      fail(what + " must be finite and non-negative");
    return v;
  };

  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto fields = split_ws(line);
    if (fields.empty()) continue;

    if (fields[0] == "tasks") {
      if (have_tasks) fail("duplicate 'tasks' directive");
      if (fields.size() != 2) fail("'tasks' takes one argument");
      long n = 0;
      switch (parse_long(fields[1], n, 1, std::numeric_limits<int>::max())) {
        case 1:
          fail("malformed task count '" + fields[1] + "'");
          break;
        case 2:
          fail("task count out of range");
          break;
        default:
          break;
      }
      trace = AppTrace(static_cast<int>(n));
      have_tasks = true;
      continue;
    }
    if (!have_tasks) fail("'tasks' directive must come first");

    std::vector<TaskId> targets;
    if (fields[0] == "*") {
      for (TaskId t = 0; t < trace.num_tasks(); ++t) targets.push_back(t);
    } else {
      targets.push_back(parse_task(fields[0], "task id"));
    }
    if (fields.size() < 2) fail("missing event kind");
    const std::string& kind = fields[1];
    Event event = Event::barrier();
    if (kind == "compute") {
      if (fields.size() != 3) fail("compute takes a duration");
      event = Event::compute(parse_number(fields[2], "duration"));
    } else if (kind == "send" || kind == "isend") {
      if (fields.size() != 4) fail(kind + " takes peer and size");
      const TaskId peer = parse_task(fields[2], "peer");
      const double bytes = parse_number(fields[3], "size");
      event = kind == "send" ? Event::send(peer, bytes)
                             : Event::isend(peer, bytes);
    } else if (kind == "recv" || kind == "irecv") {
      if (fields.size() != 4) fail(kind + " takes peer and size");
      const TaskId peer =
          fields[2] == "any" ? kAnySource : parse_task(fields[2], "peer");
      const double bytes = parse_number(fields[3], "size");
      event = kind == "recv" ? Event::recv(peer, bytes)
                             : Event::irecv(peer, bytes);
    } else if (kind == "waitall") {
      event = Event::wait_all();
    } else if (kind != "barrier") {
      fail("unknown event kind '" + kind + "'");
    }
    for (const TaskId t : targets) trace.push(t, event);
  }
  if (!have_tasks) throw Error("trace has no 'tasks' directive");
  return trace;
}

}  // namespace reference

/// Bitwise equality of two traces; returns a description of the first
/// difference, or "" when they are identical.
std::string trace_difference(const AppTrace& a, const AppTrace& b) {
  if (a.num_tasks() != b.num_tasks())
    return strformat("num_tasks %d vs %d", a.num_tasks(), b.num_tasks());
  if (a.total_sends() != b.total_sends()) return "total_sends";
  for (TaskId t = 0; t < a.num_tasks(); ++t) {
    const auto& pa = a.program(t);
    const auto& pb = b.program(t);
    if (pa.size() != pb.size())
      return strformat("task %d: %zu vs %zu events", t, pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      const Event& x = pa[i];
      const Event& y = pb[i];
      if (x.kind != y.kind || x.peer != y.peer ||
          std::bit_cast<std::uint64_t>(x.seconds) !=
              std::bit_cast<std::uint64_t>(y.seconds) ||
          std::bit_cast<std::uint64_t>(x.bytes) !=
              std::bit_cast<std::uint64_t>(y.bytes))
        return strformat("task %d event %zu: %a/%a vs %a/%a", t, i,
                         x.seconds, x.bytes, y.seconds, y.bytes);
    }
  }
  return "";
}

/// Read `text` with read_trace and with the reference; both must build
/// bitwise-identical traces, or both must fail with the same message.
/// Returns false (after recording a failure) on any difference.
bool reads_like_reference(const std::string& text) {
  std::optional<AppTrace> want;
  std::string want_error;
  try {
    want = reference::read_trace(text);
  } catch (const Error& e) {
    want_error = e.what();
  }
  try {
    const AppTrace got = read_trace(text);
    if (!want) {
      ADD_FAILURE() << "reference rejected with '" << want_error
                    << "' but read_trace accepted:\n" << text;
      return false;
    }
    const std::string diff = trace_difference(*want, got);
    if (!diff.empty()) {
      ADD_FAILURE() << diff << "\ninput:\n" << text;
      return false;
    }
  } catch (const Error& e) {
    if (want) {
      ADD_FAILURE() << "read_trace rejected an input the reference accepts: "
                    << e.what() << "\ninput:\n" << text;
      return false;
    }
    if (e.what() != want_error) {
      ADD_FAILURE() << "message '" << e.what() << "' vs reference '"
                    << want_error << "'\ninput:\n" << text;
      return false;
    }
  }
  return true;
}

/// A non-negative double drawn from the awkward corners of the format:
/// raw bit patterns (subnormals through DBL_MAX), ties at 9 significant
/// digits and at 0 decimals, integers and plain message sizes.
double awkward_value(Rng& rng) {
  switch (rng.below(9)) {
    case 0: {  // any finite, non-negative bit pattern
      double v = 0.0;
      do {
        v = std::bit_cast<double>(rng() & ~(std::uint64_t{1} << 63));
      } while (!std::isfinite(v));
      return v;
    }
    case 1:  // subnormal
      return std::bit_cast<double>(rng() & ((std::uint64_t{1} << 52) - 1));
    case 2: {  // extremes
      const double fixed[] = {0.0, -0.0, DBL_MAX, DBL_MIN, DBL_TRUE_MIN,
                              std::nextafter(DBL_MAX, 0.0), 1.0, 0.5};
      return fixed[rng.below(std::size(fixed))];
    }
    case 3:  // tie at 0 decimals ("%.0f" rounds half to even)
      return static_cast<double>(rng.below(std::uint64_t{1} << 40)) + 0.5;
    case 4: {  // tie at 9 significant digits: 10 digits ending in 5
      const double m8 = static_cast<double>(10000000 + rng.below(90000000));
      const double m7 = static_cast<double>(1000000 + rng.below(9000000));
      const double m9 = static_cast<double>(100000000 + rng.below(900000000));
      const double frac4[] = {0.25, 0.75};
      const double frac8[] = {0.125, 0.375, 0.625, 0.875};
      switch (rng.below(3)) {
        case 0: return m8 + frac4[rng.below(2)];
        case 1: return m7 + frac8[rng.below(4)];
        default: return m9 * 10.0 + 5.0;
      }
    }
    case 5:  // integers up to 2^53
      return static_cast<double>(rng.below(std::uint64_t{1} << 53));
    case 6:  // message sizes: a multiple of a KiB or of a decimal MB
      return rng.below(2) == 0 ? 1024.0 * static_cast<double>(rng.below(65536))
                               : 1e6 * static_cast<double>(rng.below(100));
    case 7:  // compute times around the HPL trace's scale
      return rng.uniform(0.0, 2.0) * std::pow(10.0, -static_cast<double>(rng.below(7)));
    default:  // powers of two, small and large
      return std::ldexp(1.0, static_cast<int>(rng.below(2100)) - 1074);
  }
}

AppTrace random_trace(Rng& rng) {
  const int tasks = 1 + static_cast<int>(rng.below(8));
  AppTrace trace(tasks);
  const auto peer = [&] { return static_cast<TaskId>(rng.below(tasks)); };
  const int events = static_cast<int>(rng.below(40));
  for (int i = 0; i < events; ++i) {
    const TaskId t = peer();
    switch (rng.below(8)) {
      case 0: trace.push(t, Event::compute(awkward_value(rng))); break;
      case 1: trace.push(t, Event::send(peer(), awkward_value(rng))); break;
      case 2: trace.push(t, Event::isend(peer(), awkward_value(rng))); break;
      case 3: trace.push(t, Event::recv(peer(), awkward_value(rng))); break;
      case 4: trace.push(t, Event::irecv(peer(), awkward_value(rng))); break;
      case 5: trace.push(t, Event::recv_any(awkward_value(rng))); break;
      case 6: trace.push(t, Event::wait_all()); break;
      default:
        if (rng.below(4) == 0)
          trace.push_barrier_all();
        else
          trace.push(t, Event::barrier());
        break;
    }
  }
  return trace;
}

/// Re-spell one whitespace-separated field the way a hand-written or
/// foreign trace might, keeping the value strtod/strtol would read.
std::string respell(const std::string& field, Rng& rng) {
  const bool integral =
      !field.empty() && field.find_first_not_of("0123456789") == std::string::npos;
  if (!integral || rng.below(3) != 0) return field;
  switch (rng.below(5)) {
    case 0: return "+" + field;
    case 1: return "00" + field;
    case 2: return field.size() < 16 ? strformat("0x%llx", std::stoull(field))
                                     : field;
    case 3: return field + ".";
    default: return field + "e0";
  }
}

/// Render `trace` with the reference writer, then re-format every line:
/// CRLF endings, \v/\f/\t separators, comments, blank lines, '*' lines and
/// re-spelled numbers.
std::string reformat(const std::string& text, Rng& rng) {
  static const char* const kSeparators[] = {" ", "\t", "  ", "\v", "\f",
                                            " \t ", "\r "};
  std::string out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const auto fields = reference::split_ws(text.substr(start, end - start));
    start = end + 1;
    if (rng.below(8) == 0) out += rng.below(2) == 0 ? "\n" : "  # note\n";
    if (rng.below(3) == 0) out += kSeparators[rng.below(std::size(kSeparators))];
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += kSeparators[rng.below(std::size(kSeparators))];
      out += i == 0 ? fields[i] : respell(fields[i], rng);
    }
    if (rng.below(6) == 0) out += " # trailing";
    if (fields.size() > 0 && fields[0] != "tasks" && rng.below(12) == 0)
      out += rng.below(2) == 0 ? "\n* barrier" : "\n*\tcompute 0.5";
    out += rng.below(3) == 0 ? "\r\n" : "\n";
  }
  if (rng.below(2) == 0 && !out.empty()) out.pop_back();  // no final newline
  return out;
}

/// Corrupt one line of `text` so that most results are rejections.
std::string corrupt(const std::string& text, Rng& rng) {
  static const char* const kJunk[] = {
      "abc", "-1", "1e999", "nan", "inf", "infinity", "12x", "0x", "+-5",
      "99999999999999999999", "1e-400", "-0", "0x1p-1080", "-0x10", "1e",
      ".", "any", "*", "tasks", "compute", "send", "2147483648", "5\v"};
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  const size_t victim = rng.below(lines.size());
  auto fields = reference::split_ws(lines[victim]);
  switch (rng.below(6)) {
    case 0:  // replace a field
      if (!fields.empty())
        fields[rng.below(fields.size())] = kJunk[rng.below(std::size(kJunk))];
      break;
    case 1:  // drop a field
      if (!fields.empty()) fields.erase(fields.begin() + static_cast<long>(rng.below(fields.size())));
      break;
    case 2:  // add a field
      fields.push_back(kJunk[rng.below(std::size(kJunk))]);
      break;
    case 3:  // a second 'tasks' line
      fields = reference::split_ws(lines.front());
      break;
    case 4:  // unknown kind
      if (fields.size() >= 2) fields[1] = "explode";
      break;
    default:  // task id out of range
      if (!fields.empty()) fields[0] = "7";
      break;
  }
  std::string joined;
  for (size_t i = 0; i < fields.size(); ++i) joined += (i ? " " : "") + fields[i];
  lines[victim] = joined;
  std::string out;
  for (size_t i = 0; i < lines.size(); ++i) out += (i ? "\n" : "") + lines[i];
  return out;
}

TEST(TraceIoPins, WriterMatchesReferenceBytes) {
  Rng rng(20240611);
  for (int i = 0; i < 2500; ++i) {
    const AppTrace trace = random_trace(rng);
    const std::string want = reference::write_trace(trace);
    ASSERT_EQ(write_trace(trace), want) << "trace " << i;
  }
}

TEST(TraceIoPins, ReaderMatchesReferenceOnReformattedTraces) {
  Rng rng(424242);
  for (int i = 0; i < 2500; ++i) {
    const std::string text = reformat(reference::write_trace(random_trace(rng)), rng);
    ASSERT_TRUE(reads_like_reference(text)) << "trace " << i;
  }
}

TEST(TraceIoPins, ReaderRejectsCorruptedTracesLikeReference) {
  Rng rng(777);
  int rejected = 0;
  for (int i = 0; i < 2500; ++i) {
    const std::string text =
        corrupt(reformat(reference::write_trace(random_trace(rng)), rng), rng);
    ASSERT_TRUE(reads_like_reference(text)) << "trace " << i;
    try {
      (void)read_trace(text);
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1000) << "the corruptions should mostly be rejections";
}

TEST(TraceIoPins, HandWrittenEdgeCasesMatchReference) {
  const char* const cases[] = {
      "",
      "\n\n",
      "# only a comment\n",
      "tasks 1",
      "tasks 1\r\n0 compute 1\r\n",
      "tasks 2\v\n0\fsend\v1\f4000000\n1 recv any 4000000",
      "tasks 2\n* barrier\n* waitall extra fields ignored\n",
      "tasks 2\n*\n",
      "tasks 2\n* compute\n",
      "tasks 2\n* compute 1 2\n",
      "tasks 2\n0 send 1 +5\n0 send 1 0x64\n0 send 1 1e-400\n",
      "tasks 2\n0 compute -0\n0 compute .5\n0 compute 5.\n",
      "tasks 2\n0 compute 00012\n0 compute 1E+3\n0 compute 4.94065646e-324\n",
      "tasks 2\n0 compute 1e999\n",
      "tasks 2\n0 compute inf\n",
      "tasks 2\n0 compute infinity\n",
      "tasks 2\n0 compute NaN\n",
      "tasks 2\n0 compute 12x\n",
      "tasks 2\n0 compute 1e\n",
      "tasks 2\n0 compute -1e-400\n",
      "tasks 2\n0 compute 0x1p-1074\n",
      "tasks 2\n+1 send 0 5\n",
      "tasks 2\n01 send 00 5\n",
      "tasks 2\n0 send 1\n",
      "tasks 2\n0 send any 5\n",
      "tasks 2\n0 recv 2 5\n",
      "tasks 2\n0 irecv any 5 6\n",
      "tasks 2\ntasks 2\n",
      "tasks 2 3\n",
      "tasks\n",
      "tasks 0\n",
      "tasks -1\n",
      "tasks +3\n0 barrier\n",
      "tasks 0x10\n",
      "tasks 99999999999999999999\n",
      "tasks 4294967297\n",
      "0 barrier\ntasks 2\n",
      "tasks 2\n0\n",
      "tasks 2\n0 explode\n",
      "tasks 2 # comment\n0 barrier # more\n#\n",
      "tasks 2\n0 send 1 20#000\n",
  };
  for (const char* text : cases) EXPECT_TRUE(reads_like_reference(text));
  // A NUL inside a field ends it, as it did when fields were C strings.
  using namespace std::string_literals;
  EXPECT_TRUE(reads_like_reference("tasks 2\n0 compute 5\0x\n"s));
  EXPECT_TRUE(reads_like_reference("tasks 2\n0 send 1\0 5\n"s));
  EXPECT_TRUE(reads_like_reference("tasks 2\n0 send 1 5\0\n"s));
}

TEST(TraceIoPins, HplTraceAtPerfbenchTinyShapeRoundTripsLikeReference) {
  hpl::HplParams params;
  params.n = 2400;
  params.nb = 40;
  params.tasks = 32;
  const AppTrace trace = hpl::make_hpl_trace(params);
  const std::string text = write_trace(trace);
  ASSERT_EQ(text, reference::write_trace(trace));
  EXPECT_TRUE(reads_like_reference(text));
  // Compute times lose digits at "%.9g", so the written text, not the
  // generated trace, is the fixed point of a write/read round trip.
  EXPECT_EQ(write_trace(read_trace(text)), text);
}

}  // namespace
}  // namespace bwshare::sim
