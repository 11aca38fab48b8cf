// perfbench_load — closed-loop HTTP/1.1 load generator for the serve
// workloads (see README.md).
//
//   perfbench_load --port P --mix mixed|query --pins N --seconds T --seed S
//                  --topk-ref FILE --out FILE [--min-analyze A]
//                  [--min-reads R]
//
// kConnections keep-alive connections each send a request, wait for the
// answer, and send the next: a closed loop, because each caller is a tool
// waiting on its answer. One thread drives all connections through poll(),
// so the client takes one CPU away from the daemon, not kConnections. The
// `mixed` sequence per 8 requests is 6 single-pin what-if /analyze, 1 /top-k
// and 1 /score-region, and connection i starts 2·i requests into it;
// `query` alternates /top-k and /score-region, and connection i starts i
// requests into it. Either way the connections do not move in lockstep.
// Requests stop being sent after T seconds, or later while fewer than A
// /analyze or R read answers have arrived (capped at 3·T seconds), so the
// medians run.py reports have enough samples.
//
// Every answer is checked: status 200, a body that is well-formed JSON, and
// for /top-k a "nodes" array byte-equal to the one in --topk-ref (the
// ranking taken right after /load). One line per request goes to --out:
//   <endpoint> <status> <ok 0|1> <start_us> <latency_us> <trace_id>
// The JSON line on stdout gives the request count, the wall time and the
// client's own CPU time (user + system), so that run.py can show the
// throughput is the daemon's and not this client's.
// This client links nothing of the program; it only sees the wire format.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "workload.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// -- JSON well-formedness (RFC 8259 grammar, no value construction) -----------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value(0)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t'))
      ++pos_;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }
  bool number() {
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      return false;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) return false;
    }
    return true;
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i, ++pos_)
            if (pos_ >= s_.size() || !std::isxdigit(
                                         static_cast<unsigned char>(s_[pos_])))
              return false;
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
    }
    return false;
  }
  bool value(int depth) {
    if (depth > kMaxDepth || pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == close) {
        ++pos_;
        return true;
      }
      for (;;) {
        skip_ws();
        if (c == '{') {
          if (!string()) return false;
          skip_ws();
          if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
          skip_ws();
        }
        if (!value(depth + 1)) return false;
        skip_ws();
        if (pos_ >= s_.size()) return false;
        const char next = s_[pos_++];
        if (next == close) return true;
        if (next != ',') return false;
      }
    }
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// -- request sequence ---------------------------------------------------------

/// splitmix64: a small, fully specified generator, so the request sequence
/// depends on the seed alone.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

enum Endpoint { kAnalyze = 0, kTopK = 1, kScoreRegion = 2 };
const char* const kEndpointNames[] = {"analyze", "top-k", "score-region"};

struct Request {
  Endpoint endpoint;
  std::string body;
};

Request next_request(bool mixed, std::size_t i, Rng& rng,
                     const std::string& circuit, std::size_t pins) {
  const std::string name = "\"" + circuit + "\"";
  const std::size_t kind = mixed ? i % 8 : 6 + i % 2;
  if (kind <= 5) {
    return {kAnalyze, "{\"circuit\": " + name +
                          ", \"cap_scalings\": [{\"pin\": " +
                          std::to_string(rng.index(pins)) +
                          ", \"factor\": 5.0}]}"};
  }
  if (kind == 6) return {kTopK, "{\"circuit\": " + name + ", \"k\": 10}"};
  std::string nodes;
  for (int n = 0; n < 8; ++n)
    nodes += (n ? ", " : "") + std::to_string(rng.index(pins));
  return {kScoreRegion,
          "{\"circuit\": " + name + ", \"nodes\": [" + nodes + "]}"};
}

// -- HTTP ---------------------------------------------------------------------

/// Parsed head of one HTTP/1.1 response.
struct ResponseHead {
  int status = 0;
  std::size_t content_length = 0;
  std::size_t body_offset = 0;  ///< bytes of status line + headers + CRLFCRLF
  bool close = false;
  std::uint64_t trace_id = 0;   ///< X-Trace-Id; the daemon's ids are never 0
};

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

/// Parse the head at the start of `buf`; false while it is incomplete or
/// malformed (`malformed` tells which).
bool parse_head(std::string_view buf, ResponseHead& head, bool& malformed) {
  malformed = false;
  const std::size_t end = buf.find("\r\n\r\n");
  if (end == std::string_view::npos) return false;
  std::size_t line_end = buf.find("\r\n");
  const std::string_view status_line = buf.substr(0, line_end);
  if (status_line.size() < 12 || status_line.substr(0, 5) != "HTTP/") {
    malformed = true;
    return false;
  }
  head = ResponseHead{};
  head.status = std::atoi(status_line.data() + 9);
  head.body_offset = end + 4;
  while (line_end < end) {
    const std::size_t begin = line_end + 2;
    line_end = buf.find("\r\n", begin);
    const std::string_view line = buf.substr(begin, line_end - begin);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view key = line.substr(0, colon);
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    // Numeric values end at the CRLF, which stops strtoull.
    if (iequals(key, "content-length"))
      head.content_length = std::strtoull(value.data(), nullptr, 10);
    if (iequals(key, "x-trace-id"))
      head.trace_id = std::strtoull(value.data(), nullptr, 16);
    if (iequals(key, "connection") && iequals(value, "close")) head.close = true;
  }
  return true;
}

/// A blocking connect, then non-blocking I/O driven by the poll loop.
int open_connection(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The "nodes" array onward: the ranking part of a /top-k answer.
std::string_view ranking_part(std::string_view body) {
  const std::size_t at = body.find("\"nodes\"");
  return at == std::string_view::npos ? std::string_view() : body.substr(at);
}

struct Sample {
  Endpoint endpoint;
  int status;
  bool ok;
  double start_us;
  double latency_us;
  std::uint64_t trace_id;  ///< 0 when the answer carried none
};

/// One caller: a keep-alive connection and the request it waits on.
struct Caller {
  int fd = -1;
  bool active = true;
  std::size_t next = 0;  ///< index into the request sequence
  Rng rng{0};
  Endpoint endpoint = kAnalyze;
  Clock::time_point sent;
  std::string out;
  std::size_t out_done = 0;
  std::string in;
};

std::string opt(const std::map<std::string, std::string>& o,
                const std::string& key, const std::string& fallback) {
  const auto it = o.find(key);
  return it == o.end() ? fallback : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> o;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "perfbench_load: bad option '%s'\n", argv[i]);
      return 2;
    }
    o[argv[i] + 2] = argv[i + 1];
  }
  const int port = std::atoi(opt(o, "port", "0").c_str());
  const std::string circuit = perfbench::kCircuitName;
  const bool mixed = opt(o, "mix", "mixed") == "mixed";
  const std::size_t pins =
      std::strtoull(opt(o, "pins", "0").c_str(), nullptr, 10);
  const double seconds = std::atof(opt(o, "seconds", "10").c_str());
  const double max_seconds = 3.0 * seconds;
  const std::uint64_t seed =
      std::strtoull(opt(o, "seed", "1").c_str(), nullptr, 10);
  const std::size_t connections = perfbench::kConnections;
  const long min_analyze = std::atol(opt(o, "min-analyze", "0").c_str());
  const long min_reads = std::atol(opt(o, "min-reads", "0").c_str());
  const std::string out_path = opt(o, "out", "");
  if (port <= 0 || pins == 0 || out_path.empty()) {
    std::fprintf(stderr,
                 "perfbench_load: --port, --pins and --out are required\n");
    return 2;
  }
  std::string topk_ref;
  {
    std::ifstream in(opt(o, "topk-ref", ""));
    std::stringstream ss;
    ss << in.rdbuf();
    topk_ref = std::string(ranking_part(ss.str()));
  }
  if (topk_ref.empty()) {
    std::fprintf(stderr,
                 "perfbench_load: --topk-ref holds no \"nodes\" ranking\n");
    return 2;
  }

  const auto start = Clock::now();
  const auto micros = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - start).count();
  };
  long analyzes_done = 0, reads_done = 0;
  std::vector<Sample> samples;
  std::vector<Caller> callers(connections);

  const auto keep_going = [&] {
    const double now = micros(Clock::now()) / 1e6;
    if (now >= max_seconds) return false;
    return now < seconds || analyzes_done < min_analyze ||
           reads_done < min_reads;
  };
  // Write as much of the pending request as the socket takes.
  const auto flush = [](Caller& c) {
    while (c.out_done < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_done,
                               c.out.size() - c.out_done, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_done += static_cast<std::size_t>(n);
      } else {
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      }
    }
    return true;
  };
  const auto finish = [&](Caller& c, int status, bool ok,
                          std::uint64_t trace_id) {
    const auto now = Clock::now();
    samples.push_back({c.endpoint, status, ok, micros(c.sent),
                       micros(now) - micros(c.sent), trace_id});
    if (status == 200) ++(c.endpoint == kAnalyze ? analyzes_done : reads_done);
  };
  const auto fail = [&](Caller& c) {  // transport failure: record, retire
    finish(c, 0, false, 0);
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    c.active = false;
  };
  const auto send_next = [&](Caller& c) {
    if (!keep_going()) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
      c.active = false;
      return;
    }
    const Request req = next_request(mixed, c.next++, c.rng, circuit, pins);
    c.endpoint = req.endpoint;
    c.out = "POST /" + std::string(kEndpointNames[req.endpoint]) +
            " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
            "Content-Length: " + std::to_string(req.body.size()) + "\r\n\r\n" +
            req.body;
    c.out_done = 0;
    c.sent = Clock::now();
    if (c.fd < 0) c.fd = open_connection(port);
    if (c.fd < 0 || !flush(c)) fail(c);
  };

  for (std::size_t i = 0; i < connections; ++i) {
    callers[i].next = mixed ? 2 * i : i;
    callers[i].rng = Rng(seed * 1000003ull + i);
    send_next(callers[i]);
  }

  std::vector<pollfd> fds;
  std::vector<Caller*> owners;
  char chunk[65536];
  for (;;) {
    fds.clear();
    owners.clear();
    for (Caller& c : callers) {
      if (!c.active) continue;
      const short events = static_cast<short>(
          POLLIN | (c.out_done < c.out.size() ? POLLOUT : 0));
      fds.push_back({c.fd, events, 0});
      owners.push_back(&c);
    }
    if (fds.empty()) break;
    if (::poll(fds.data(), fds.size(), 1000) < 0) {
      if (errno == EINTR) continue;
      std::perror("perfbench_load: poll");
      return 1;
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      Caller& c = *owners[k];
      const short ev = fds[k].revents;
      if (ev == 0) continue;
      if ((ev & POLLOUT) && !flush(c)) {
        fail(c);
        continue;
      }
      if (!(ev & (POLLIN | POLLHUP | POLLERR))) continue;
      // One read per readiness event: poll() is level-triggered, so what a
      // read leaves behind wakes the next round, and a whole answer costs
      // one recv() instead of one plus an EAGAIN probe.
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n > 0) c.in.append(chunk, static_cast<std::size_t>(n));
      const bool closed =
          n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
      ResponseHead head;
      bool malformed = false;
      const bool have_head = parse_head(c.in, head, malformed);
      if (have_head && c.in.size() >= head.body_offset + head.content_length) {
        const std::string_view body = std::string_view(c.in).substr(
            head.body_offset, head.content_length);
        bool ok = head.status == 200 && JsonChecker(body).valid();
        if (ok && c.endpoint == kTopK) ok = ranking_part(body) == topk_ref;
        c.in.erase(0, head.body_offset + head.content_length);
        finish(c, head.status, ok, head.trace_id);
        if (head.close || closed) {
          ::close(c.fd);
          c.fd = -1;
          c.in.clear();
        }
        send_next(c);
      } else if (malformed || closed) {
        fail(c);
      }
    }
  }
  const double wall_s = micros(Clock::now()) / 1e6;
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds_of = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  const double cpu_s = seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench_load: cannot write %s\n", out_path.c_str());
    return 1;
  }
  for (const Sample& s : samples) {
    char trace_id[20] = "-";
    if (s.trace_id != 0)
      std::snprintf(trace_id, sizeof trace_id, "%016llx",
                    static_cast<unsigned long long>(s.trace_id));
    std::fprintf(out, "%s %d %d %.3f %.3f %s\n", kEndpointNames[s.endpoint],
                 s.status, s.ok ? 1 : 0, s.start_us, s.latency_us, trace_id);
  }
  std::fclose(out);
  std::printf("{\"requests\": %zu, \"wall_s\": %.6f, \"cpu_s\": %.6f}\n",
              samples.size(), wall_s, cpu_s);
  return 0;
}
