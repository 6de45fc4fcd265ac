#include "service/report_stream.hpp"

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace corebist {
namespace {

// ---- frame codec ---------------------------------------------------------

constexpr std::size_t kHeaderWords = 4;  // magic, kind, payload_bytes, fnv1a

[[nodiscard]] std::uint32_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t h = 0x811C9DC5u;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x01000193u;
  }
  return h;
}

bool writeAll(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool readAll(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;  // EOF: writer gone
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// SIGPIPE => SIG_IGN for the lifetime of one frame write, previous
/// disposition restored on exit: a reader that closed its end must surface
/// as EPIPE on the write, not kill the campaign with an unhandled signal.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() {
    struct sigaction sa = {};
    sa.sa_handler = SIG_IGN;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGPIPE, &sa, &prev_);
  }
  ~ScopedSigpipeIgnore() { ::sigaction(SIGPIPE, &prev_, nullptr); }
  ScopedSigpipeIgnore(const ScopedSigpipeIgnore&) = delete;
  ScopedSigpipeIgnore& operator=(const ScopedSigpipeIgnore&) = delete;

 private:
  struct sigaction prev_ = {};
};

template <typename T>
void putPod(std::vector<std::uint8_t>& b, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  b.insert(b.end(), p, p + sizeof(T));
}

void putBytes(std::vector<std::uint8_t>& b, const void* p, std::size_t n) {
  const auto* q = static_cast<const std::uint8_t*>(p);
  b.insert(b.end(), q, q + n);
}

/// Bounds-checked payload reader; `ok` latches false on any overrun so a
/// truncated payload parses to garbage-free defaults instead of OOB reads.
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;
  bool ok = true;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    if (!ok || static_cast<std::size_t>(end - p) < sizeof(T)) {
      ok = false;
      return v;
    }
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
  }
};

/// Backpatch payload size + checksum into a frame assembled as
/// [16-byte header][payload].
void sealFrame(std::vector<std::uint8_t>& frame) {
  const std::size_t hdr = kHeaderWords * sizeof(std::uint32_t);
  const auto payload = static_cast<std::uint32_t>(frame.size() - hdr);
  const std::uint32_t sum = fnv1a(frame.data() + hdr, payload);
  std::memcpy(frame.data() + 8, &payload, sizeof(payload));
  std::memcpy(frame.data() + 12, &sum, sizeof(sum));
}

// ---- report-stream frames ------------------------------------------------

/// Assemble one frame: header with backpatched size/checksum, then
/// [u64 campaign_id][json bytes].
std::vector<std::uint8_t> buildFrame(StreamEventKind kind,
                                     std::uint64_t campaign_id,
                                     const std::string& json) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderWords * sizeof(std::uint32_t) + sizeof(campaign_id) +
                json.size());
  putPod(frame, kReportStreamMagic);
  putPod(frame, static_cast<std::uint32_t>(kind));
  putPod(frame, std::uint32_t{0});  // payload size (sealFrame)
  putPod(frame, std::uint32_t{0});  // checksum (sealFrame)
  putPod(frame, campaign_id);
  putBytes(frame, json.data(), json.size());
  sealFrame(frame);
  return frame;
}

}  // namespace

const char* streamEventKindName(StreamEventKind k) noexcept {
  switch (k) {
    case StreamEventKind::kCampaignStart:
      return "campaign_start";
    case StreamEventKind::kChannelPlaced:
      return "channel_placed";
    case StreamEventKind::kCoreStart:
      return "core_start";
    case StreamEventKind::kCoreTimeout:
      return "core_timeout";
    case StreamEventKind::kChannelFailure:
      return "channel_failure";
    case StreamEventKind::kCoreQuarantined:
      return "core_quarantined";
    case StreamEventKind::kCoreFinish:
      return "core_finish";
    case StreamEventKind::kCampaignFinish:
      return "campaign_finish";
  }
  return "unknown";
}

WireReportStream::WireReportStream(int fd, std::uint64_t campaign_id)
    : fd_(fd), campaign_id_(campaign_id) {}

void WireReportStream::emit(StreamEventKind kind, const std::string& json) {
  const std::vector<std::uint8_t> frame =
      buildFrame(kind, campaign_id_, json);
  const std::lock_guard<std::mutex> lock(mu_);
  if (dropped_) return;
  // A tenant that closed its reader must not fail (or stall) the campaign:
  // SIGPIPE is ignored for the write, EPIPE latches the dropped state.
  ScopedSigpipeIgnore guard;
  if (!writeAll(fd_, frame.data(), frame.size())) dropped_ = true;
}

void WireReportStream::onCampaignStart(int cores, int threads) {
  std::ostringstream os;
  os << "{\"cores\": " << cores << ", \"workers\": " << threads << "}";
  emit(StreamEventKind::kCampaignStart, os.str());
}

void WireReportStream::onChannelPlaced(int tam, int channel,
                                       const std::vector<int>& cores,
                                       std::size_t predicted_tcks) {
  std::ostringstream os;
  os << "{\"tam\": " << tam << ", \"channel\": " << channel
     << ", \"cores\": [";
  for (std::size_t i = 0; i < cores.size(); ++i) {
    if (i != 0) os << ", ";
    os << cores[i];
  }
  os << "], \"predicted_tcks\": " << predicted_tcks << "}";
  emit(StreamEventKind::kChannelPlaced, os.str());
}

void WireReportStream::onCoreStart(int core_index, int attempt) {
  std::ostringstream os;
  os << "{\"core\": " << core_index << ", \"attempt\": " << attempt << "}";
  emit(StreamEventKind::kCoreStart, os.str());
}

void WireReportStream::onCoreTimeout(int core_index, int attempt,
                                     bool will_retry) {
  std::ostringstream os;
  os << "{\"core\": " << core_index << ", \"attempt\": " << attempt
     << ", \"will_retry\": " << (will_retry ? "true" : "false") << "}";
  emit(StreamEventKind::kCoreTimeout, os.str());
}

void WireReportStream::onChannelFailure(int core_index, int failures,
                                        bool will_retry) {
  std::ostringstream os;
  os << "{\"core\": " << core_index << ", \"failures\": " << failures
     << ", \"will_retry\": " << (will_retry ? "true" : "false") << "}";
  emit(StreamEventKind::kChannelFailure, os.str());
}

void WireReportStream::onCoreQuarantined(int core_index, int failures) {
  std::ostringstream os;
  os << "{\"core\": " << core_index << ", \"failures\": " << failures << "}";
  emit(StreamEventKind::kCoreQuarantined, os.str());
}

void WireReportStream::onCoreFinish(const CoreReport& report) {
  emit(StreamEventKind::kCoreFinish, coreReportJson(report, true));
}

void WireReportStream::onCampaignFinish(const SessionReport& report) {
  emit(StreamEventKind::kCampaignFinish, report.toJson());
}

bool readStreamEvent(int fd, StreamEvent& out) {
  std::uint32_t hdr[kHeaderWords];
  {
    // Distinguish clean EOF (no bytes at all) from a torn header.
    auto* p = reinterpret_cast<char*>(hdr);
    std::size_t got = 0;
    while (got < sizeof hdr) {
      const ssize_t k = ::read(fd, p + got, sizeof hdr - got);
      if (k < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("report stream: read error");
      }
      if (k == 0) {
        if (got == 0) return false;  // clean EOF between frames
        throw std::runtime_error("report stream: torn frame header");
      }
      got += static_cast<std::size_t>(k);
    }
  }
  if (hdr[0] != kReportStreamMagic) {
    throw std::runtime_error("report stream: bad frame magic");
  }
  if (hdr[1] < 1 ||
      hdr[1] > static_cast<std::uint32_t>(StreamEventKind::kCampaignFinish)) {
    throw std::runtime_error("report stream: unknown event kind");
  }
  // The size word comes off a peer fd: bound it before allocating, so a
  // corrupt header cannot request gigabytes.
  if (hdr[2] > kMaxStreamPayloadBytes) {
    throw std::runtime_error("report stream: oversized frame payload");
  }
  std::vector<std::uint8_t> payload(hdr[2]);
  if (!readAll(fd, payload.data(), payload.size())) {
    throw std::runtime_error("report stream: truncated payload");
  }
  if (fnv1a(payload.data(), payload.size()) != hdr[3]) {
    throw std::runtime_error("report stream: payload checksum mismatch");
  }
  Cursor c{payload.data(), payload.data() + payload.size()};
  const auto id = c.get<std::uint64_t>();
  if (!c.ok) throw std::runtime_error("report stream: short payload");
  out.kind = static_cast<StreamEventKind>(hdr[1]);
  out.campaign_id = id;
  out.json.assign(reinterpret_cast<const char*>(c.p),
                  static_cast<std::size_t>(c.end - c.p));
  return true;
}

}  // namespace corebist
