// Client side of the wire protocol (net/wire.h): connects, negotiates the
// protocol version, and exchanges SourceRequests for VerifyReports with a
// psv_serve daemon.
//
// Two usage shapes:
//   * verify() — synchronous: send one request, block for its response;
//   * send() / next_response() — pipelined: queue any number of requests
//     (each gets a client-assigned id), then collect responses as the
//     server finishes them, possibly out of order. Responses to ids other
//     than the one a caller is waiting on are buffered, never dropped.
//
// Not thread-safe: one Client per thread (the daemon handles concurrency
// across connections; pipelining covers concurrency within one).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "core/report_serde.h"
#include "net/socket.h"
#include "net/wire.h"

namespace psv::net {

/// Connection to a psv_serve daemon.
class Client {
 public:
  /// Connect and perform the version handshake. Throws psv::Error (kIo on
  /// connection failure, kProtocol when no common version exists).
  Client(const std::string& host, std::uint16_t port);

  /// Parse "HOST:PORT" and connect.
  static Client connect(const std::string& endpoint);

  /// The protocol version agreed with the server.
  std::uint16_t negotiated_version() const { return version_; }

  /// One response of a pipelined exchange.
  struct Response {
    std::uint64_t request_id = 0;
    bool ok = false;
    bool is_synth = false;          ///< response to a kSynth request
    core::VerifyReport report;      ///< meaningful when ok && !is_synth
    core::SynthReport synth_report; ///< meaningful when ok && is_synth
    WireError error;                ///< meaningful when !ok
  };

  /// Queue one request without waiting; returns its (connection-unique,
  /// monotonically increasing) request id.
  std::uint64_t send(const core::SourceRequest& request);

  /// Queue one synthesis job (kSynth) without waiting; returns its id.
  std::uint64_t send_synth(const core::SourceSynthRequest& request);

  /// Block for the next verify/synth response not yet delivered (buffered
  /// ones first). Throws psv::Error(kProtocol) when the server closes the
  /// connection with requests still outstanding or answers out of protocol.
  Response next_response();

  /// Synchronous round trip: send + wait for THAT response; a server-side
  /// failure is rethrown as psv::Error carrying the server's ErrorCode.
  core::VerifyReport verify(const core::SourceRequest& request);

  /// Synchronous synthesis round trip (see send_synth).
  core::SynthReport synth(const core::SourceSynthRequest& request);

  /// Fetch the server's counters (kStats round trip). Verify responses
  /// arriving in between are buffered for next_response().
  ServerStats server_stats();

  /// Number of requests sent and not yet delivered through next_response()
  /// or verify().
  std::size_t outstanding() const { return outstanding_; }

 private:
  /// Read frames until a verify response arrives (returned) or, when
  /// `stats` is non-null, until a kStatsReport arrives (*stats filled,
  /// std::nullopt returned). Connection-level kError frames (id 0) throw.
  std::optional<Response> read_response(ServerStats* stats);

  Socket sock_;
  std::uint16_t version_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t outstanding_ = 0;
  std::deque<Response> buffered_;
};

}  // namespace psv::net
