#include "net/client.h"

#include "util/error.h"

namespace psv::net {

Client::Client(const std::string& host, std::uint16_t port)
    : sock_(connect_to(host, port)) {
  ByteWriter hello;
  hello.u16(kProtocolVersion);
  write_frame(sock_, FrameType::kHello, 0, hello.buffer());
  std::optional<Frame> ack = read_frame(sock_);
  PSV_REQUIRE_AS(ErrorCode::kProtocol, ack.has_value(),
                 "server closed the connection during the handshake");
  if (ack->type == FrameType::kError) {
    ByteReader in(ack->payload);
    const WireError error = decode_wire_error(in);
    PSV_FAIL_AS(error.code, "server rejected the handshake: " + error.message);
  }
  PSV_REQUIRE_AS(ErrorCode::kProtocol, ack->type == FrameType::kHelloAck,
                 std::string("expected hello-ack frame, got ") + frame_type_name(ack->type));
  ByteReader in(ack->payload);
  version_ = in.u16();
  PSV_REQUIRE_AS(ErrorCode::kProtocol, in.at_end(), "trailing bytes after hello-ack payload");
  PSV_REQUIRE_AS(ErrorCode::kProtocol, version_ == kProtocolVersion,
                 "server negotiated unsupported protocol version " + std::to_string(version_));
}

Client Client::connect(const std::string& endpoint) {
  const auto [host, port] = parse_endpoint(endpoint);
  return Client(host, port);
}

std::uint64_t Client::send(const core::SourceRequest& request) {
  const std::uint64_t id = next_id_++;
  ByteWriter out;
  core::encode_source_request(out, request);
  write_frame(sock_, FrameType::kVerify, id, out.buffer());
  ++outstanding_;
  return id;
}

std::uint64_t Client::send_synth(const core::SourceSynthRequest& request) {
  const std::uint64_t id = next_id_++;
  ByteWriter out;
  core::encode_source_synth_request(out, request);
  write_frame(sock_, FrameType::kSynth, id, out.buffer());
  ++outstanding_;
  return id;
}

std::optional<Client::Response> Client::read_response(ServerStats* stats) {
  for (;;) {
    std::optional<Frame> frame = read_frame(sock_);
    PSV_REQUIRE_AS(ErrorCode::kProtocol, frame.has_value(),
                   "server closed the connection with " + std::to_string(outstanding_) +
                       " request(s) outstanding");
    switch (frame->type) {
      case FrameType::kReport: {
        Response response;
        response.request_id = frame->request_id;
        response.ok = true;
        ByteReader in(frame->payload);
        response.report = core::decode_verify_report(in);
        return response;
      }
      case FrameType::kSynthReport: {
        Response response;
        response.request_id = frame->request_id;
        response.ok = true;
        response.is_synth = true;
        ByteReader in(frame->payload);
        response.synth_report = core::decode_synth_report(in, version_);
        return response;
      }
      case FrameType::kError: {
        ByteReader in(frame->payload);
        const WireError error = decode_wire_error(in);
        // Connection-level error (no request id): the whole exchange died.
        PSV_REQUIRE_AS(error.code, frame->request_id != 0, "server error: " + error.message);
        Response response;
        response.request_id = frame->request_id;
        response.ok = false;
        response.error = error;
        return response;
      }
      case FrameType::kStatsReport: {
        PSV_REQUIRE_AS(ErrorCode::kProtocol, stats != nullptr,
                       "unsolicited stats-report frame");
        ByteReader in(frame->payload);
        *stats = decode_server_stats(in, version_);
        return std::nullopt;
      }
      default:
        PSV_FAIL_AS(ErrorCode::kProtocol,
                    std::string("unexpected ") + frame_type_name(frame->type) +
                        " frame from server");
    }
  }
}

Client::Response Client::next_response() {
  if (!buffered_.empty()) {
    Response response = std::move(buffered_.front());
    buffered_.pop_front();
    --outstanding_;
    return response;
  }
  std::optional<Response> response = read_response(nullptr);
  PSV_ASSERT(response.has_value(), "read_response returned no verify response");
  --outstanding_;
  return std::move(*response);
}

core::VerifyReport Client::verify(const core::SourceRequest& request) {
  const std::uint64_t id = send(request);
  for (;;) {
    Response response = next_response();
    if (response.request_id != id) {
      // A response to an earlier pipelined request: keep it for its caller.
      ++outstanding_;
      buffered_.push_back(std::move(response));
      continue;
    }
    if (!response.ok)
      PSV_FAIL_AS(response.error.code, response.error.message);
    return std::move(response.report);
  }
}

core::SynthReport Client::synth(const core::SourceSynthRequest& request) {
  const std::uint64_t id = send_synth(request);
  for (;;) {
    Response response = next_response();
    if (response.request_id != id) {
      ++outstanding_;
      buffered_.push_back(std::move(response));
      continue;
    }
    if (!response.ok)
      PSV_FAIL_AS(response.error.code, response.error.message);
    return std::move(response.synth_report);
  }
}

ServerStats Client::server_stats() {
  write_frame(sock_, FrameType::kStats, next_id_++, {});
  for (;;) {
    ServerStats stats;
    std::optional<Response> response = read_response(&stats);
    if (!response) return stats;
    buffered_.push_back(std::move(*response));
  }
}

}  // namespace psv::net
