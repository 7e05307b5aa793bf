// Wire payload codecs: typed svc::Request / svc::ServiceReply <-> the JSON
// documents that travel inside frames (net/frame.h).  docs/PROTOCOL.md is
// the normative schema; tests/test_net.cpp keeps doc and code in lockstep.
//
// Design rules:
//
//   * Plane words (request inputs, reply read-backs) are bit-exact payload:
//     they travel as concatenated 16-hex-digit IEEE-754 bit patterns — the
//     same encoding session checkpoints use — never as JSON decimal text,
//     so a reply read over a socket is bit-identical to the in-process one
//     (the end-to-end golden in tests/test_net.cpp).
//   * Enums travel as their integer codes; docs/PROTOCOL.md tables give the
//     code <-> name mapping and the lockstep test checks each name against
//     the code's own *Name() function.
//   * u64 counters travel as JSON numbers (exact to 2^53 — beyond any
//     counter the simulator produces); the one field that legitimately
//     saturates u64, CycleWindow::last (kForever), travels as a decimal
//     string.
//   * The reply deliberately omits two in-process conveniences: the raw
//     microword image (GenerateResult::exe) and the balanced program — a
//     remote client consumes diagnostics, stats, and planes, not microcode.
//     ServiceReply::program is likewise a process-local cache handle and is
//     represented by its absence; ServiceReply::verify is rebuilt from the
//     serialized diagnostics (per-instruction verdicts do not travel).
#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "net/frame.h"
#include "service/service.h"

namespace nsc::net {

// Bit-exact doubles <-> concatenated 16-hex-digit IEEE-754 bit patterns
// (the session-checkpoint scheme, re-exposed for the wire).
std::string encodeWordsHex(const std::vector<double>& words);
bool decodeWordsHex(const std::string& hex, std::vector<double>& out);

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

// The frame type carrying each request alternative.
FrameType frameTypeFor(const svc::Request& request);

// Request payload: the struct's own fields at the top level, plus an
// optional "admission" object ({"priority": 0|1, "deadline_us": N}).
common::Json requestToJson(const svc::Request& request,
                           const svc::Admission& admission = {});

struct DecodedRequest {
  svc::Request request;
  svc::Admission admission;
};
// Decodes a request payload of frame type `type`.  Fails (with a message
// suitable for a kProtocolError reply) on a non-request type, a non-object
// payload, or a field of the wrong JSON type; absent optional fields take
// the struct defaults.
common::Result<DecodedRequest> requestFromJson(std::uint16_t type,
                                               const common::Json& payload);

// ---------------------------------------------------------------------------
// Replies.
// ---------------------------------------------------------------------------

common::Json replyToJson(const svc::ServiceReply& reply);
common::Result<svc::ServiceReply> replyFromJson(const common::Json& payload);

// The reply fields that are nondeterministic by contract (timings, shard
// placement, pool backlog).  The end-to-end golden strips these before
// comparing a wire reply against its in-process reference; PROTOCOL.md
// documents the same list.
const std::vector<std::string>& nondeterministicStatsFields();

// replyToJson with the nondeterministic stats fields removed — two replies
// to the same request are byte-identical under this form regardless of
// transport, shard count, or load.
common::Json deterministicReplyJson(const svc::ServiceReply& reply);

// ---------------------------------------------------------------------------
// Protocol errors (FrameType::kProtocolError payloads).
// ---------------------------------------------------------------------------

struct ProtocolError {
  // One of protocolErrorCodes(): "bad-magic", "oversized", "bad-version",
  // "unknown-type", "bad-json", "bad-request".
  std::string code;
  std::string message;
};

common::Json protocolErrorToJson(const ProtocolError& error);
ProtocolError protocolErrorFromJson(const common::Json& payload);
const std::vector<const char*>& protocolErrorCodes();

}  // namespace nsc::net
