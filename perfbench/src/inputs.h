// Seeded inputs for the served workloads and their in-process references.
//
// Every input derives from the run's seed; the server only ever sees the
// generated requests.  The seed changes plane values and Figure-11
// constants, never the shape of the work, so every exact count (cycles,
// flops, bytes, checker hits) is the same for every seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/service.h"

namespace perfbench {

// The Figure-11 script cut into `chunks` line-balanced SessionCommand
// scripts (the chunking nsc_loadgen uses).
std::vector<std::string> figure11Chunks(const std::string& script, int chunks);

// One interactive user's session: OpenSession, one SessionCommand per chunk
// (the last deposits the seeded planes, runs, and reads back planes 4 and
// 9), CloseSession.  `session` is the id OpenSession returned.
struct SessionPlan {
  std::vector<std::string> chunks;
  std::vector<nsc::svc::PlaneImage> inputs;
  nsc::svc::Request request(std::size_t step, std::uint64_t session) const;
  std::size_t steps() const { return chunks.size() + 2; }
};
SessionPlan sessionPlan(std::uint64_t seed, int variant, int chunks);

// A batch ensemble request whose Figure-11 h^2 constant is drawn from the
// seed, so each variant is a distinct program (a compile-cache miss).  The
// constant is written with a fixed number of digits so request and reply
// sizes do not depend on the seed.
nsc::svc::RunEnsemble batchRequest(std::uint64_t seed, int variant,
                                   int replicas);

// Fingerprint of every generated input (plane words, scripts).
std::uint64_t inputsDigest(const std::vector<SessionPlan>& sessions,
                           const std::vector<nsc::svc::RunEnsemble>& batches);

// deterministicReplyJson with the fields a shared, spilling server changes
// legitimately masked: session id, cache-hit flag, checker hits, and
// restored_from_disk (the set nsc_loadgen --verify masks, plus restores).
std::string comparableReply(const nsc::svc::ServiceReply& reply);

// Framed request bytes as the client sends them.
std::size_t requestWireBytes(const nsc::svc::Request& request);

// The in-process answers every served reply is checked against, computed
// before timing starts on a one-shard WorkbenchService with a private
// one-thread pool and a private program cache.
struct SessionReference {
  std::vector<std::string> replies;  // comparableReply per step
  std::uint64_t cycles = 0;          // the run chunk's simulated cycles
  std::uint64_t flops = 0;
  std::uint64_t checker_hits = 0;    // summed over the session's replies
  std::uint64_t request_bytes = 0;   // framed, with the reference's ids
  std::uint64_t reply_bytes = 0;     // comparableReply bytes, summed
};
struct BatchReference {
  std::string reply;
  std::uint64_t cycles = 0;  // summed over replicas
  std::uint64_t flops = 0;
  std::uint64_t replicas_batched = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t reply_bytes = 0;
};
std::vector<SessionReference> sessionReferences(
    const std::vector<SessionPlan>& plans);
std::vector<BatchReference> batchReferences(
    const std::vector<nsc::svc::RunEnsemble>& requests);

}  // namespace perfbench
