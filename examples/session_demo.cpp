// Stateful sessions + admission control: the interactive half of the
// serving layer.
//
// Part 1 — sessions with shard affinity: 16 users each open a session and
// build the Figure-11 Jacobi pipeline across 4 incremental command
// batches (the paper's one-user-at-a-Sun-3 workflow, but concurrent and
// stateful).  Every batch of a session lands on the shard that owns its
// editor state; batches re-validate on entry, so the warm memoized
// checker session answers queries a previous request already paid for.
// The demo exits non-zero unless every session's final sweep is
// bit-identical to every other's and all invariants (affinity, warm
// reuse, one shared compiled image) hold.
//
// Part 2 — admission control under overload: a deferred-start service is
// loaded past its shed watermark, so batch ensembles are refused with
// Rejected replies while interactive sessions are still admitted, and an
// already-expired deadline is shed before dispatch.  Deterministic: the
// shards only start serving after the burst is staged.
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "nsc/nsc.h"
#include "service/service.h"

namespace {

// The Figure-11 script's line-balanced batches, each bracketed by `check`
// so consecutive batches share warm checker state.
std::vector<std::string> scriptChunks(int chunks) {
  std::vector<std::string> batches = nsc::figure11SessionChunks(chunks);
  for (std::size_t c = 0; c < batches.size(); ++c) {
    batches[c] = (c > 0 ? "check\n" : "") + batches[c] + "check\n";
  }
  return batches;
}

}  // namespace

int main() {
  using namespace nsc;
  constexpr int kSessions = 16;
  constexpr int kChunks = 4;

  // ---- Part 1: stateful sessions with shard affinity ----
  svc::ServiceOptions options;
  options.shards = 4;
  options.queue_capacity = 32;
  svc::WorkbenchService service(options);
  const std::vector<std::string> chunks = scriptChunks(kChunks);

  std::vector<std::uint64_t> ids(kSessions);
  std::vector<int> shards(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    const svc::ServiceReply opened = service.submit(svc::OpenSession{}).get();
    if (!opened.ok()) {
      std::fprintf(stderr, "open %d failed: %s\n", s,
                   opened.status.message().c_str());
      return 1;
    }
    ids[static_cast<std::size_t>(s)] = opened.stats.session;
    shards[static_cast<std::size_t>(s)] = opened.stats.shard;
  }

  // Drive every session's batches concurrently; per-session order is
  // preserved by shard affinity + FIFO within the interactive class.
  std::vector<std::future<svc::ServiceReply>> futures;
  for (int c = 0; c < kChunks; ++c) {
    for (int s = 0; s < kSessions; ++s) {
      svc::SessionCommand command;
      command.session = ids[static_cast<std::size_t>(s)];
      command.script = chunks[static_cast<std::size_t>(c)];
      command.run = (c == kChunks - 1);
      command.outputs = {svc::PlaneRange{4, 161, 366}};
      futures.push_back(service.submit(std::move(command)));
    }
  }
  std::vector<svc::ServiceReply> replies;
  replies.reserve(futures.size());
  for (auto& future : futures) replies.push_back(future.get());

  std::uint64_t warm_hits = 0;
  const svc::ServiceReply* final0 = nullptr;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const svc::ServiceReply& reply = replies[i];
    const int s = static_cast<int>(i) % kSessions;
    if (reply.stats.shard != shards[static_cast<std::size_t>(s)]) {
      std::fprintf(stderr, "session %d batch served on shard %d, not %d\n",
                   s, reply.stats.shard, shards[static_cast<std::size_t>(s)]);
      return 1;
    }
    warm_hits += reply.stats.checker_session_hits;
    if (i >= replies.size() - kSessions) {  // the run batches
      if (reply.run.error) {
        std::fprintf(stderr, "session %d final run failed\n", s);
        return 1;
      }
      if (final0 == nullptr) final0 = &reply;
      if (reply.run.total_cycles != final0->run.total_cycles ||
          reply.outputs != final0->outputs ||
          reply.program.get() != final0->program.get()) {
        std::fprintf(stderr, "session %d diverged from session 0\n", s);
        return 1;
      }
    }
  }
  if (warm_hits == 0) {
    std::fprintf(stderr, "no warm checker reuse across session requests\n");
    return 1;
  }

  std::printf("session_demo: %d stateful sessions x %d batches, %d shards\n",
              kSessions, kChunks, service.shards());
  std::printf("  affinity held for all %zu requests; %llu checker queries "
              "answered from warm sessions\n",
              replies.size(), static_cast<unsigned long long>(warm_hits));
  std::printf("  all %d final sweeps bit-identical, one shared compiled "
              "image (%llu cycles each)\n",
              kSessions,
              static_cast<unsigned long long>(final0->run.total_cycles));
  for (int s = 0; s < kSessions; ++s) {
    service.submit(svc::CloseSession{ids[static_cast<std::size_t>(s)]}).get();
  }
  if (service.sessionCount() != 0) {
    std::fprintf(stderr, "sessions leaked after close\n");
    return 1;
  }

  // ---- Part 2: admission control under deterministic overload ----
  svc::ServiceOptions overload;
  overload.shards = 2;
  overload.queue_capacity = 8;
  overload.admission.overload = svc::AdmissionPolicy::Overload::kShed;
  overload.admission.shed_watermark = 3;
  overload.start = false;  // stage the burst before anything serves
  svc::WorkbenchService loaded(overload);

  const std::string script = figure11SessionScript();
  std::vector<std::future<svc::ServiceReply>> burst;
  int shed_now = 0;
  for (int i = 0; i < 6; ++i) {  // batch ensembles past the watermark
    burst.push_back(loaded.submit(svc::RunEnsemble{script, 2}));
    if (burst.back().wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      ++shed_now;  // resolved at admission: shed
    }
  }
  svc::Admission expired;
  expired.deadline_us = -1;
  burst.push_back(loaded.submit(svc::SubmitSession{script}, expired));
  burst.push_back(loaded.submit(svc::SubmitSession{script}));  // interactive
  loaded.start();

  int completed = 0, shed_overload = 0, shed_deadline = 0, interactive_ok = 0;
  for (auto& future : burst) {
    const svc::ServiceReply reply = future.get();
    switch (reply.stats.rejected) {
      case svc::Reject::kOverload:
        ++shed_overload;
        break;
      case svc::Reject::kDeadline:
        ++shed_deadline;
        break;
      default:
        if (reply.ok()) ++completed;
        if (reply.ok() && reply.stats.priority == svc::Priority::kInteractive) {
          ++interactive_ok;
        }
    }
  }
  const svc::AdmissionStats admission = loaded.admissionStats();
  std::uint64_t shard_deadline_sheds = 0;
  for (int s = 0; s < loaded.shards(); ++s) {
    shard_deadline_sheds += loaded.shardStats(s).shed_deadline;
  }
  std::printf("  overload burst: %d completed, %d shed at the watermark, "
              "%d shed on expired deadline\n",
              completed, shed_overload, shed_deadline);
  std::printf("  admission counters: %llu submitted, %llu admitted, "
              "%llu overload sheds; shard deadline sheds: %llu\n",
              static_cast<unsigned long long>(admission.submitted),
              static_cast<unsigned long long>(admission.admitted),
              static_cast<unsigned long long>(admission.shed_overload),
              static_cast<unsigned long long>(shard_deadline_sheds));
  if (shed_overload != 3 || shed_now != 3 || shed_deadline != 1 ||
      interactive_ok != 1 || admission.shed_overload != 3 ||
      shard_deadline_sheds != 1) {
    std::fprintf(stderr, "admission accounting diverged\n");
    return 1;
  }
  return 0;
}
