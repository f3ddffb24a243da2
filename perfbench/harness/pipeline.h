// A traced replay of core::Verifier::verify, built only from the public
// functions the Verifier calls, with a span around each call into a layer:
//
//   core.verify          the whole request (its self time is the glue)
//   lang.parse           parse_model / parse_scheme / parse_requirement
//   core.transform       analyze_pim + instrument_mc_delays, and per scheme
//                        check_schedulability + transform +
//                        instrument_psm_for_requirements
//   ta.fingerprint       VerificationSession construction (fingerprint +
//                        artifact key + skeleton_digest) and the raw-text
//                        digest of the pool key; paid on every request,
//                        a pool hit discards the session, as the Verifier does
//   mc.explore           verify_pim_requirements_in_session, verify_batch +
//                        check_constraints, max_clock_values; dbm runs inside
//   mc.artifact_load     VerificationSession::load and ancestor loads
//   mc.artifact_store    VerificationSession::store and ancestor pointers
//
// The pool (LRU of sessions keyed like the Verifier's) and the warm-start
// ancestor index follow the Verifier's rules, so a replay sees the same
// pool hits, artifact loads and warm starts as the program it mirrors.
// `psvbench daemon-trace` checks that it does: every request's per-stage
// counters must equal core::Verifier's, or the run fails.
#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/report_serde.h"
#include "mc/artifact.h"
#include "mc/session.h"
#include "trace.h"

namespace psvbench {

class TracedPipeline {
 public:
  /// `cache_dir` empty = no artifact cache.
  TracedPipeline(Tracer& tracer, const std::string& cache_dir);

  /// Answer one request. `requirement_texts`, when given, replace
  /// source.requirements and are parsed inside lang.parse (the CLI's path).
  psv::core::VerifyReport verify(const psv::core::SourceRequest& source,
                                 const std::vector<std::string>& requirement_texts,
                                 std::uint64_t request);

 private:
  /// As the Verifier's pool slot.
  struct Slot {
    std::mutex mu;
    std::optional<psv::mc::VerificationSession> session;
    bool load_attempted = false;
  };

  std::shared_ptr<Slot> acquire(psv::ta::Network&& net, const psv::mc::ExploreOptions& explore,
                                std::uint64_t request);
  void prepare(Slot& slot, std::uint64_t request);
  void store_and_publish(const psv::mc::VerificationSession& session, std::uint64_t request);
  template <class Fn>
  void explore(psv::mc::VerificationSession& session, std::uint64_t request, Fn&& fn);

  Tracer& tracer_;
  std::optional<psv::mc::ArtifactStore> store_;
  /// psv_serve's default --max-sessions.
  static constexpr std::size_t kMaxSessions = 32;
  std::unordered_map<std::string, std::shared_ptr<Slot>> pool_;
  std::list<std::string> lru_;
  std::unordered_map<std::string, std::shared_ptr<const psv::mc::PassedStoreExport>> ancestors_;
};

}  // namespace psvbench
