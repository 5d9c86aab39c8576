#ifndef MLCORE_DCCS_DCCS_H_
#define MLCORE_DCCS_DCCS_H_

/// Umbrella header for the diversified coherent core search library.
///
/// Quick start — the service path (preferred; reuses preprocessing across
/// queries and never aborts on bad input, see DESIGN.md §5):
///
///   #include "dccs/dccs.h"
///
///   mlcore::MultiLayerGraph graph = ...;   // via GraphBuilder / io / datasets
///   mlcore::Engine engine(
///       std::make_shared<mlcore::GraphStore>(std::move(graph)),
///       {.num_threads = 4, .search_threads = 4});
///   mlcore::DccsRequest request;           // algorithm defaults to kAuto
///   request.params.d = 4; request.params.s = 3; request.params.k = 10;
///   mlcore::Expected<mlcore::DccsResult> response = engine.Run(request);
///   if (!response.ok()) { /* response.status().message */ }
///   for (const auto& core : response->cores) { ... }
///
///   // A second query with the same d (and s) skips vertex deletion
///   // entirely; independent queries batch over the engine's pool:
///   std::vector<mlcore::DccsRequest> sweep = ...;
///   auto responses = engine.RunBatch(sweep);
///
///   // Async submission with deadline/priority and cooperative
///   // cancellation (DESIGN.md §7):
///   mlcore::QueryHandle handle = engine.Submit(
///       request, {.priority = 1, .deadline_seconds = 0.5});
///   // ... later, from any thread:
///   handle.Cancel();                        // or let the deadline fire
///   const auto& outcome = handle.Wait();    // kCancelled / result
///
///   // Standing query over an evolving graph (DESIGN.md §9): one
///   // revision per published epoch, each carrying the full result plus
///   // a vertex-level delta against the previous revision:
///   mlcore::Subscription sub = *engine.Subscribe(request);
///   while (auto revision = sub.Next()) { /* revision->delta */ }
///
/// One-shot form — a thin wrapper constructing a temporary sequential
/// Engine per call; fine for scripts and tests, wasteful for repeated
/// queries:
///
///   mlcore::DccsResult result = mlcore::SolveDccs(
///       graph, params, mlcore::DccsAlgorithm::kBottomUp);
///
/// Threads are Engine policy: `Engine::Options` is the only place a query's
/// pool size and search lanes are set.

#include "dccs/bottom_up.h"
#include "dccs/exact.h"
#include "dccs/greedy.h"
#include "dccs/params.h"
#include "dccs/top_down.h"
#include "service/engine.h"

namespace mlcore {

/// Dispatches to the requested DCCS algorithm (kAuto applies the paper's
/// recommendation rule) through a temporary single-query, sequential
/// `Engine`.
///
/// Invalid parameters — including an out-of-enum `algorithm` value — abort
/// with the engine's validation message rather than returning a silently
/// empty result; services that must stay up on bad input should hold a
/// long-lived `Engine` and branch on `Engine::Run`'s status instead.
inline DccsResult SolveDccs(const MultiLayerGraph& graph,
                            const DccsParams& params,
                            DccsAlgorithm algorithm) {
  // query_workers = 0: the single Run executes on this thread via the
  // waiter-donation path, so the one-shot wrapper spawns no thread at all.
  Engine engine(&graph, Engine::Options{.query_workers = 0});
  Expected<DccsResult> response = engine.Run(DccsRequest{params, algorithm});
  // NOLINT(mlcore-release-check): documented one-shot contract — the
  // legacy wrapper aborts on bad input; servers use Engine::Run instead.
  MLCORE_CHECK_MSG(response.ok(), response.status().message.c_str());
  return std::move(response).value();
}

}  // namespace mlcore

#endif  // MLCORE_DCCS_DCCS_H_
